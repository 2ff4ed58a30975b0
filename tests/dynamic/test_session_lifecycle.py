"""Lifecycle of :class:`DynamicJoinSession`: explicit close, no handle leaks.

The server keeps one warm session per dataset and cycles them over the
same ``--storage-path``; before PR 7 a replaced or dropped session kept
its trees, diagrams, and (transitively) the backend's file/sqlite handles
alive until GC — real fd exhaustion in a long-running process.  These
tests pin the explicit lifecycle: ``close()`` is idempotent, the context
manager closes, closing leaves the caller's disk usable, and the
service's order — close the session, then the workload — releases the
backend so the same storage path can be reopened immediately.
"""

import os

import pytest

from repro.datasets.workload import WorkloadConfig, build_workload
from repro.dynamic.updates import Update, UpdateBatch
from repro.engine import JoinEngine
from repro.geometry.point import Point
from repro.geometry.rect import Rect


def _workload(storage="memory", path=None, seed=7):
    return build_workload(
        WorkloadConfig(n_p=25, n_q=20, seed=seed, storage=storage, storage_path=path)
    )


def _one_insert(session):
    oid = 90_000 + session.stats.batches_applied
    return UpdateBatch([Update("insert", "P", oid, Point(101.0 + oid % 7, 203.0))])


class TestSessionClose:
    def test_close_is_idempotent_and_observable(self):
        workload = _workload()
        with workload:
            session = JoinEngine().open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            assert not session.closed
            session.close()
            assert session.closed
            session.close()  # second close is a no-op, not an error

    def test_closed_session_rejects_further_work(self):
        workload = _workload()
        with workload:
            session = JoinEngine().open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            session.close()
            with pytest.raises(ValueError, match="closed"):
                session.apply_updates(_one_insert(session))
            with pytest.raises(ValueError, match="closed"):
                session.window_pairs(Rect(0.0, 0.0, 100.0, 100.0))

    def test_context_manager_closes(self):
        workload = _workload()
        with workload:
            with JoinEngine().open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            ) as session:
                session.apply_updates(_one_insert(session))
            assert session.closed

    def test_close_without_ownership_leaves_the_disk_usable(self):
        """The default: a session over a caller-built workload must not
        pull the DiskManager out from under the caller."""
        workload = _workload()
        with workload:
            engine = JoinEngine()
            session = engine.open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            expected = session.pair_set()
            session.close()
            # The workload's trees are still readable through the engine.
            result = engine.run("nm", workload.tree_p, workload.tree_q)
            assert result.pair_set() == expected


class TestBackendHandleRelease:
    @staticmethod
    def _cycle(storage, path):
        """One service cycle: open a session over a fresh workload on
        ``path``, apply one insert, then close the session and the
        workload, in that order."""
        workload = _workload(storage=storage, path=path, seed=7)
        session = JoinEngine().open_dynamic(
            workload.tree_p, workload.tree_q, domain=workload.domain
        )
        try:
            session.apply_updates(_one_insert(session))
            pairs = session.pair_set()
        finally:
            session.close()
            workload.close()
        assert session.closed
        return pairs

    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_closed_cycle_reopens_the_same_storage_path(self, storage, tmp_path):
        """The server's cycle: open over a path, close, reopen the same
        path.  Closing the session and then the workload releases the
        backend handles, so the reopen sees a fresh, working store instead
        of fighting a leaked one."""
        path = str(tmp_path / f"lifecycle.{storage}")
        answers = [self._cycle(storage, path) for _ in range(3)]
        # Same seed, same single insert: every cycle is a clean slate.
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_no_fd_growth_across_open_close_cycles(self, storage, tmp_path):
        """The original leak, pinned directly: repeated open/close cycles
        on persistent backends must not accumulate open descriptors."""
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("requires /proc/self/fd")

        def cycle(index):
            self._cycle(storage, str(tmp_path / f"cycle{index}.{storage}"))

        cycle(0)  # warm-up: lazy module/file state settles
        before = len(os.listdir(fd_dir))
        for index in range(1, 6):
            cycle(index)
        after = len(os.listdir(fd_dir))
        assert after <= before, f"fd count grew {before} -> {after}"
