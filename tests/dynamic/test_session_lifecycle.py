"""Lifecycle of :class:`DynamicJoinSession`: explicit close, no handle leaks.

The server keeps one warm session per dataset and cycles them over the
same ``--storage-path``; before PR 7 a replaced or dropped session kept
its trees, diagrams, and (transitively) the backend's file/sqlite handles
alive until GC — real fd exhaustion in a long-running process.  These
tests pin the explicit lifecycle: ``close()`` is idempotent, the context
manager closes, ``open_dynamic`` closes the session it replaces,
``close_dynamic`` closes rather than just forgetting, and an
``owns_disk`` session releases the backend so the same storage path can
be reopened immediately.
"""

import os

import pytest

from repro.datasets.workload import WorkloadConfig, build_workload
from repro.dynamic.updates import Update, UpdateBatch
from repro.engine import EngineConfig, JoinEngine
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


class TestEngineLifecycleHooks:
    def test_open_dynamic_closes_the_replaced_session(self):
        workload = _workload()
        with workload:
            engine = JoinEngine()
            first = engine.open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            second = engine.open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            assert first.closed and not second.closed
            assert second.apply_updates(_one_insert(second)) is not None

    def test_close_dynamic_closes_not_just_forgets(self):
        workload = _workload()
        with workload:
            engine = JoinEngine()
            session = engine.open_dynamic(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            engine.close_dynamic()
            assert session.closed
            with pytest.raises(ValueError, match="no dynamic session"):
                engine.apply_updates(_one_insert(session))
            engine.close_dynamic()  # idempotent with nothing open


class TestBackendHandleRelease:
    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_owning_session_reopens_the_same_storage_path(self, storage, tmp_path):
        """The server's cycle: open over a path, close, reopen the same
        path.  With ``owns_disk`` the close releases the backend handles,
        so the reopen sees a fresh, working store instead of fighting a
        leaked one."""
        path = str(tmp_path / f"lifecycle.{storage}")
        engine = JoinEngine()
        answers = []
        for cycle in range(3):
            workload = _workload(storage=storage, path=path, seed=7)
            session = engine.open_dynamic(
                workload.tree_p,
                workload.tree_q,
                EngineConfig(),
                owns_disk=True,
                domain=workload.domain,
            )
            session.apply_updates(_one_insert(session))
            answers.append(session.pair_set())
            engine.close_dynamic()
            assert session.closed
        # Same seed, same single insert: every cycle is a clean slate.
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_no_fd_growth_across_open_close_cycles(self, storage, tmp_path):
        """The original leak, pinned directly: repeated open/close cycles
        on persistent backends must not accumulate open descriptors."""
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("requires /proc/self/fd")
        engine = JoinEngine()

        def cycle(index):
            path = str(tmp_path / f"cycle{index}.{storage}")
            workload = _workload(storage=storage, path=path, seed=7)
            engine.open_dynamic(
                workload.tree_p,
                workload.tree_q,
                EngineConfig(),
                owns_disk=True,
                domain=workload.domain,
            )
            engine.close_dynamic()

        cycle(0)  # warm-up: lazy module/file state settles
        before = len(os.listdir(fd_dir))
        for index in range(1, 6):
            cycle(index)
        after = len(os.listdir(fd_dir))
        assert after <= before, f"fd count grew {before} -> {after}"
