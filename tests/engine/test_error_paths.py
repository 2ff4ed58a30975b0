"""A join that dies mid-flight leaves the disk as a finished run would.

An exception in the MAT phase or inside a forked unit must not leave
residue that a later run on the same disk can observe: the error reaches
the caller with its type and message, a measured follow-up run matches
one on a fresh workload bit for bit, and closing the workload still
releases the backend's handles.  Regressions here only surface as
cross-run counter corruption and descriptor leaks in a long-running
server.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import JoinEngine
from repro.engine.algorithms import JoinAlgorithm, NMJoin
from repro.storage.backends import STORAGE_BACKENDS


class _FailingPrepare(JoinAlgorithm):
    """A materialising algorithm whose MAT phase dies after reading pages,
    as FM's prepare reads pages before the executor ever starts."""

    name = "failing-prepare"
    display_name = "FAILING-PREPARE"
    materialises = True
    supports_sharding = False
    supports_handoff = False

    def prepare(self, ctx):
        for page_id in ctx.disk.store.page_ids()[:6]:
            ctx.disk.read(page_id)
        raise RuntimeError("injected MAT failure")


def _make_failing_nm(fail_on_call):
    class _FailingNM(NMJoin):
        """NM whose unit pipeline dies on its ``fail_on_call``-th unit in a
    process (each fork worker counts its own calls)."""

        calls = 0

        def process_units(self, ctx, units):
            type(self).calls += 1
            if type(self).calls == fail_on_call:
                for _ in zip(units, range(1)):
                    pass  # consume one unit: the failure is mid-stream
                raise RuntimeError("injected shard failure")
            return super().process_units(ctx, units)

    return _FailingNM()


def _workload(tmp_path, storage):
    path = str(tmp_path / f"pages.{storage}") if storage in ("file", "sqlite") else None
    return build_workload(
        WorkloadConfig(n_p=120, n_q=120, seed=9, storage=storage, storage_path=path)
    )


def _assert_follow_up_run_is_clean(engine, workload, tmp_path, storage):
    workload.reset_measurement()
    again = engine.run("nm", workload.tree_p, workload.tree_q)
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    with _workload(fresh_dir, storage) as fresh_workload:
        fresh = JoinEngine().run("nm", fresh_workload.tree_p, fresh_workload.tree_q)
    assert again.pair_set() == fresh.pair_set()
    assert again.stats.total_page_accesses == fresh.stats.total_page_accesses


class TestErrorPathCleanup:
    @pytest.mark.parametrize("storage", list(STORAGE_BACKENDS))
    def test_mat_phase_failure_leaves_no_residue(self, storage, tmp_path):
        with _workload(tmp_path, storage) as workload:
            engine = JoinEngine()
            with pytest.raises(RuntimeError, match="injected MAT"):
                engine.run(_FailingPrepare(), workload.tree_p, workload.tree_q)
            _assert_follow_up_run_is_clean(engine, workload, tmp_path, storage)

    @pytest.mark.parametrize("storage", list(STORAGE_BACKENDS))
    def test_fork_worker_failure_propagates_and_next_run_is_clean(
        self, storage, tmp_path
    ):
        with _workload(tmp_path, storage) as workload:
            engine = JoinEngine()
            # A fork worker's second unit dies mid-stream, after its first
            # has already warmed the worker's buffer.
            with pytest.raises(RuntimeError, match="^injected shard failure$"):
                engine.run(
                    _make_failing_nm(fail_on_call=2),
                    workload.tree_p,
                    workload.tree_q,
                    executor="sharded",
                    workers=2,
                )
            _assert_follow_up_run_is_clean(engine, workload, tmp_path, storage)

    def test_failure_then_close_releases_file_handle(self, tmp_path):
        workload = _workload(tmp_path, "file")
        store = workload.disk.store
        with workload:
            with pytest.raises(RuntimeError, match="injected shard"):
                JoinEngine().run(
                    _make_failing_nm(fail_on_call=1),
                    workload.tree_p,
                    workload.tree_q,
                    executor="sharded",
                    workers=2,
                )
        assert store._file.closed

    def test_failure_then_close_releases_sqlite_connection(self, tmp_path):
        workload = _workload(tmp_path, "sqlite")
        store = workload.disk.store
        with workload:
            with pytest.raises(RuntimeError, match="injected shard"):
                JoinEngine().run(
                    _make_failing_nm(fail_on_call=1),
                    workload.tree_p,
                    workload.tree_q,
                    executor="sharded",
                    workers=2,
                )
        with pytest.raises(sqlite3.ProgrammingError):
            store._conn.execute("SELECT 1")
