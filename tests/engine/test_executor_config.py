"""EngineConfig's execution knobs: one flat record, wired straight through.

Every execution knob is a plain :class:`EngineConfig` field with its range
check in ``__post_init__``; nothing is derived twice or kept in sync.  These
tests pin that surface, the removed options staying removed, the
``executor_for`` wiring, and the executors' exactly-once absorption of
worker transport snapshots.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.config import EngineConfig
from repro.engine.executors import executor_for


class TestFlatSurface:
    @pytest.mark.parametrize(
        "knob",
        [
            {"pool": "inline"},
            {"distributed": None},
            {"stage_hints": True},
            {"prefetch": "next_batch"},
            {"prefetch_depth": 2},
        ],
    )
    def test_removed_knobs_raise_type_error(self, knob):
        with pytest.raises(TypeError):
            EngineConfig(**knob)

    def test_prefetch_tier_removed_from_every_entry_point(self):
        """Every page fetch is the store's synchronous read: no entry
        point accepts a prefetch mode or a simulated fetch latency."""
        from repro import common_influence_join, uniform_points
        from repro.datasets.workload import WorkloadConfig
        from repro.storage.disk import DiskManager

        with pytest.raises(TypeError):
            DiskManager(fetch_latency=0.001)
        with pytest.raises(TypeError):
            WorkloadConfig(prefetch="next_batch")
        points = uniform_points(10, seed=1)
        with pytest.raises(TypeError):
            common_influence_join(points, points, prefetch="next_batch")

    def test_distributed_defaults(self):
        config = EngineConfig()
        assert (config.nodes, config.node_timeout, config.node_retries) == (2, 60.0, 2)
        assert config.node_min_ready is None
        assert config.fault_plan is None

    def test_range_checks(self):
        with pytest.raises(ValueError, match="nodes must be at least 1"):
            EngineConfig(nodes=0)
        with pytest.raises(ValueError, match="node_timeout must be positive"):
            EngineConfig(node_timeout=0)
        with pytest.raises(ValueError, match="node_timeout must be positive"):
            EngineConfig(node_timeout=-1)
        with pytest.raises(ValueError, match="node_retries must be >= 0"):
            EngineConfig(node_retries=-1)
        with pytest.raises(ValueError, match="node_min_ready must be at least 1"):
            EngineConfig(node_min_ready=0)

    def test_replace_revalidates(self):
        base = EngineConfig(nodes=3)
        assert dataclasses.replace(base, nodes=6).nodes == 6
        with pytest.raises(ValueError, match="nodes must be at least 1"):
            dataclasses.replace(base, nodes=0)


class TestExecutorWiring:
    def test_executor_for_reads_the_flat_distributed_fields(self):
        executor = executor_for(
            EngineConfig(
                executor="distributed",
                nodes=4,
                node_timeout=12.0,
                node_retries=1,
                node_min_ready=3,
                fault_plan="crash@node-1:after=2",
                reuse_handoff="never",
            )
        )
        assert executor.nodes == 4
        assert executor.node_timeout == 12.0
        assert executor.node_retries == 1
        assert executor.min_ready == 3
        assert executor.fault_plan.to_spec() == "crash@node-1:after=2"
        assert executor.reuse_handoff == "never"

    def test_executor_for_reads_the_sharded_fields(self):
        executor = executor_for(
            EngineConfig(executor="sharded", workers=5, reuse_handoff="always")
        )
        assert (executor.workers, executor.reuse_handoff) == (5, "always")


class TestWorkerSnapshotExactlyOnce:
    """Cumulative worker transport snapshots are absorbed exactly once.

    Workers ship *cumulative* ``storage_stats()`` snapshots with a per-
    worker sequence number; the executor keeps only the highest-seq
    snapshot per worker, so retried units and quarantined nodes cannot
    double-count bytes.
    """

    @staticmethod
    def _result(worker, seq, bytes_read):
        from repro.engine.executors import ShardResult
        from repro.join.conditional_filter import FilterStats
        from repro.join.result import JoinStats
        from repro.storage.counters import IOCounters
        from repro.voronoi.single import CellComputationStats

        return ShardResult(
            index=0,
            pairs=[],
            stats=JoinStats(algorithm="nm"),
            cell_stats=CellComputationStats(),
            filter_stats=FilterStats(),
            counters=IOCounters(),
            storage={
                "worker": worker,
                "seq": seq,
                "stats": {"bytes_read": bytes_read, "pages": 5},
            },
        )

    def test_latest_cumulative_snapshot_wins(self):
        import threading

        from repro.engine.executors import collect_worker_snapshot

        snapshots, lock = {}, threading.Lock()
        # node-0 serves three units; each snapshot is cumulative.
        for seq, total in ((1, 100), (2, 250), (3, 260)):
            collect_worker_snapshot(snapshots, lock, self._result("node-0", seq, total))
        # A stale retry result delivered late must not regress the total.
        collect_worker_snapshot(snapshots, lock, self._result("node-0", 2, 250))
        collect_worker_snapshot(snapshots, lock, self._result("node-1", 1, 40))
        assert snapshots["node-0"] == (3, {"bytes_read": 260, "pages": 5})
        assert snapshots["node-1"] == (1, {"bytes_read": 40, "pages": 5})

    def test_absorb_accumulates_counters_but_never_gauges(self):
        from repro.storage.disk import DiskManager

        disk = DiskManager(buffer_pages=2)
        try:
            disk.absorb_worker_storage(
                [
                    {"bytes_read": 260, "bytes_written": 30, "pages": 5},
                    {"bytes_read": 40, "bytes_written": 0, "pages": 5},
                ]
            )
            stats = disk.storage_stats()
            assert stats.extra["worker_bytes_read"] == 300
            assert stats.bytes_written == 30
            assert stats.extra["worker_snapshots"] == 2
            # Gauges (pages/file_bytes) describe the shared store, not
            # worker traffic: absorbing snapshots must not inflate them.
            assert stats.pages == 0
        finally:
            disk.close()
