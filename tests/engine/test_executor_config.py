"""EngineConfig's execution knobs: one flat record, wired straight through.

Every execution knob is a plain :class:`EngineConfig` field with its one
default and its one range check in ``__post_init__``; the executors are
built from the config they serve, so nothing is derived twice or kept in
sync.  These tests pin that surface, the removed options staying removed,
the config reaching the executors, and the executors' exactly-once
absorption of worker transport snapshots.
"""

from __future__ import annotations

import dataclasses
import math
import types

import pytest

from repro.engine.config import EngineConfig
from repro.engine.executors import (
    DistributedExecutor,
    SerialExecutor,
    ShardedExecutor,
    ShardResult,
    executor_for,
)


class TestFlatSurface:
    def test_field_names_are_pinned(self):
        """A new field is a deliberate edit here, not a silent addition."""
        assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == (
            "executor",
            "workers",
            "nodes",
            "node_timeout",
            "node_retries",
            "node_min_ready",
            "fault_plan",
            "reuse_handoff",
            "reuse_cells",
            "use_phi_pruning",
            "domain",
            "delta_candidates",
        )

    @pytest.mark.parametrize(
        "knob",
        [
            {"pool": "inline"},
            {"distributed": None},
            {"stage_hints": True},
            {"prefetch": "next_batch"},
            {"prefetch_depth": 2},
            {"cell_cache": True},
            {"storage": "file"},
            {"storage_path": "/tmp/pages.bin"},
            {"progress_interval": 10},
        ],
    )
    def test_removed_knobs_raise_type_error(self, knob):
        with pytest.raises(TypeError):
            EngineConfig(**knob)

    def test_removed_knob_fails_common_influence_join_before_any_work(self, monkeypatch):
        """The wrapper builds its config first: an unknown knob raises
        ``TypeError`` before a single page is written."""
        import repro

        def no_workload(*args, **kwargs):
            raise AssertionError("the workload was built before the config")

        monkeypatch.setattr(repro, "build_workload", no_workload)
        points = repro.uniform_points(10, seed=1)
        with pytest.raises(TypeError):
            repro.common_influence_join(points, points, cell_cache=True)
        with pytest.raises(ValueError, match="node_timeout"):
            repro.common_influence_join(points, points, node_timeout=math.inf)

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
        with pytest.raises(ValueError, match="node_timeout must be positive"):
            EngineConfig(node_timeout=math.nan)
        with pytest.raises(ValueError, match="node_timeout must be positive"):
            EngineConfig(node_timeout=math.inf)
        with pytest.raises(ValueError, match="node_retries must be >= 0"):
            EngineConfig(node_retries=-1)
        with pytest.raises(ValueError, match="node_min_ready must be at least 1"):
            EngineConfig(node_min_ready=0)

    def test_replace_revalidates(self):
        base = EngineConfig(nodes=3)
        assert dataclasses.replace(base, nodes=6).nodes == 6
        with pytest.raises(ValueError, match="nodes must be at least 1"):
            dataclasses.replace(base, nodes=0)


def _file_workload():
    from repro.datasets.workload import WorkloadConfig, build_workload

    return build_workload(WorkloadConfig(n_p=200, n_q=200, seed=5, storage="file"))


class _RecordingNode:
    """Stands in for a node subprocess: records what the executor hands
    it and answers every unit with an empty result (or a crash)."""

    def __init__(self, log, crash, worker_id, spec, unit_delay=0.0, faults=None):
        self.worker_id = worker_id
        self.process = types.SimpleNamespace(pid=0)
        self.crash = crash
        self.log = log
        log.append(("spawn", worker_id, spec["handoff"], faults))

    def wait_ready(self, timeout):
        self.log.append(("ready", self.worker_id, timeout))

    def run_unit(self, assignment, timeout, await_carry=None):
        from repro.engine.coordinator import GIVE_WAY
        from repro.engine.node import NodeCrashed
        from repro.join.conditional_filter import FilterStats
        from repro.join.result import JoinStats
        from repro.storage.counters import IOCounters
        from repro.voronoi.single import CellComputationStats

        # Like a node: a chained unit waits for its carry (or gives way).
        if await_carry is not None and await_carry(assignment) is GIVE_WAY:
            return None
        self.log.append(("unit", self.worker_id, timeout))
        if self.crash:
            raise NodeCrashed(f"{self.worker_id} crashed")
        return ShardResult(
            index=assignment.index,
            pairs=[],
            stats=JoinStats(algorithm="NM-CIJ"),
            cell_stats=CellComputationStats(),
            filter_stats=FilterStats(),
            counters=IOCounters(),
        )

    def quarantine(self):
        pass

    def shutdown(self):
        pass


class TestExecutorWiring:
    """The executors are built from the config they serve and read every
    knob from it: each test sets a field and watches it act."""

    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("serial", SerialExecutor),
            ("sharded", ShardedExecutor),
            ("distributed", DistributedExecutor),
        ],
    )
    def test_executor_for_builds_from_the_config(self, kind, cls):
        config = EngineConfig(executor=kind)
        executor = executor_for(config)
        assert isinstance(executor, cls)
        assert getattr(executor, "config", config) is config

    @pytest.mark.parametrize("mode, chained", [("auto", False), ("always", True)])
    def test_sharded_reads_workers_and_reuse_handoff(self, monkeypatch, mode, chained):
        """``workers`` sizes the fork pool and ``reuse_handoff`` decides
        whether its units chain (the pool request is recorded, then
        declined so the units run inline)."""
        from repro.engine import JoinEngine

        requests = []
        monkeypatch.setattr(
            ShardedExecutor,
            "_make_fork_pool",
            lambda self, algorithm, ctx, units, handoff, size: requests.append(
                (size, handoff)
            ),
        )
        with _file_workload() as workload:
            JoinEngine().run(
                "nm",
                workload.tree_p,
                workload.tree_q,
                executor="sharded",
                workers=3,
                reuse_handoff=mode,
            )
        assert requests == [(3, chained)]

    def test_distributed_reads_every_node_knob(self, monkeypatch):
        from repro.engine import JoinEngine
        from repro.engine import node as node_plane
        from repro.engine.faults import FaultPlan

        log = []
        monkeypatch.setattr(
            node_plane,
            "NodeProcess",
            lambda *args, **kwargs: _RecordingNode(log, False, *args, **kwargs),
        )
        plan = "crash@node-1:after=2"
        engine = JoinEngine()
        with _file_workload() as workload:
            engine.run(
                "nm",
                workload.tree_p,
                workload.tree_q,
                executor="distributed",
                nodes=4,
                node_timeout=12.0,
                node_min_ready=3,
                fault_plan=plan,
                reuse_handoff="never",
            )
        spawned = sorted(entry[1:] for entry in log if entry[0] == "spawn")
        node_one = FaultPlan.from_spec(plan).for_node("node-1")
        assert spawned == [
            ("node-0", False, []),
            ("node-1", False, node_one),
            ("node-2", False, []),
            ("node-3", False, []),
        ]
        assert {entry[2] for entry in log if entry[0] != "spawn"} == {12.0}
        report = engine.last_executor.last_run_report
        assert (report["nodes"], report["quorum"]) == (4, 3)
        assert report["faults_planned"] == plan

    def test_distributed_reads_node_retries(self, monkeypatch):
        """A unit that crashes every node it touches is tried exactly
        ``node_retries + 1`` times before the run aborts."""
        from repro.engine import JoinEngine
        from repro.engine import node as node_plane

        log = []
        monkeypatch.setattr(
            node_plane,
            "NodeProcess",
            lambda *args, **kwargs: _RecordingNode(log, True, *args, **kwargs),
        )
        with _file_workload() as workload:
            with pytest.raises(RuntimeError, match=r"max_attempts=2"):
                JoinEngine().run(
                    "nm",
                    workload.tree_p,
                    workload.tree_q,
                    executor="distributed",
                    nodes=3,
                    node_retries=1,
                )
        assert sum(1 for entry in log if entry[0] == "unit") == 2


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
