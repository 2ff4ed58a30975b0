"""EngineConfig's execution knobs: one flat record, wired straight through.

Every execution knob is a plain :class:`EngineConfig` field with its one
default and its one range check in ``__post_init__``; the executors are
built from the config they serve, so nothing is derived twice or kept in
sync.  These tests pin that surface, the removed options staying removed,
the config reaching the executors, and the merge absorbing each recorded
unit's byte delta once.
"""

from __future__ import annotations

import dataclasses
import math
import types

import pytest

from repro.engine.config import EngineConfig
from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats
from repro.voronoi.single import CellComputationStats
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
            "fault_plan",
            "reuse_cells",
            "use_phi_pruning",
            "domain",
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
            {"reuse_handoff": "always"},
            {"node_min_ready": 1},
            {"delta_candidates": "scan"},
        ],
    )
    def test_removed_knobs_raise_type_error(self, knob):
        with pytest.raises(TypeError):
            EngineConfig(**knob)

    @pytest.mark.parametrize(
        "module, name",
        [("repro.engine", "run_join"), ("repro.engine.config", "HANDOFF_MODES")],
    )
    def test_removed_names_are_gone(self, module, name):
        """Joins run through an engine (``default_engine().run``), and no
        handoff mode is left to list."""
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    def test_removed_knob_fails_common_influence_join_before_any_work(self, monkeypatch):
        """The wrapper builds its config first: an unknown knob raises
        ``TypeError`` before a single page is written."""
        import repro

        def no_workload(*args, **kwargs):
            raise AssertionError("the workload was built before the config")

        # The wrapper imports build_workload from repro.datasets on each call.
        monkeypatch.setattr("repro.datasets.build_workload", no_workload)
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

    def run_unit(self, assignment, await_carry, timeout=None):
        from repro.engine.coordinator import GIVE_WAY
        from repro.engine.node import NodeCrashed
        from repro.join.conditional_filter import FilterStats
        from repro.join.result import JoinStats
        from repro.storage.counters import IOCounters
        from repro.voronoi.single import CellComputationStats

        # Like a node: a chained unit waits for its carry (or gives way).
        if await_carry(assignment) is GIVE_WAY:
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

    @pytest.mark.parametrize("method, chained", [("nm", True), ("pm", False), ("fm", False)])
    def test_distributed_chains_the_carry_of_nm_only(self, monkeypatch, method, chained):
        """Nodes chain the REUSE carry from unit to unit for the algorithm
        that carries state (NM), and the node wire spec tells both ends
        the same rule.  A fork pool never chains: it records its results
        into an unchained coordinator."""
        from repro.engine import JoinEngine
        from repro.engine import executors as executors_module
        from repro.engine import node as node_plane

        coordinators = []

        class RecordingCoordinator(executors_module.UnitCoordinator):
            def __init__(self, units, chained=False, max_attempts=1):
                coordinators.append(chained)
                super().__init__(units, chained=chained, max_attempts=max_attempts)

        log = []
        monkeypatch.setattr(executors_module, "UnitCoordinator", RecordingCoordinator)
        monkeypatch.setattr(
            node_plane,
            "NodeProcess",
            lambda *args, **kwargs: _RecordingNode(log, False, *args, **kwargs),
        )
        with _file_workload() as workload:
            for executor in ("distributed", "sharded"):
                JoinEngine().run(
                    method, workload.tree_p, workload.tree_q, executor=executor
                )
        assert coordinators == [chained, False]
        assert {entry[2] for entry in log if entry[0] == "spawn"} == {chained}

    @pytest.mark.parametrize("workers", [1, 2, 3, 10_000])
    def test_sharded_pool_holds_min_of_workers_and_units(self, monkeypatch, workers):
        """``workers`` sizes the fork pool, capped by the unit count; one
        worker is the serial run and starts no pool."""
        import concurrent.futures

        from repro.engine import JoinEngine

        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        with _file_workload() as workload:
            units = workload.tree_q.leaf_count()
            JoinEngine().run(
                "pm", workload.tree_p, workload.tree_q, executor="sharded", workers=workers
            )
        assert sizes == ([min(workers, units)] if workers > 1 else [])

    def test_platform_without_fork_is_told_to_run_serial(self, monkeypatch):
        """More than one worker needs the ``fork`` start method; where it is
        missing the run fails and names the executor that needs no fork."""
        import multiprocessing

        from repro.engine import JoinEngine

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with _file_workload() as workload:
            with pytest.raises(ValueError, match="executor='serial'"):
                JoinEngine().run(
                    "nm", workload.tree_p, workload.tree_q, executor="sharded", workers=2
                )

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
                fault_plan=plan,
            )
        spawned = sorted(entry[1:] for entry in log if entry[0] == "spawn")
        node_one = FaultPlan.from_spec(plan).for_node("node-1")
        assert spawned == [
            ("node-0", True, []),
            ("node-1", True, node_one),
            ("node-2", True, []),
            ("node-3", True, []),
        ]
        assert {entry[2] for entry in log if entry[0] != "spawn"} == {12.0}
        report = engine.last_executor.last_run_report
        assert report["nodes"] == 4
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


class TestUnitByteDeltas:
    """A worker reports its store's bytes as a per-unit delta on the
    :class:`ShardResult`; the merge adds each recorded unit's delta to the
    parent's store once, and a duplicate result for a recorded unit (a
    retry finishing late) is dropped with everything else it carries."""

    @staticmethod
    def _result(index, bytes_read, bytes_written=0):
        from repro.storage.counters import IOCounters

        return ShardResult(
            index=index,
            pairs=[],
            stats=JoinStats(algorithm="NM-CIJ"),
            cell_stats=CellComputationStats(),
            filter_stats=FilterStats(),
            counters=IOCounters(),
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        )

    def test_merge_adds_each_recorded_delta_once(self):
        from repro.engine.coordinator import UnitCoordinator
        from repro.engine.units import WorkUnit

        with _file_workload() as workload:
            disk = workload.disk
            before = disk.storage_stats()
            coordinator = UnitCoordinator([WorkUnit("nm", i, (1,)) for i in (0, 1)])
            coordinator.record_result(0, self._result(0, 100, 7))
            coordinator.record_result(1, self._result(1, 40))
            coordinator.record_result(1, self._result(1, 999))  # late duplicate
            ctx = types.SimpleNamespace(
                disk=disk,
                stats=JoinStats(algorithm="NM-CIJ"),
                cell_stats=CellComputationStats(),
                filter_stats=FilterStats(),
            )
            coordinator.merge(ctx, 0)
            after = disk.storage_stats()
        assert (
            after.bytes_read - before.bytes_read,
            after.bytes_written - before.bytes_written,
        ) == (140, 7)
