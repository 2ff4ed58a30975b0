"""The distributed execution tier: units, coordinator, wire, nodes.

Covers the three planes the tier is built from —

* the :class:`WorkUnit` descriptors every sharding algorithm enumerates
  (serializable, ordered, wire-round-trippable);
* the pull-based :class:`UnitCoordinator` (on-demand handout = work
  stealing under skew, carry pipeline in chained mode, ordered merge);
* the node plane (:mod:`repro.engine.node`): wire codecs that round-trip
  statistics and the REUSE carry bit-for-bit, and real node subprocesses
  driven through the NDJSON protocol, including a forced steal where a
  deliberately slowed node cedes the queue to the fast one, and the REUSE
  chain they run, checked against serial and the fork pool.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets.synthetic import uniform_points
from repro.engine import (
    Assignment,
    DistributedExecutor,
    EngineConfig,
    JoinEngine,
    UnitCoordinator,
    WorkUnit,
    default_algorithms,
)
from repro.engine import node as node_plane
from repro.engine.coordinator import GIVE_WAY
from repro.engine.algorithms import JoinContext
from repro.experiments.drivers.common import fresh_workload
from repro.geometry import ConvexPolygon, Point
from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats
from repro.storage.counters import IOCounters
from repro.voronoi import VoronoiCell

POINTS_P = uniform_points(150, seed=3)
POINTS_Q = uniform_points(140, seed=11)


def make_units(count: int):
    return [
        WorkUnit(algorithm="nm", index=i, payload=(100 + i,)) for i in range(count)
    ]


class FakeResult:
    """Just enough of a ShardResult for coordinator-level tests."""

    def __init__(self, index: int, carry=None):
        self.index = index
        self.carry = carry


class TestWorkUnit:
    def test_wire_round_trip(self):
        unit = WorkUnit(algorithm="fm", index=3, payload=((4, 9), (6, 12)))
        assert WorkUnit.from_wire(unit.to_wire()) == unit

    def test_wire_form_names_only_the_unit(self):
        """Whether units chain is the executor's per-run decision, so the
        unit's wire form carries no chain flag."""
        wire = WorkUnit(algorithm="nm", index=2, payload=(17,)).to_wire()
        assert wire == {"algorithm": "nm", "index": 2, "payload": [17]}

    def test_wire_round_trip_scalar_payload(self):
        unit = WorkUnit(algorithm="nm", index=0, payload=(17,))
        restored = WorkUnit.from_wire(unit.to_wire())
        assert restored == unit
        assert restored.payload == (17,)

    def test_units_order_by_index(self):
        units = make_units(5)
        assert sorted(units[::-1]) == units


class TestUnitCoordinator:
    def test_pull_order_and_trace(self):
        coordinator = UnitCoordinator(make_units(3))
        first = coordinator.next_assignment("a")
        second = coordinator.next_assignment("b")
        third = coordinator.next_assignment("a")
        assert (first.index, second.index, third.index) == (0, 1, 2)
        for assignment in (first, second, third):
            coordinator.record_result(assignment.index, FakeResult(assignment.index))
        # Every result recorded -> the queue reports completion, not a block.
        assert coordinator.next_assignment("b") is None
        assert coordinator.assignments == {"a": [0, 2], "b": [1]}

    def test_merge_requires_every_result(self):
        coordinator = UnitCoordinator(make_units(2))
        coordinator.next_assignment("a")
        coordinator.record_result(0, FakeResult(0))
        with pytest.raises(RuntimeError, match="missing results"):
            coordinator.results_in_order()

    def test_results_ordered_by_unit_not_by_arrival(self):
        coordinator = UnitCoordinator(make_units(3))
        for _ in range(3):
            coordinator.next_assignment("a")
        for index in (2, 0, 1):  # out-of-order arrival
            coordinator.record_result(index, FakeResult(index))
        assert [r.index for r in coordinator.results_in_order()] == [0, 1, 2]

    def test_chained_mode_is_a_pipeline(self):
        coordinator = UnitCoordinator(make_units(3), chained=True)
        first = coordinator.next_assignment("a")
        assert coordinator.await_carry(first) is None

        # Unit 1 is leased at once, while unit 0 is still outstanding ...
        second = coordinator.next_assignment("b")
        assert second.index == 1
        assert coordinator.outstanding() == 2

        handed = []

        def await_second():
            handed.append(coordinator.await_carry(second))

        thread = threading.Thread(target=await_second)
        thread.start()
        thread.join(timeout=0.2)
        # ... but its carry is not available until unit 0's result is.
        assert thread.is_alive()

        coordinator.record_result(0, FakeResult(0, carry={"cells": 7}))
        thread.join(timeout=5)
        assert not thread.is_alive()
        # The successor's carry is the predecessor's recorded carry.
        assert handed == [{"cells": 7}]

    def test_abort_unblocks_chained_waiters(self):
        coordinator = UnitCoordinator(make_units(2), chained=True)
        coordinator.next_assignment("a")  # leaves unit 0 outstanding
        handed = []

        def blocked_puller():
            # A worker's loop: unit 1 is leased at once and its carry wait
            # blocks on unit 0; the abort turns it into a give-way, and the
            # next pull ends the worker.
            while True:
                assignment = coordinator.next_assignment("b")
                if assignment is None or coordinator.await_carry(assignment) is not GIVE_WAY:
                    handed.append(assignment)
                    return

        thread = threading.Thread(target=blocked_puller)
        thread.start()
        coordinator.abort(RuntimeError("node died"))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert handed == [None]
        assert isinstance(coordinator.error, RuntimeError)

    def test_work_stealing_under_a_stuck_worker(self):
        """A worker that stops pulling simply stops receiving units — the
        others drain the whole queue without any stealing protocol."""
        coordinator = UnitCoordinator(make_units(6))
        stuck = coordinator.next_assignment("stuck")
        assert stuck.index == 0
        drained = []
        while len(drained) < 5:
            assignment = coordinator.next_assignment("fast")
            drained.append(assignment.index)
            coordinator.record_result(assignment.index, FakeResult(assignment.index))
        assert drained == [1, 2, 3, 4, 5]
        assert coordinator.assignments == {"stuck": [0], "fast": drained}
        # The stuck worker's unit is still leased, not lost: the queue is
        # not done, and recording it completes the run.
        assert not coordinator.done
        assert coordinator.outstanding() == 1
        coordinator.record_result(0, FakeResult(0))
        assert coordinator.next_assignment("fast") is None

    def test_release_returns_lease_to_the_queue(self):
        coordinator = UnitCoordinator(make_units(2), max_attempts=2)
        first = coordinator.next_assignment("dying")
        assert (first.index, first.attempt) == (0, 1)
        coordinator.release(0, error=RuntimeError("node died"))
        retry = coordinator.next_assignment("survivor")
        # The released unit comes back before unit 1 (index order) and its
        # attempt counter shows the retry.
        assert (retry.index, retry.attempt) == (0, 2)
        assert coordinator.reassignments == {0: 1}

    def test_release_blocked_puller_gets_the_returned_unit(self):
        """A puller blocked on an empty-but-leased queue wakes up when the
        lease is released — the elasticity deadlock this layer prevents."""
        coordinator = UnitCoordinator(make_units(1), max_attempts=2)
        coordinator.next_assignment("dying")
        handed = []

        def blocked_puller():
            handed.append(coordinator.next_assignment("survivor"))

        thread = threading.Thread(target=blocked_puller)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # queue empty, lease outstanding -> blocks
        coordinator.release(0, error=RuntimeError("node died"))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert handed[0].index == 0

    def test_release_past_max_attempts_aborts(self):
        coordinator = UnitCoordinator(make_units(1), max_attempts=2)
        coordinator.next_assignment("a")
        coordinator.release(0, error=RuntimeError("first failure"))
        coordinator.next_assignment("b")
        coordinator.release(0, error=RuntimeError("second failure"))
        assert coordinator.error is not None
        assert "max_attempts" in str(coordinator.error)
        assert coordinator.next_assignment("c") is None

    def test_duplicate_result_is_idempotently_dropped(self):
        coordinator = UnitCoordinator(make_units(1), max_attempts=3)
        coordinator.next_assignment("slow")
        coordinator.release(0, error=RuntimeError("presumed dead"))
        coordinator.next_assignment("fast")
        winner = FakeResult(0)
        coordinator.record_result(0, winner)
        coordinator.record_result(0, FakeResult(0))  # the late duplicate
        assert coordinator.results_in_order() == [winner]

    def test_release_after_result_is_a_no_op(self):
        coordinator = UnitCoordinator(make_units(1), max_attempts=1)
        coordinator.next_assignment("a")
        coordinator.record_result(0, FakeResult(0))
        # A stale release (executor noticed the death late) must not
        # resurrect or abort an already-completed unit.
        coordinator.release(0, error=RuntimeError("stale"))
        assert coordinator.error is None
        assert coordinator.next_assignment("b") is None

    def test_chained_release_rewinds_to_predecessor_carry(self):
        coordinator = UnitCoordinator(
            make_units(3), chained=True, max_attempts=2
        )
        first = coordinator.next_assignment("a")
        coordinator.record_result(0, FakeResult(0, carry={"cells": 1}))
        second = coordinator.next_assignment("a")
        assert second.index == 1
        assert coordinator.await_carry(second) == {"cells": 1}
        # Unit 1's worker dies mid-compute; the retry must re-run from the
        # recorded carry of unit 0, not from whatever was live.
        coordinator.release(1, error=RuntimeError("node died"))
        retry = coordinator.next_assignment("b")
        assert (retry.index, retry.attempt) == (1, 2)
        assert coordinator.await_carry(retry) == {"cells": 1}
        assert coordinator.await_carry(first) is None

    def test_chained_release_of_first_unit_rewinds_to_none(self):
        coordinator = UnitCoordinator(
            make_units(2), chained=True, max_attempts=2
        )
        coordinator.next_assignment("a")
        coordinator.release(0, error=RuntimeError("node died"))
        retry = coordinator.next_assignment("b")
        assert retry.index == 0
        assert coordinator.await_carry(retry) is None

    @pytest.mark.parametrize("released", [0, 1])
    def test_release_rewinds_successor_carry(self, released):
        """Releasing unit k makes the waiting unit k+1 give way; the re-run
        of k starts from k-1's recorded carry (None for k = 0), and k+1's
        carry is then k's new result."""
        coordinator = UnitCoordinator(
            make_units(3), chained=True, max_attempts=2
        )
        if released == 1:
            zero = coordinator.next_assignment("a")
            coordinator.record_result(0, FakeResult(0, carry={"cells": 0}))
        held = coordinator.next_assignment("a")
        waiting = coordinator.next_assignment("b")
        assert (held.index, waiting.index) == (released, released + 1)
        coordinator.release(released, error=RuntimeError("node died"))
        assert coordinator.await_carry(waiting) is GIVE_WAY
        retry = coordinator.next_assignment("b")
        assert (retry.index, retry.attempt) == (released, 2)
        expected = None if released == 0 else {"cells": 0}
        assert coordinator.await_carry(retry) == expected
        coordinator.record_result(released, FakeResult(released, carry={"cells": 9}))
        again = coordinator.next_assignment("b")
        assert again.index == released + 1
        assert coordinator.await_carry(again) == {"cells": 9}
        assert coordinator.gave_way == {released + 1: 1}
        if released == 1:
            assert coordinator.await_carry(zero) is None

    def test_last_worker_gives_way_and_finishes_in_order(self):
        """Node A dies holding unit 0 while node B waits for its carry: B
        gives way, then runs the whole queue alone, in index order."""
        coordinator = UnitCoordinator(
            make_units(4), chained=True, max_attempts=2
        )
        coordinator.next_assignment("a")
        outcome = []

        def worker_b():
            while True:
                assignment = coordinator.next_assignment("b")
                if assignment is None:
                    return
                carry = coordinator.await_carry(assignment)
                if carry is GIVE_WAY:
                    outcome.append(("gave way", assignment.index))
                    continue
                outcome.append((assignment.index, carry))
                coordinator.record_result(
                    assignment.index,
                    FakeResult(assignment.index, carry=assignment.index),
                )

        thread = threading.Thread(target=worker_b)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # B holds unit 1, waiting on unit 0
        coordinator.release(0, error=RuntimeError("node A died"))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome == [("gave way", 1), (0, None), (1, 0), (2, 1), (3, 2)]
        assert coordinator.assignments == {"a": [0], "b": [1, 0, 1, 2, 3]}
        assert coordinator.reassignments == {0: 1}
        assert [r.index for r in coordinator.results_in_order()] == [0, 1, 2, 3]

    def test_give_way_does_not_use_up_an_attempt(self):
        """A lease that gives way is not a failed attempt: the unit keeps
        its whole retry budget.  (With ``max_attempts=1`` the predecessor's
        release already aborts the run, so no lease can give way there;
        two attempts is the smallest budget where giving way can happen.)"""
        coordinator = UnitCoordinator(
            make_units(2), chained=True, max_attempts=2
        )
        coordinator.next_assignment("a")
        waiting = coordinator.next_assignment("b")
        coordinator.release(0, error=RuntimeError("node died"))
        assert coordinator.await_carry(waiting) is GIVE_WAY
        assert coordinator.reassignments == {0: 1}
        zero = coordinator.next_assignment("b")
        coordinator.record_result(0, FakeResult(0, carry={"cells": 3}))
        one = coordinator.next_assignment("b")
        assert (zero.index, zero.attempt) == (0, 2)
        # Unit 1's re-lease is still its first attempt, so one real
        # failure of it is retried instead of aborting the run.
        assert (one.index, one.attempt) == (1, 1)
        assert coordinator.await_carry(one) == {"cells": 3}
        coordinator.release(1, error=RuntimeError("node died"))
        assert coordinator.error is None
        retry = coordinator.next_assignment("b")
        assert (retry.index, retry.attempt) == (1, 2)

    def test_chained_stress_with_failures_keeps_the_carry_chain(self):
        """More worker threads than cores, a tiny switch interval and
        seeded failures: every unit still runs from exactly its recorded
        predecessor's carry, and the run completes (no lost wake-up)."""
        import random
        import sys

        units = 40
        coordinator = UnitCoordinator(
            make_units(units), chained=True, max_attempts=100
        )
        inbound = {}

        def worker(name, seed):
            rng = random.Random(seed)
            while True:
                assignment = coordinator.next_assignment(name)
                if assignment is None:
                    return
                carry = coordinator.await_carry(assignment)
                if carry is GIVE_WAY:
                    continue
                if rng.random() < 0.2:
                    coordinator.release(assignment.index, RuntimeError("flaky"))
                    continue
                inbound[assignment.index] = carry
                coordinator.record_result(
                    assignment.index,
                    FakeResult(assignment.index, carry=("out", assignment.index)),
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(f"w{i}", i)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert coordinator.error is None
        assert [r.index for r in coordinator.results_in_order()] == list(range(units))
        assert inbound == {
            k: (None if k == 0 else ("out", k - 1)) for k in range(units)
        }
        assert coordinator.outstanding() == 0

    def test_give_way_with_a_single_attempt_aborts_instead(self):
        """With ``max_attempts=1`` a released predecessor aborts the run;
        the waiting lease is unblocked by the abort, not re-queued."""
        coordinator = UnitCoordinator(
            make_units(2), chained=True, max_attempts=1
        )
        coordinator.next_assignment("a")
        waiting = coordinator.next_assignment("b")
        coordinator.release(0, error=RuntimeError("node died"))
        assert coordinator.await_carry(waiting) is GIVE_WAY
        assert coordinator.gave_way == {}
        assert "max_attempts=1" in str(coordinator.error)
        assert coordinator.next_assignment("b") is None


def triangle_cell(oid: int) -> VoronoiCell:
    polygon = ConvexPolygon(
        [Point(0.125, 0.25), Point(10.5, 0.75), Point(5.0625, 9.875)]
    )
    return VoronoiCell(oid, Point(5.03125, 3.4375), polygon)


class TestWireCodecs:
    def test_stats_round_trip(self):
        stats = JoinStats(algorithm="NM-CIJ")
        stats.join_page_accesses = 41
        stats.cells_computed_p = 17
        stats.cells_reused_p = 5
        stats.filter_candidates = 99
        stats.filter_true_hits = 88
        stats.record_progress(10, 100)
        stats.record_progress(20, 250)
        restored = node_plane.stats_from_wire(node_plane.stats_to_wire(stats))
        assert restored == stats

    def test_counters_round_trip(self):
        counters = IOCounters()
        counters.reads = 12
        counters.writes = 3
        counters.logical_reads = 40
        counters.buffer_hits = 28
        counters.by_tag = {"tree_p": 7, "tree_q": 5}
        restored = node_plane.counters_from_wire(node_plane.counters_to_wire(counters))
        assert restored.reads == counters.reads
        assert restored.writes == counters.writes
        assert restored.logical_reads == counters.logical_reads
        assert restored.buffer_hits == counters.buffer_hits
        assert restored.by_tag == counters.by_tag

    def test_carry_round_trip_bit_for_bit(self):
        carry = {4: triangle_cell(4), 9: triangle_cell(9)}
        restored = node_plane.carry_from_wire(node_plane.carry_to_wire(carry))
        assert sorted(restored) == [4, 9]
        for oid, cell in carry.items():
            twin = restored[oid]
            assert twin.oid == oid
            assert (twin.site.x, twin.site.y) == (cell.site.x, cell.site.y)
            assert [(v.x, v.y) for v in twin.polygon.vertices] == [
                (v.x, v.y) for v in cell.polygon.vertices
            ]

    def test_none_carry_round_trips(self):
        assert node_plane.carry_to_wire(None) is None
        assert node_plane.carry_from_wire(None) is None


def execute_distributed(executor: DistributedExecutor, workload, algorithm="nm"):
    """Drive the executor directly (as the engine would) on a workload."""
    from repro.voronoi.single import CellComputationStats

    algo = {a.name: a for a in default_algorithms()}[algorithm]
    config = executor.config
    ctx = JoinContext(
        tree_p=workload.tree_p,
        tree_q=workload.tree_q,
        domain=workload.domain,
        config=config,
        stats=JoinStats(algorithm=algo.display_name),
        cell_stats=CellComputationStats(),
        filter_stats=FilterStats(),
        start_counters=workload.disk.counters.snapshot(),
    )
    algo.prepare(ctx)  # a no-op for NM; keeps the call shape honest
    pairs = executor.execute(algo, ctx)
    return pairs, ctx


class TestDistributedExecutor:
    def test_forced_steal_with_a_slow_node(self):
        """Slowing node-0 makes node-1 drain the queue — the pull loop *is*
        the work-stealing behaviour — while the merged pairs stay identical
        to a run with no delay at all.  PM's units carry nothing, so no
        unit waits for its predecessor's REUSE buffer."""
        workload = fresh_workload(POINTS_P, POINTS_Q, storage="file")
        try:
            fair = DistributedExecutor(EngineConfig(executor="distributed", nodes=2))
            fair_pairs, _ = execute_distributed(fair, workload, algorithm="pm")
        finally:
            workload.close()

        workload = fresh_workload(POINTS_P, POINTS_Q, storage="file")
        try:
            skewed = DistributedExecutor(
                EngineConfig(executor="distributed", nodes=2),
                node_delays=[0.25, 0.0],
            )
            skewed_pairs, _ = execute_distributed(skewed, workload, algorithm="pm")
        finally:
            workload.close()

        assert skewed_pairs == fair_pairs
        counts = {w: len(ids) for w, ids in skewed.last_assignments.items()}
        assert set(counts) == {"node-0", "node-1"}
        # Every node pulls its first unit immediately; after that the
        # sleeping node keeps losing the race for the queue.
        assert counts["node-1"] > counts["node-0"]
        total = sum(counts.values())
        assert sorted(
            i for ids in skewed.last_assignments.values() for i in ids
        ) == list(range(total))

    def test_single_node_runs_whole_queue(self):
        workload = fresh_workload(POINTS_P, POINTS_Q, storage="sqlite")
        try:
            executor = DistributedExecutor(EngineConfig(executor="distributed", nodes=1))
            pairs, ctx = execute_distributed(executor, workload)
        finally:
            workload.close()
        assert pairs
        assert list(executor.last_assignments) == ["node-0"]
        # Node counters were absorbed into the parent's disk accounting.
        assert ctx.stats is not None

    def test_more_nodes_than_units_spawns_only_needed(self):
        workload = fresh_workload(POINTS_P[:30], POINTS_Q[:30], storage="file")
        try:
            executor = DistributedExecutor(EngineConfig(executor="distributed", nodes=16))
            pairs, _ = execute_distributed(executor, workload)
        finally:
            workload.close()
        assert pairs
        assert len(executor.last_assignments) <= 16

    def test_rejects_brute(self):
        # The engine owns the shardable check: it rejects the unit-less
        # oracle before MAT, before any node is spawned.
        workload = fresh_workload(POINTS_P[:30], POINTS_Q[:30], storage="file")
        try:
            with pytest.raises(ValueError, match="does not support distributed"):
                JoinEngine().run(
                    "brute",
                    workload.tree_p,
                    workload.tree_q,
                    executor="distributed",
                    nodes=2,
                )
        finally:
            workload.close()

    def test_rejects_memory_backend(self):
        workload = fresh_workload(POINTS_P[:30], POINTS_Q[:30], storage="memory")
        try:
            with pytest.raises(ValueError, match="shared backend"):
                execute_distributed(
                    DistributedExecutor(EngineConfig(executor="distributed", nodes=2)),
                    workload,
                )
        finally:
            workload.close()

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            DistributedExecutor(EngineConfig(executor="distributed", nodes=0))
        with pytest.raises(ValueError, match="nodes"):
            EngineConfig(nodes=0)


class TestReuseChainOnNodes:
    """A distributed NM chains the REUSE carry: unit k's final buffer seeds
    unit k+1 on whichever node runs it, so every counter equals the serial
    run's except the progress curve, which a parallel run offsets by the
    unit enumeration it charges first.  A fork pool's units stay
    independent and recompute the boundary cells."""

    FIELDS = (
        "mat_page_accesses",
        "join_page_accesses",
        "cells_computed_p",
        "cells_computed_q",
        "cells_reused_p",
        "filter_candidates",
        "filter_true_hits",
    )

    @staticmethod
    def run(**overrides):
        workload = fresh_workload(POINTS_P, POINTS_Q, storage="file")
        try:
            return JoinEngine().run(
                "nm",
                workload.tree_p,
                workload.tree_q,
                domain=workload.domain,
                **overrides,
            )
        finally:
            workload.close()

    def test_chain_matches_serial_except_progress(self):
        serial = self.run()
        chained = self.run(executor="distributed", nodes=2)
        assert chained.pairs == serial.pairs
        for counter in self.FIELDS:
            assert getattr(chained.stats, counter) == getattr(serial.stats, counter)
        assert vars(chained.cell_stats) == vars(serial.cell_stats)
        assert vars(chained.filter_stats) == vars(serial.filter_stats)
        assert [s.pairs_reported for s in chained.stats.progress] == [
            s.pairs_reported for s in serial.stats.progress
        ]
        first_pair = chained.stats.progress[0].page_accesses
        assert first_pair > serial.stats.progress[0].page_accesses

    def test_chain_closes_the_fork_recomputation_gap(self):
        serial = self.run()
        chained = self.run(executor="distributed", nodes=2)
        forked = self.run(executor="sharded", workers=3)
        assert forked.pairs == chained.pairs == serial.pairs
        assert chained.stats.cells_computed_p == serial.stats.cells_computed_p
        assert forked.stats.cells_computed_p > chained.stats.cells_computed_p


class TestNodeProtocol:
    def test_bad_init_spec_surfaces_as_runtime_error(self):
        spec = {"version": 999, "algorithm": "nm"}
        node = node_plane.NodeProcess(worker_id="node-x", spec=spec)
        try:
            with pytest.raises(RuntimeError):
                node.wait_ready()
        finally:
            node.shutdown()

    def test_node_executes_units_and_round_trips_results(self):
        workload = fresh_workload(POINTS_P[:60], POINTS_Q[:60], storage="file")
        try:
            algo = {a.name: a for a in default_algorithms()}["nm"]
            from repro.voronoi.single import CellComputationStats

            config = EngineConfig(executor="distributed", nodes=1)
            ctx = JoinContext(
                tree_p=workload.tree_p,
                tree_q=workload.tree_q,
                domain=workload.domain,
                config=config,
                stats=JoinStats(algorithm=algo.display_name),
                cell_stats=CellComputationStats(),
                filter_stats=FilterStats(),
                start_counters=workload.disk.counters.snapshot(),
            )
            units = algo.work_units(ctx)
            assert units, "workload produced no leaf units"
            spec = node_plane.node_init_spec(algo, ctx)
            node = node_plane.NodeProcess(worker_id="node-t", spec=spec)
            try:
                node.wait_ready()
                carry = None
                results = []
                for unit in units:
                    result = node.run_unit(
                        Assignment(index=unit.index, unit=unit),
                        await_carry=lambda _assignment: carry,
                    )
                    carry = result.carry
                    results.append(result)
            finally:
                node.shutdown()
            merged = [pair for result in results for pair in result.pairs]
            serial_ctx_pairs = algo.run_join(ctx)
            assert merged == serial_ctx_pairs
        finally:
            workload.close()
