"""Fault tolerance of the distributed tier, under deterministic injection.

Every test here follows one contract: whatever faults fire — nodes
crashing before or mid-unit, hanging past the timeout, dropping or
corrupting result lines, dying until one survivor remains, joining the
run late — the merged pairs and every deterministic ``JoinStats`` counter
are byte-identical to the serial run, or the run aborts loudly with a
``RuntimeError``.  There is no third outcome: no silent pair loss, no
deadlock, no zombie node interpreters.

Faults are *injected*, not awaited: a :class:`~repro.engine.faults.FaultPlan`
spec travels to each node inside its init message, so each scenario fires
the same fault at the same point on every run (see the spec grammar in
:mod:`repro.engine.faults`).

Timing-sensitive scenarios (hang detection races a real timeout;
late-join races a real readiness delay) are marked ``timing`` so CI can
quarantine them from the tier-1 legs without losing them.
"""

from __future__ import annotations

import gc
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import uniform_points
from repro.engine import DistributedExecutor, FaultPlan, default_engine
from repro.engine.faults import Fault
from repro.experiments.drivers.common import run_cij
from repro.join.result import CIJResult


def stats_fingerprint(result: CIJResult) -> dict:
    """Every deterministic JoinStats field (CPU timings excluded) — the
    same fingerprint the fault-free equivalence suite pins."""
    stats = result.stats
    return {
        "algorithm": stats.algorithm,
        "mat_page_accesses": stats.mat_page_accesses,
        "join_page_accesses": stats.join_page_accesses,
        "cells_computed_p": stats.cells_computed_p,
        "cells_computed_q": stats.cells_computed_q,
        "cells_reused_p": stats.cells_reused_p,
        "filter_candidates": stats.filter_candidates,
        "filter_true_hits": stats.filter_true_hits,
        "progress": [(s.page_accesses, s.pairs_reported) for s in stats.progress],
    }


POINTS_P = uniform_points(150, seed=3)
POINTS_Q = uniform_points(140, seed=11)

#: Backends a node subprocess can reopen (the distributed tier's domain).
ON_DISK_BACKENDS = ("file", "sqlite")

#: Serial baselines per (backend, algorithm), computed once.
_BASELINES: dict = {}


def serial_baseline(backend: str, algorithm: str) -> CIJResult:
    key = (backend, algorithm)
    if key not in _BASELINES:
        _BASELINES[key] = run_cij(algorithm, POINTS_P, POINTS_Q, storage=backend)
    return _BASELINES[key]


def run_distributed(backend: str, algorithm: str, **overrides) -> CIJResult:
    return run_cij(
        algorithm,
        POINTS_P,
        POINTS_Q,
        storage=backend,
        executor="distributed",
        **overrides,
    )


def assert_identical_to_serial(result: CIJResult, backend: str, algorithm: str):
    """Pairs byte-equal, every scalar counter byte-equal.

    Progress curves keep the serial pair milestones at shifted access
    offsets (the executor enumerates units up front), exactly as in the
    fault-free distributed equivalence suite — FM has no cross-unit state,
    so there even the curve matches.
    """
    serial = serial_baseline(backend, algorithm)
    assert result.pairs == serial.pairs
    result_fp = stats_fingerprint(result)
    serial_fp = stats_fingerprint(serial)
    if algorithm == "fm":
        assert result_fp == serial_fp
        return
    result_fp.pop("progress"), serial_fp.pop("progress")
    assert result_fp == serial_fp
    assert [s.pairs_reported for s in result.stats.progress] == [
        s.pairs_reported for s in serial.stats.progress
    ]


def last_executor() -> DistributedExecutor:
    executor = default_engine().last_executor
    assert isinstance(executor, DistributedExecutor)
    return executor


def assert_children_reaped(executor: DistributedExecutor) -> None:
    """Every node interpreter the run spawned has been waited on."""
    assert executor.node_pids, "run recorded no node pids"
    for worker_id, pid in executor.node_pids.items():
        with pytest.raises(ChildProcessError):
            # An unreaped child would return (0, 0) or (pid, status) here;
            # a reaped one is no longer our child at all.
            os.waitpid(pid, os.WNOHANG)


class TestFaultMatrix:
    """One scenario per failure mode, on both on-disk backends."""

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_crash_before_first_unit(self, backend):
        """A node that dies on its very first unit never contributes — the
        survivor re-runs the released unit and the merge is untouched."""
        result = run_distributed(
            backend, "pm", nodes=2, fault_plan="crash@node-1:after=0"
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "pm")
        assert list(executor.quarantined) == ["node-1"]
        assert "NodeCrashed" in executor.quarantined["node-1"]
        assert sum(executor.retries.values()) >= 1
        assert_children_reaped(executor)

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_crash_mid_unit_after_computing(self, backend):
        """phase=work: the node computes the unit, then dies before
        replying.  The result was never recorded, so the retry cannot
        double-charge — counters stay exactly serial.  FM's 16 partitions
        guarantee node-1 reaches a second unit whatever the pull race."""
        result = run_distributed(
            backend, "fm", nodes=2, fault_plan="crash@node-1:after=1,phase=work"
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "fm")
        assert executor.quarantined.get("node-1", "").startswith("NodeCrashed")
        assert sum(executor.retries.values()) >= 1
        assert_children_reaped(executor)

    @pytest.mark.timing
    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_crash_holding_nm_carry(self, backend):
        """The hardest release: a chained NM node dies mid-pipeline while
        holding the REUSE carry.  node-1's readiness delay plus the
        min-quorum start guarantee node-0 owns the opening units, crashes
        on unit 2 (computed, never replied), and node-1 — joining late —
        re-runs it from the *recorded* carry of unit 1."""
        result = run_distributed(
            backend,
            "nm",
            nodes=2,
            node_min_ready=1,
            fault_plan=(
                "crash@node-0:unit=2,phase=work;ready_delay@node-1:seconds=1.5"
            ),
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "nm")
        assert list(executor.quarantined) == ["node-0"]
        assert executor.retries.get(2) == 1
        assert_children_reaped(executor)

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_crash_while_waiting_for_the_carry(self, backend):
        """phase=carry: node-1 leases a chained NM unit, computes its leaf
        cells and filter, and dies waiting for the inbound carry.  The
        unit is released once the carry cannot be delivered, and node-0
        re-runs it from the recorded carry of its predecessor."""
        result = run_distributed(
            backend, "nm", nodes=2, fault_plan="crash@node-1:after=0,phase=carry"
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "nm")
        assert list(executor.quarantined) == ["node-1"]
        assert "NodeCrashed" in executor.quarantined["node-1"]
        assert sum(executor.retries.values()) == 1
        assert_children_reaped(executor)

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_predecessor_crash_while_sibling_waits(self, backend):
        """node-0 computes its first unit and dies before replying, while
        node-1 holds the next unit and waits for that unit's carry.  The
        waiting lease gives way (not a retry), and node-1 finishes the run
        alone from the released unit on, in index order."""
        result = run_distributed(
            backend, "nm", nodes=2, fault_plan="crash@node-0:after=0,phase=work"
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "nm")
        assert list(executor.quarantined) == ["node-0"]
        assert list(executor.retries.values()) == [1]
        (released,) = executor.retries
        report = executor.last_run_report
        assert report["gave_way"] == {released + 1: 1}
        units = 1 + max(max(trace) for trace in executor.last_assignments.values())
        survivor = executor.last_assignments["node-1"]
        assert survivor[survivor.index(released):] == list(range(released, units))
        assert_children_reaped(executor)

    @pytest.mark.timing
    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_hang_past_timeout_is_detected_and_retried(self, backend):
        """A hung node mutes its heartbeats too; the parent's silence
        deadline fires, the node is quarantined and its unit re-leased."""
        result = run_distributed(
            backend,
            "pm",
            nodes=2,
            node_timeout=1.0,
            fault_plan="hang@node-0:after=0",
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "pm")
        assert executor.quarantined.get("node-0", "").startswith("NodeTimeout")
        assert_children_reaped(executor)

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_all_nodes_but_one_die(self, backend):
        """Graceful degradation to a single survivor: two of three nodes
        crash on their first pull, the third runs the whole queue."""
        result = run_distributed(
            backend,
            "pm",
            nodes=3,
            fault_plan="crash@node-0:after=0;crash@node-2:after=0",
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "pm")
        assert sorted(executor.quarantined) == ["node-0", "node-2"]
        survivors = set(executor.last_assignments) - set(executor.quarantined)
        assert survivors == {"node-1"}
        assert_children_reaped(executor)

    @pytest.mark.timing
    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_late_joining_node_is_admitted_mid_run(self, backend):
        """min-quorum start: the run begins with one ready node; the
        delayed node is admitted into the pull loop when it comes up,
        instead of being a barrier the whole run waits behind."""
        result = run_distributed(
            backend,
            "fm",
            nodes=2,
            node_min_ready=1,
            fault_plan="ready_delay@node-1:seconds=0.6",
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "fm")
        assert executor.quarantined == {}
        # The punctual node must not have waited for the delayed one.
        assert executor.last_assignments.get("node-0")

    @pytest.mark.parametrize("backend", ON_DISK_BACKENDS)
    def test_dropped_and_corrupted_results_are_retried(self, backend):
        """A swallowed result surfaces as a timeout, a garbled line as a
        protocol error; both quarantine the node and re-lease the unit."""
        result = run_distributed(
            backend,
            "pm",
            nodes=3,
            node_timeout=1.0,
            fault_plan="drop@node-0:after=0;corrupt@node-1:after=0",
        )
        executor = last_executor()
        assert_identical_to_serial(result, backend, "pm")
        assert executor.quarantined.get("node-0", "").startswith("NodeTimeout")
        assert executor.quarantined.get("node-1", "").startswith(
            "NodeProtocolError"
        )

    def test_zero_survivors_aborts_loudly(self):
        with pytest.raises(RuntimeError, match="nodes failed"):
            run_distributed(
                "file",
                "pm",
                nodes=2,
                node_retries=5,
                fault_plan="crash@node-0:after=0;crash@node-1:after=0",
            )
        assert_children_reaped(last_executor())

    def test_poison_unit_aborts_after_max_attempts(self):
        """A unit that kills every node it touches must abort the run,
        not cycle through workers forever."""
        with pytest.raises(RuntimeError):
            run_distributed(
                "file",
                "pm",
                nodes=3,
                node_retries=1,  # max_attempts=2 < 3 nodes with the fault
                fault_plan=(
                    "crash@node-0:unit=0;crash@node-1:unit=0;crash@node-2:unit=0"
                ),
            )


class TestAbortPathProcessHygiene:
    """The known abort-path bug: a worker ``error`` reply used to raise
    straight through ``DistributedExecutor`` without draining the sibling
    nodes.  Both the restored abort path (``node_retries=0``) and the new
    retry path must reap every spawned interpreter and leak no
    descriptors."""

    def test_error_reply_with_no_retries_aborts_and_reaps_siblings(self):
        with pytest.raises(RuntimeError, match="unit .* failed"):
            run_distributed(
                "file",
                "pm",
                nodes=2,
                node_retries=0,
                fault_plan="error@node-0:after=0",
            )
        executor = last_executor()
        assert len(executor.node_pids) == 2
        assert_children_reaped(executor)

    def test_error_reply_with_retries_completes_and_reaps(self):
        result = run_distributed(
            "file", "pm", nodes=2, fault_plan="error@node-0:after=0"
        )
        executor = last_executor()
        assert_identical_to_serial(result, "file", "pm")
        assert executor.quarantined.get("node-0", "").startswith("NodeError")
        assert_children_reaped(executor)

    def test_fault_runs_do_not_leak_file_descriptors(self):
        """Descriptor census across repeated faulty runs: pipes, stderr
        temp files and backend handles are all closed, on the abort path
        and the retry path alike."""

        def faulty_run():
            run_distributed(
                "file", "pm", nodes=2, fault_plan="crash@node-1:after=0"
            )
            with pytest.raises(RuntimeError):
                run_distributed(
                    "file",
                    "pm",
                    nodes=2,
                    node_retries=0,
                    fault_plan="error@node-0:after=0",
                )

        faulty_run()  # warmup: lazy imports, interned caches
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(2):
            faulty_run()
        gc.collect()
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before, f"fd count grew {before} -> {after}"


#: Tiny workload for the randomized property: enough units to retry
#: across, small enough to run several examples in tier-1 time.
SMALL_P = uniform_points(90, seed=21)
SMALL_Q = uniform_points(80, seed=22)
_SMALL_SERIAL: dict = {}


def small_serial(algorithm: str) -> CIJResult:
    if algorithm not in _SMALL_SERIAL:
        _SMALL_SERIAL[algorithm] = run_cij(
            algorithm, SMALL_P, SMALL_Q, storage="file"
        )
    return _SMALL_SERIAL[algorithm]


class TestRandomFaultPlans:
    """Property: *any* seed-deterministic fault plan either completes with
    bytes identical to serial or aborts with a RuntimeError — and the
    chained NM pipeline never deadlocks on the way."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_plans_never_change_merged_bytes(self, seed):
        plan = FaultPlan.random(seed, nodes=2, count=2, max_after=2, unit_count=4)
        serial = small_serial("pm")
        try:
            result = run_cij(
                "pm",
                SMALL_P,
                SMALL_Q,
                storage="file",
                executor="distributed",
                nodes=2,
                node_timeout=1.0,
                fault_plan=plan.to_spec(),
            )
        except RuntimeError:
            return  # a loud abort (e.g. every node crashed) is a valid outcome
        assert result.pairs == serial.pairs
        assert stats_fingerprint(result) != {}  # fingerprint computable
        result_fp, serial_fp = stats_fingerprint(result), stats_fingerprint(serial)
        result_fp.pop("progress"), serial_fp.pop("progress")
        assert result_fp == serial_fp

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_plans_do_not_deadlock_chained_nm(self, seed):
        """The chained carry pipeline is where a lost lease would hang the
        whole run; random crashes against it must always terminate."""
        plan = FaultPlan.random(seed, nodes=2, count=2, max_after=2, unit_count=4)
        serial = small_serial("nm")
        try:
            result = run_cij(
                "nm",
                SMALL_P,
                SMALL_Q,
                storage="file",
                executor="distributed",
                nodes=2,
                node_timeout=1.0,
                fault_plan=plan.to_spec(),
            )
        except RuntimeError:
            return
        assert result.pairs == serial.pairs

    def test_random_plan_generation_is_deterministic(self):
        for seed in (0, 7, 4242):
            a = FaultPlan.random(seed, nodes=3, count=3, unit_count=8)
            b = FaultPlan.random(seed, nodes=3, count=3, unit_count=8)
            assert a == b
            assert FaultPlan.from_spec(a.to_spec()) == a

    def test_spec_round_trip_examples(self):
        specs = [
            "crash@node-1:after=2",
            "crash@node-1:after=2,phase=work",
            "hang@node-0:unit=3",
            "drop@node-0:after=0",
            "corrupt@node-0:after=1",
            "error@node-0:after=0",
            "ready_delay@node-1:seconds=0.5",
        ]
        plan = FaultPlan.from_spec(";".join(specs))
        assert len(plan.faults) == len(specs)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_bad_specs_rejected(self):
        for spec in ("", "explode@node-0", "crash@", "crash@node-0:bogus",
                     "crash@node-0:after=-1", "crash@node-0:phase=sideways"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(spec)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meltdown", "node-0")
