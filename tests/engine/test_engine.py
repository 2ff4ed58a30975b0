"""Unit tests for the JoinEngine: API, executors and deterministic merging."""

import pytest

from repro.datasets.synthetic import uniform_points
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import (
    EngineConfig,
    JoinEngine,
    ShardedExecutor,
    default_engine,
    executor_for,
)
from repro.join.fm_cij import fm_cij
from repro.join.nm_cij import nm_cij
from repro.join.pm_cij import pm_cij

POINTS_P = uniform_points(150, seed=201)
POINTS_Q = uniform_points(130, seed=202)


def make_workload(points_p=POINTS_P, points_q=POINTS_Q):
    return build_workload(
        WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
    )


def run(algorithm, **overrides):
    workload = make_workload()
    result = default_engine().run(
        algorithm,
        workload.tree_p,
        workload.tree_q,
        domain=workload.domain,
        **overrides,
    )
    return workload, result


class TestEngineAPI:
    def test_registered_algorithms(self):
        assert JoinEngine().algorithm_names() == ["brute", "fm", "nm", "pm"]

    def test_unknown_algorithm_rejected(self):
        workload = make_workload()
        with pytest.raises(ValueError, match="unknown algorithm"):
            default_engine().run("quantum", workload.tree_p, workload.tree_q)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            EngineConfig(executor="ray")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=0)
        with pytest.raises(ValueError):
            ShardedExecutor(EngineConfig(executor="sharded", workers=0))

    def test_mismatched_disks_rejected(self):
        workload_a = make_workload()
        workload_b = make_workload()
        with pytest.raises(ValueError, match="share one DiskManager"):
            default_engine().run("nm", workload_a.tree_p, workload_b.tree_q)

    def test_brute_cannot_be_sharded(self):
        workload = make_workload()
        with pytest.raises(ValueError, match="does not support sharded"):
            default_engine().run(
                "brute", workload.tree_p, workload.tree_q, executor="sharded"
            )

    def test_executor_factory(self):
        assert executor_for(EngineConfig()).name == "serial"
        sharded = executor_for(EngineConfig(executor="sharded", workers=5))
        assert sharded.name == "sharded"
        assert sharded.config.workers == 5

    def test_engine_result_carries_phase_stats(self):
        _, result = run("nm")
        assert result.cell_stats is not None and result.cell_stats.heap_pops > 0
        assert result.filter_stats is not None and result.filter_stats.heap_pops > 0


class TestSerialMatchesLegacyEntryPoints:
    @pytest.mark.parametrize(
        "algorithm,legacy", [("nm", nm_cij), ("pm", pm_cij), ("fm", fm_cij)]
    )
    def test_pairs_and_costs_match(self, algorithm, legacy):
        _, engine_result = run(algorithm)
        workload = make_workload()
        legacy_result = legacy(workload.tree_p, workload.tree_q, domain=workload.domain)
        assert engine_result.pairs == legacy_result.pairs
        assert (
            engine_result.stats.total_page_accesses
            == legacy_result.stats.total_page_accesses
        )
        assert engine_result.stats.algorithm == legacy_result.stats.algorithm


class TestShardedExecution:
    @pytest.mark.parametrize("workers", [3, 1])
    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_pairs_byte_identical_to_serial(self, algorithm, workers):
        _, serial = run(algorithm)
        _, sharded = run(algorithm, executor="sharded", workers=workers)
        assert sharded.pairs == serial.pairs  # list equality: order included

    @pytest.mark.parametrize("workers", [3, 1])
    def test_merged_counters_match_disk_counters(self, workers):
        """The engine's stats and the shared disk counters must agree even
        when workers charged their own forked counter copies."""
        workload, result = run("nm", executor="sharded", workers=workers)
        assert (
            result.stats.total_page_accesses
            == workload.disk.counters.page_accesses
        )

    def test_merged_stats_are_shard_sums(self):
        """Scalar statistics of the merged run equal the sum over shards;
        the filter/cell work is identical to serial because shard outputs
        never depend on shard boundaries."""
        _, serial = run("nm")
        _, sharded = run("nm", executor="sharded", workers=3)
        assert sharded.stats.cells_computed_q == serial.stats.cells_computed_q
        assert sharded.stats.filter_candidates == serial.stats.filter_candidates
        assert sharded.stats.filter_true_hits == serial.stats.filter_true_hits
        # Forked units are not chained: REUSE cannot carry cells across a
        # shard boundary, so the sharded run recomputes at least as many P
        # cells as the serial one.
        assert sharded.stats.cells_computed_p >= serial.stats.cells_computed_p
        assert (
            sharded.stats.cells_computed_p + sharded.stats.cells_reused_p
            == serial.stats.cells_computed_p + serial.stats.cells_reused_p
        )

    @pytest.mark.parametrize("workers", [3, 1])
    def test_progress_curve_is_monotone(self, workers):
        _, sharded = run("nm", executor="sharded", workers=workers)
        accesses = [s.page_accesses for s in sharded.stats.progress]
        pairs = [s.pairs_reported for s in sharded.stats.progress]
        assert accesses == sorted(accesses)
        assert pairs == sorted(pairs)
        assert pairs[-1] == len(sharded.pairs)

    def test_more_workers_than_leaves(self):
        workload = make_workload()
        result = default_engine().run(
            "nm",
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            executor="sharded",
            workers=10_000,
        )
        _, serial = run("nm")
        assert result.pairs == serial.pairs


class TestShardedFM:
    """FM-CIJ shards by top-level R'_P join partitions (the partitioned
    synchronous traversal); the merged output must be byte-identical to the
    serial coupled traversal."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_fm_sharded_matches_serial(self, workers):
        _, serial = run("fm")
        _, sharded = run("fm", executor="sharded", workers=workers)
        assert sharded.pairs == serial.pairs
        assert sharded.stats.mat_page_accesses == serial.stats.mat_page_accesses
        assert sharded.stats.cells_computed_p == serial.stats.cells_computed_p
        assert sharded.stats.cells_computed_q == serial.stats.cells_computed_q

    def test_fm_merged_counters_match_disk_counters(self):
        workload, result = run("fm", executor="sharded", workers=3)
        assert (
            result.stats.total_page_accesses
            == workload.disk.counters.page_accesses
        )

    def test_fm_more_workers_than_partitions(self):
        _, serial = run("fm")
        _, sharded = run("fm", executor="sharded", workers=10_000)
        assert sharded.pairs == serial.pairs


class TestReuseHandoff:
    """The REUSE buffer crosses unit boundaries only where nothing forks:
    ``workers=1`` runs the algorithm's serial join, which carries it across
    every leaf as in the paper.  More workers fork independent units, which
    recompute the cells REUSE would have carried (the distributed executor
    chains them instead; see ``test_distributed.py``)."""

    def test_handoff_restores_serial_reuse_accounting(self):
        _, serial = run("nm")
        _, sharded = run("nm", executor="sharded", workers=1)
        assert sharded.pairs == serial.pairs
        assert sharded.stats.cells_computed_p == serial.stats.cells_computed_p
        assert sharded.stats.cells_reused_p == serial.stats.cells_reused_p
        assert default_engine().last_executor.last_assignments is None

    def test_handoff_applies_to_single_worker_only(self):
        _, serial = run("nm")
        _, forked = run("nm", executor="sharded", workers=3)
        trace = default_engine().last_executor.last_assignments
        assert trace and all(worker.startswith("fork-") for worker in trace)
        assert forked.stats.cells_computed_p > serial.stats.cells_computed_p

    def test_handoff_noop_without_reuse(self):
        _, serial = run("nm", reuse_cells=False)
        _, sharded = run("nm", executor="sharded", workers=1, reuse_cells=False)
        assert sharded.pairs == serial.pairs
        assert sharded.stats.cells_reused_p == 0


class TestForkCountersIndependentOfWorkerCount:
    """Every forked unit starts from the dispatch-time buffer and charges
    its own counter copy, so how many workers pulled the units changes no
    counter: pages, cell and filter work, the progress curve, and the
    parent's buffer, which no worker's traffic reaches."""

    POINTS_P = uniform_points(600, seed=205)
    POINTS_Q = uniform_points(600, seed=206)

    def fingerprint(self, algorithm, workers):
        workload = make_workload(self.POINTS_P, self.POINTS_Q)
        result = default_engine().run(
            algorithm,
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            executor="sharded",
            workers=workers,
        )
        stats = result.stats
        return {
            "pairs": result.pairs,
            "mat_page_accesses": stats.mat_page_accesses,
            "join_page_accesses": stats.join_page_accesses,
            "cells_computed_p": stats.cells_computed_p,
            "cells_computed_q": stats.cells_computed_q,
            "cells_reused_p": stats.cells_reused_p,
            "filter_candidates": stats.filter_candidates,
            "filter_true_hits": stats.filter_true_hits,
            "progress": [(s.page_accesses, s.pairs_reported) for s in stats.progress],
            "cell_stats": vars(result.cell_stats),
            "filter_stats": vars(result.filter_stats),
            "disk_page_accesses": workload.disk.counters.page_accesses,
            "parent_buffer": workload.disk.buffer.contents(),
        }

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_counters_identical_at_2_3_and_7_workers(self, algorithm):
        two = self.fingerprint(algorithm, 2)
        assert self.fingerprint(algorithm, 3) == two
        assert self.fingerprint(algorithm, 7) == two

    def test_single_unit_runs_on_one_fork(self):
        workload = make_workload(POINTS_P, POINTS_Q[:5])
        assert workload.tree_q.leaf_count() == 1
        result = default_engine().run(
            "nm",
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            executor="sharded",
            workers=4,
        )
        trace = default_engine().last_executor.last_assignments
        assert list(trace.values()) == [[0]]
        serial = nm_cij(workload.tree_p, workload.tree_q, domain=workload.domain)
        assert result.pairs == serial.pairs


class TestReuseBufferRegression:
    def test_reuse_toggle_preserves_pairs_and_reuses_cells(self):
        """REUSE on/off must be invisible in the output while the on-run
        demonstrably serves cells from the buffer."""
        _, with_reuse = run("nm", reuse_cells=True)
        _, without_reuse = run("nm", reuse_cells=False)
        assert with_reuse.pairs == without_reuse.pairs
        assert with_reuse.stats.cells_reused_p > 0
        assert without_reuse.stats.cells_reused_p == 0
        assert (
            with_reuse.stats.cells_computed_p < without_reuse.stats.cells_computed_p
        )

    def test_reuse_works_within_shards(self):
        """A one-worker sharded run is the serial join, whose
        Hilbert-ordered leaves stay spatially close, so the REUSE buffer
        hits from leaf to leaf."""
        workload = make_workload(
            uniform_points(400, seed=203), uniform_points(400, seed=204)
        )
        assert workload.tree_q.leaf_count() >= 6
        sharded = default_engine().run(
            "nm",
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            executor="sharded",
            workers=1,
            reuse_cells=True,
        )
        assert sharded.stats.cells_reused_p > 0
