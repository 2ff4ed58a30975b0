"""Unit tests for the JoinEngine: API, executors and deterministic merging."""

import pytest

from repro.datasets.synthetic import uniform_points
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import (
    EngineConfig,
    JoinEngine,
    NMJoin,
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

    def test_unknown_handoff_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown reuse_handoff"):
            EngineConfig(reuse_handoff="sometimes")

    def test_custom_algorithm_registration(self):
        engine = JoinEngine()

        class Renamed(NMJoin):
            name = "nm-custom"
            display_name = "NM-CUSTOM"

        engine.register(Renamed())
        workload = make_workload()
        result = engine.run(
            "nm-custom", workload.tree_p, workload.tree_q, domain=workload.domain
        )
        assert result.stats.algorithm == "NM-CUSTOM"
        assert result.pairs

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

    def test_single_shard_reproduces_serial_costs(self):
        """One worker never forks: the in-process drain pulls every unit and
        the default handoff chains them, so even the REUSE-dependent cost
        counters match the serial run exactly."""
        _, serial = run("nm")
        _, sharded = run("nm", executor="sharded", workers=1)
        assert list(default_engine().last_executor.last_assignments) == ["inline-0"]
        assert sharded.pairs == serial.pairs
        assert sharded.stats.cells_computed_p == serial.stats.cells_computed_p
        assert sharded.stats.cells_reused_p == serial.stats.cells_reused_p
        assert (
            sharded.stats.total_page_accesses == serial.stats.total_page_accesses
        )

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
        _, sharded = run("nm", executor="sharded", workers=1, reuse_handoff="never")
        assert sharded.stats.cells_computed_q == serial.stats.cells_computed_q
        assert sharded.stats.filter_candidates == serial.stats.filter_candidates
        assert sharded.stats.filter_true_hits == serial.stats.filter_true_hits
        # Without the boundary handoff REUSE cannot carry cells across a
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
    """The shard-boundary REUSE handoff: shard k's final cell buffer seeds
    shard k+1, restoring the serial reuse chain."""

    @pytest.mark.parametrize("workers", [3, 1])
    def test_handoff_restores_serial_reuse_accounting(self, workers):
        _, serial = run("nm")
        _, sharded = run(
            "nm",
            executor="sharded",
            workers=workers,
            reuse_handoff="always",
        )
        assert sharded.pairs == serial.pairs
        assert sharded.stats.cells_computed_p == serial.stats.cells_computed_p
        assert sharded.stats.cells_reused_p == serial.stats.cells_reused_p

    def test_handoff_reduces_boundary_recomputation(self):
        """Cache-enabled sharded NM recomputes fewer P cells than the
        independent-shard run — down to exactly serial levels."""
        _, serial = run("nm")
        _, independent = run(
            "nm", executor="sharded", workers=1, reuse_handoff="never"
        )
        _, handoff = run(
            "nm", executor="sharded", workers=1, reuse_handoff="always"
        )
        assert handoff.stats.cells_computed_p == serial.stats.cells_computed_p
        assert independent.stats.cells_computed_p >= handoff.stats.cells_computed_p
        assert independent.pairs == handoff.pairs == serial.pairs

    def test_auto_handoff_applies_to_single_worker(self):
        """'auto' resolves from the configured worker count, not the
        runtime fork fallback, so results stay machine-independent:
        workers=1 gets the free sequential handoff, more workers keep
        independent parallel shards."""
        _, serial = run("nm")
        _, inline = run("nm", executor="sharded", workers=1)
        assert inline.stats.cells_computed_p == serial.stats.cells_computed_p
        _, forked = run("nm", executor="sharded", workers=3)
        trace = default_engine().last_executor.last_assignments
        assert trace and all(worker.startswith("fork-") for worker in trace)
        assert forked.stats.cells_computed_p >= serial.stats.cells_computed_p

    def test_handoff_noop_without_reuse(self):
        _, serial = run("nm", reuse_cells=False)
        _, sharded = run(
            "nm",
            executor="sharded",
            workers=1,
            reuse_handoff="always",
            reuse_cells=False,
        )
        assert sharded.pairs == serial.pairs
        assert sharded.stats.cells_reused_p == 0


class TestInlineShardIsolation:
    """The fork-less inline fallback must charge the same counters a forked
    execution would: every shard starts from the dispatch-time buffer state
    instead of inheriting the previous shard's warm pages."""

    def fingerprint(self, result):
        stats = result.stats
        return (
            stats.mat_page_accesses,
            stats.join_page_accesses,
            stats.cells_computed_p,
            stats.cells_computed_q,
            stats.cells_reused_p,
            stats.filter_candidates,
            stats.filter_true_hits,
            [(s.page_accesses, s.pairs_reported) for s in stats.progress],
        )

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_inline_counters_identical_to_fork(self, algorithm):
        _, forked = run(
            algorithm,
            executor="sharded",
            workers=3,
            reuse_handoff="never",
        )
        _, inline = run(
            algorithm,
            executor="sharded",
            workers=1,
            reuse_handoff="never",
        )
        assert inline.pairs == forked.pairs
        assert self.fingerprint(inline) == self.fingerprint(forked)

    def test_chained_handoff_counters_identical_across_pools(self):
        _, forked = run("nm", executor="sharded", workers=3, reuse_handoff="always")
        _, inline = run("nm", executor="sharded", workers=1, reuse_handoff="always")
        assert inline.pairs == forked.pairs
        assert self.fingerprint(inline) == self.fingerprint(forked)

    def test_parent_buffer_state_identical_to_fork(self):
        """A fork parent's buffer never sees worker traffic; after the fix
        the inline fallback leaves the shared buffer in the same
        dispatch-time state instead of whatever the last shard warmed it
        to — so the post-run buffer contents agree across worker counts."""
        contents = {}
        for workers in (3, 1):
            workload, _ = run("nm", executor="sharded", workers=workers,
                              reuse_handoff="never")
            contents[workers] = workload.disk.buffer.contents()
        assert contents[1] == contents[3]


class TestInProcessRule:
    """Where sharded units run is derived from the inputs, never configured:
    in-process for one worker, one unit or a platform without fork;
    otherwise on ``min(workers, units)`` forks."""

    @pytest.mark.parametrize(
        "workers, mode, chained",
        [(1, "auto", True), (3, "auto", False), (3, "always", True), (1, "never", False)],
    )
    def test_handoff_follows_the_configured_worker_count(self, workers, mode, chained):
        executor = ShardedExecutor(
            EngineConfig(executor="sharded", workers=workers, reuse_handoff=mode)
        )
        assert executor._handoff_enabled(NMJoin()) is chained

    def test_single_unit_never_forks(self):
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
        assert list(default_engine().last_executor.last_assignments) == ["inline-0"]
        serial = nm_cij(workload.tree_p, workload.tree_q, domain=workload.domain)
        assert result.pairs == serial.pairs

    def test_fork_fallback_keeps_the_configured_handoff(self, monkeypatch):
        """A platform that cannot fork runs the units in-process, but 'auto'
        still resolves from workers=3: no handoff, so the counters equal
        those of a real forked run."""
        _, forked = run("nm", executor="sharded", workers=3)
        monkeypatch.setattr(ShardedExecutor, "_make_fork_pool", lambda *args: None)
        _, fallback = run("nm", executor="sharded", workers=3)
        assert list(default_engine().last_executor.last_assignments) == ["inline-0"]
        assert fallback.pairs == forked.pairs
        assert fallback.stats.cells_computed_p == forked.stats.cells_computed_p
        assert fallback.stats.cells_reused_p == forked.stats.cells_reused_p


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
        """Hilbert-contiguous shards keep consecutive leaves spatially close,
        so the REUSE buffer still hits inside every shard (each shard spans
        several leaves on a workload this size)."""
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
