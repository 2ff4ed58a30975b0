"""Correctness tests for FM-CIJ, PM-CIJ and NM-CIJ against the oracle."""

import pytest

from repro.datasets.synthetic import DOMAIN, clustered_points, gaussian_points, uniform_points
from repro.datasets.workload import WorkloadConfig, build_workload
from tests.oracles import brute_force_cij_pairs
from repro.join.fm_cij import fm_cij
from repro.join.lower_bound import lower_bound_io
from repro.join.nm_cij import nm_cij
from repro.join.pm_cij import pm_cij

ALGORITHMS = {"FM-CIJ": fm_cij, "PM-CIJ": pm_cij, "NM-CIJ": nm_cij}


def run_all(points_p, points_q, buffer_fraction=0.05, **kwargs_by_algo):
    """Run the three algorithms on fresh workloads; return name -> result."""
    results = {}
    for name, algorithm in ALGORITHMS.items():
        workload = build_workload(
            WorkloadConfig(buffer_fraction=buffer_fraction),
            points_p=points_p,
            points_q=points_q,
        )
        results[name] = algorithm(
            workload.tree_p, workload.tree_q, domain=workload.domain,
            **kwargs_by_algo.get(name, {}),
        )
    return results


DATASET_CASES = [
    pytest.param(uniform_points(70, seed=141), uniform_points(60, seed=142), id="uniform"),
    pytest.param(clustered_points(65, clusters=4, seed=143), uniform_points(55, seed=144), id="clustered-vs-uniform"),
    pytest.param(gaussian_points(50, seed=145), gaussian_points(60, seed=146, spread_fraction=0.3), id="gaussian"),
    pytest.param(uniform_points(90, seed=147), uniform_points(25, seed=148), id="asymmetric-cardinality"),
    pytest.param(uniform_points(8, seed=149), uniform_points(6, seed=150), id="tiny"),
]


class TestAlgorithmsMatchOracle:
    @pytest.mark.parametrize("points_p,points_q", DATASET_CASES)
    def test_all_three_match_brute_force(self, points_p, points_q):
        oracle = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        for name, result in run_all(points_p, points_q).items():
            assert result.pair_set() == oracle, f"{name} disagrees with the oracle"

    def test_single_point_inputs(self):
        points_p = [uniform_points(1, seed=151)[0]]
        points_q = [uniform_points(1, seed=152)[0]]
        for name, result in run_all(points_p, points_q).items():
            assert result.pair_set() == {(0, 0)}, name

    def test_identical_pointsets_join_each_point_with_itself(self):
        points = uniform_points(40, seed=153)
        for name, result in run_all(points, points).items():
            pairs = result.pair_set()
            assert all((i, i) in pairs for i in range(len(points))), name

    def test_no_duplicate_pairs_reported(self):
        points_p = uniform_points(60, seed=154)
        points_q = uniform_points(60, seed=155)
        for name, result in run_all(points_p, points_q).items():
            assert len(result.pairs) == len(result.pair_set()), name

    def test_nm_variants_are_exact(self):
        points_p = uniform_points(70, seed=156)
        points_q = uniform_points(65, seed=157)
        oracle = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        variants = run_all(
            points_p,
            points_q,
            **{"NM-CIJ": {"reuse_cells": False}},
        )
        assert variants["NM-CIJ"].pair_set() == oracle
        no_phi = run_all(points_p, points_q, **{"NM-CIJ": {"use_phi_pruning": False}})
        assert no_phi["NM-CIJ"].pair_set() == oracle


class TestResultCompleteness:
    def test_every_input_point_participates(self):
        """Footnote 3: each point of P and Q appears in at least one pair."""
        points_p = uniform_points(80, seed=158)
        points_q = uniform_points(50, seed=159)
        for name, result in run_all(points_p, points_q).items():
            pairs = result.pair_set()
            assert {p for p, _ in pairs} == set(range(len(points_p))), name
            assert {q for _, q in pairs} == set(range(len(points_q))), name


class TestCostAccounting:
    def test_io_ordering_nm_below_pm_below_fm(self):
        """The paper's headline result (Figures 7 and 8)."""
        points_p = uniform_points(400, seed=160)
        points_q = uniform_points(400, seed=161)
        results = run_all(points_p, points_q, buffer_fraction=0.02)
        nm = results["NM-CIJ"].stats.total_page_accesses
        pm = results["PM-CIJ"].stats.total_page_accesses
        fm = results["FM-CIJ"].stats.total_page_accesses
        assert nm < pm < fm

    def test_no_algorithm_beats_the_lower_bound_with_cold_buffer(self):
        points_p = uniform_points(300, seed=162)
        points_q = uniform_points(300, seed=163)
        workload = build_workload(
            WorkloadConfig(buffer_fraction=0.0), points_p=points_p, points_q=points_q
        )
        lb = lower_bound_io(workload.tree_p, workload.tree_q)
        for name, algorithm in ALGORITHMS.items():
            fresh = build_workload(
                WorkloadConfig(buffer_fraction=0.0), points_p=points_p, points_q=points_q
            )
            result = algorithm(fresh.tree_p, fresh.tree_q, domain=fresh.domain)
            assert result.stats.total_page_accesses >= lb, name

    def test_mat_join_breakdown_is_consistent(self):
        points_p = uniform_points(250, seed=164)
        points_q = uniform_points(250, seed=165)
        results = run_all(points_p, points_q)
        fm = results["FM-CIJ"].stats
        pm = results["PM-CIJ"].stats
        nm = results["NM-CIJ"].stats
        assert fm.mat_page_accesses > 0 and pm.mat_page_accesses > 0
        assert nm.mat_page_accesses == 0
        assert fm.total_page_accesses == fm.mat_page_accesses + fm.join_page_accesses
        # FM materialises two Voronoi R-trees, PM only one.
        assert fm.mat_page_accesses > pm.mat_page_accesses

    def test_progress_samples_are_monotonic(self):
        points_p = uniform_points(300, seed=166)
        points_q = uniform_points(300, seed=167)
        for name, result in run_all(points_p, points_q).items():
            samples = result.stats.progress
            assert samples, name
            accesses = [s.page_accesses for s in samples]
            pairs = [s.pairs_reported for s in samples]
            assert accesses == sorted(accesses), name
            assert pairs == sorted(pairs), name
            assert pairs[-1] == len(result.pairs), name

    def test_nm_is_non_blocking_and_fm_pm_are_blocking(self):
        """Figure 9b: NM-CIJ produces pairs early, FM/PM only after MAT."""
        points_p = uniform_points(400, seed=168)
        points_q = uniform_points(400, seed=169)
        results = run_all(points_p, points_q, buffer_fraction=0.02)
        nm_samples = results["NM-CIJ"].stats.progress
        first_with_output = next(s for s in nm_samples if s.pairs_reported > 0)
        total_nm = results["NM-CIJ"].stats.total_page_accesses
        assert first_with_output.page_accesses < total_nm / 4
        for blocking in ("FM-CIJ", "PM-CIJ"):
            stats = results[blocking].stats
            for sample in stats.progress:
                if sample.pairs_reported > 0:
                    assert sample.page_accesses >= stats.mat_page_accesses
                    break

    def test_mismatched_disks_are_rejected(self):
        points_p = uniform_points(20, seed=170)
        points_q = uniform_points(20, seed=171)
        workload_a = build_workload(WorkloadConfig(), points_p=points_p, points_q=points_q)
        workload_b = build_workload(WorkloadConfig(), points_p=points_p, points_q=points_q)
        for algorithm in ALGORITHMS.values():
            with pytest.raises(ValueError):
                algorithm(workload_a.tree_p, workload_b.tree_q)


class TestReuseHeuristic:
    def test_reuse_reduces_cell_computations_without_changing_result(self):
        points_p = uniform_points(500, seed=172)
        points_q = uniform_points(500, seed=173)
        with_reuse = run_all(points_p, points_q)["NM-CIJ"]
        without_reuse = run_all(points_p, points_q, **{"NM-CIJ": {"reuse_cells": False}})[
            "NM-CIJ"
        ]
        assert with_reuse.pair_set() == without_reuse.pair_set()
        assert with_reuse.stats.cells_computed_p < without_reuse.stats.cells_computed_p
        assert with_reuse.stats.cells_reused_p > 0
        assert without_reuse.stats.cells_reused_p == 0

    def test_false_hit_ratio_is_small_on_uniform_data(self):
        """Figure 10: the filter's FHR stays below ~0.1-0.2."""
        points_p = uniform_points(500, seed=174)
        points_q = uniform_points(500, seed=175)
        result = run_all(points_p, points_q)["NM-CIJ"]
        assert result.stats.filter_true_hits > 0
        assert result.stats.false_hit_ratio < 0.2
