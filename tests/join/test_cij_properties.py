"""Property-based equivalence of the three CIJ algorithms and the oracle."""

from hypothesis import given, settings

from repro.datasets.synthetic import DOMAIN
from repro.datasets.workload import WorkloadConfig, build_workload
from tests.oracles import brute_force_cij_pairs
from repro.join.fm_cij import fm_cij
from repro.join.nm_cij import nm_cij
from repro.join.pm_cij import pm_cij
from tests.conftest import distinct_pointsets


def run(algorithm, points_p, points_q, **kwargs):
    workload = build_workload(
        WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
    )
    return algorithm(workload.tree_p, workload.tree_q, domain=workload.domain, **kwargs)


class TestAlgorithmEquivalenceProperties:
    @given(distinct_pointsets(min_size=2, max_size=10), distinct_pointsets(min_size=2, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_nm_cij_matches_oracle(self, points_p, points_q):
        oracle = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        assert run(nm_cij, points_p, points_q).pair_set() == oracle

    @given(distinct_pointsets(min_size=2, max_size=10), distinct_pointsets(min_size=2, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_fm_and_pm_match_oracle(self, points_p, points_q):
        oracle = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        assert run(fm_cij, points_p, points_q).pair_set() == oracle
        assert run(pm_cij, points_p, points_q).pair_set() == oracle

    @given(distinct_pointsets(min_size=2, max_size=9), distinct_pointsets(min_size=2, max_size=9))
    @settings(max_examples=15, deadline=None)
    def test_cij_is_symmetric(self, points_p, points_q):
        forward = run(nm_cij, points_p, points_q).pair_set()
        backward = run(nm_cij, points_q, points_p).pair_set()
        assert forward == {(p, q) for q, p in backward}

    @given(distinct_pointsets(min_size=2, max_size=10), distinct_pointsets(min_size=2, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_every_point_participates(self, points_p, points_q):
        pairs = run(nm_cij, points_p, points_q).pair_set()
        assert {p for p, _ in pairs} == set(range(len(points_p)))
        assert {q for _, q in pairs} == set(range(len(points_q)))
