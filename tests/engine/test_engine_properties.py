"""Property-based equivalence of every engine algorithm and both executors.

The brute-force oracle (`repro.join.baseline`) computes CIJ from first
principles; the definitional oracle re-derives it from the join's original
definition (a witness location closer to both partners than to anything
else).  Every CIJ variant, the engine baseline, and both executors must
produce exactly the same pair set on seeded random point sets.
"""

from hypothesis import given, settings

from repro.datasets.synthetic import DOMAIN
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import default_engine
from tests.oracles import brute_force_cij_pairs, definitional_cij_pairs
from tests.conftest import distinct_pointsets


def run_engine(points_p, points_q, algorithm, **overrides):
    workload = build_workload(
        WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
    )
    return default_engine().run(
        algorithm,
        workload.tree_p,
        workload.tree_q,
        domain=workload.domain,
        **overrides,
    )


class TestEngineMatchesOracles:
    @given(
        distinct_pointsets(min_size=2, max_size=10),
        distinct_pointsets(min_size=2, max_size=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_algorithm_matches_the_oracle(self, points_p, points_q):
        oracle = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        for algorithm in ("nm", "pm", "fm", "brute"):
            result = run_engine(points_p, points_q, algorithm)
            assert result.pair_set() == oracle, algorithm

    @given(
        distinct_pointsets(min_size=2, max_size=9),
        distinct_pointsets(min_size=2, max_size=9),
    )
    @settings(max_examples=10, deadline=None)
    def test_both_oracles_agree(self, points_p, points_q):
        assert brute_force_cij_pairs(
            points_p, points_q, DOMAIN
        ) == definitional_cij_pairs(points_p, points_q, DOMAIN)

    @given(
        distinct_pointsets(min_size=2, max_size=10),
        distinct_pointsets(min_size=2, max_size=10),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_executor_is_byte_identical(self, points_p, points_q):
        """The acceptance property: on every seed the fork pool returns
        the identical pair *list* (order included) and the same aggregate
        Q-cell and filter accounting as the serial executor."""
        for algorithm in ("nm", "pm"):
            serial = run_engine(points_p, points_q, algorithm)
            sharded = run_engine(
                points_p,
                points_q,
                algorithm,
                executor="sharded",
                workers=2,
            )
            assert sharded.pairs == serial.pairs, algorithm
            assert (
                sharded.stats.cells_computed_q == serial.stats.cells_computed_q
            ), algorithm
        nm_serial = run_engine(points_p, points_q, "nm")
        nm_sharded = run_engine(
            points_p, points_q, "nm", executor="sharded", workers=2
        )
        assert (
            nm_sharded.stats.filter_candidates == nm_serial.stats.filter_candidates
        )
