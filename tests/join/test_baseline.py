"""Tests for the brute-force CIJ oracles."""


from repro.datasets.synthetic import DOMAIN, gaussian_points, uniform_points
from repro.geometry.point import Point
from repro.join.baseline import brute_force_cij
from tests.oracles import brute_force_cij_pairs, definitional_cij_pairs


class TestBruteForceCIJ:
    def test_single_pair_always_joins(self):
        pairs = brute_force_cij_pairs([Point(1000.0, 1000.0)], [Point(9000.0, 9000.0)], DOMAIN)
        assert pairs == {(0, 0)}

    def test_every_point_appears_in_some_pair(self):
        """Footnote 3 of the paper: every point of P and Q participates."""
        points_p = uniform_points(25, seed=81)
        points_q = uniform_points(20, seed=82)
        pairs = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        assert {p for p, _ in pairs} == set(range(len(points_p)))
        assert {q for _, q in pairs} == set(range(len(points_q)))

    def test_result_is_symmetric_under_argument_swap(self):
        points_p = uniform_points(18, seed=83)
        points_q = uniform_points(22, seed=84)
        forward = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        backward = brute_force_cij_pairs(points_q, points_p, DOMAIN)
        assert forward == {(p, q) for q, p in backward}

    def test_custom_oids_are_propagated(self):
        result = brute_force_cij(
            [Point(1.0, 1.0)], [Point(2.0, 2.0)], DOMAIN, oids_p=[42], oids_q=[99]
        )
        assert result.pairs == [(42, 99)]

    def test_distant_pair_can_join(self):
        """The Figure 1b phenomenon: a mutually-farthest pair can still join."""
        points_p = [Point(100.0, 100.0), Point(9900.0, 9900.0)]
        points_q = [Point(9900.0, 150.0), Point(150.0, 9000.0)]
        # q0 is the farthest Q point from p0, and p0 is the farthest P point
        # from q0 — yet their influence half-planes overlap near the bottom
        # of the domain, so (p0, q0) is a CIJ pair.
        assert points_p[0].distance_to(points_q[0]) > points_p[0].distance_to(points_q[1])
        assert points_q[0].distance_to(points_p[0]) > points_q[0].distance_to(points_p[1])
        pairs = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        assert (0, 0) in pairs

    def test_pair_count_bounded_by_cartesian_product(self):
        points_p = uniform_points(12, seed=85)
        points_q = uniform_points(9, seed=86)
        pairs = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        assert len(pairs) <= len(points_p) * len(points_q)
        assert len(pairs) >= max(len(points_p), len(points_q))


class TestOracleCrossValidation:
    def test_polygon_oracle_agrees_with_definitional_oracle(self):
        points_p = uniform_points(15, seed=87)
        points_q = uniform_points(14, seed=88)
        by_polygons = brute_force_cij_pairs(points_p, points_q, DOMAIN)
        by_definition = definitional_cij_pairs(points_p, points_q, DOMAIN)
        assert by_polygons == by_definition

    def test_oracles_agree_on_clustered_data(self):
        from repro.datasets.synthetic import clustered_points

        points_p = clustered_points(20, clusters=3, seed=89)
        points_q = clustered_points(16, clusters=2, seed=90)
        assert brute_force_cij_pairs(points_p, points_q, DOMAIN) == definitional_cij_pairs(
            points_p, points_q, DOMAIN
        )

    def test_oracles_agree_on_skewed_against_uniform_data(self):
        points_p = gaussian_points(18, seed=91)
        points_q = uniform_points(15, seed=92)
        assert brute_force_cij_pairs(points_p, points_q, DOMAIN) == definitional_cij_pairs(
            points_p, points_q, DOMAIN
        )

    def test_oracles_agree_under_custom_oids(self):
        points_p = uniform_points(10, seed=93)
        points_q = uniform_points(8, seed=94)
        oids_p = [1000 + 3 * i for i in range(10)]
        oids_q = [500 - i for i in range(8)]
        by_polygons = brute_force_cij_pairs(points_p, points_q, DOMAIN, oids_p, oids_q)
        by_definition = definitional_cij_pairs(points_p, points_q, DOMAIN, oids_p, oids_q)
        assert by_polygons == by_definition
        assert {p for p, _ in by_definition} == set(oids_p)
        assert {q for _, q in by_definition} == set(oids_q)
