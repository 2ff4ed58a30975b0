"""Tests for repro.geometry.halfplane."""

import pickle

import pytest
from hypothesis import assume, given

from repro.geometry.halfplane import Halfplane, bisector_halfplane
from repro.geometry.point import Point, dist
from repro.geometry.tolerance import BOUNDARY_EPS
from tests.conftest import points_strategy


class TestHalfplane:
    def test_contains_and_value_signs(self):
        # x <= 5
        hp = Halfplane(1.0, 0.0, 5.0)
        assert hp.contains(Point(4.0, 100.0))
        assert hp.contains(Point(5.0, -3.0))
        assert not hp.contains(Point(5.1, 0.0))
        assert hp.value(Point(7.0, 0.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e4])
    def test_tolerance_is_a_distance_to_the_line(self, scale):
        # 3x + 4y <= 0 has a unit normal of (0.6, 0.8); the verdict for a
        # point just outside depends on its distance to the line, not on
        # how the coefficients happen to be scaled.
        hp = Halfplane(3.0 * scale, 4.0 * scale, 0.0)
        assert hp.contains(Point(0.6 * 0.5 * BOUNDARY_EPS, 0.8 * 0.5 * BOUNDARY_EPS))
        assert not hp.contains(Point(0.6 * 2.0 * BOUNDARY_EPS, 0.8 * 2.0 * BOUNDARY_EPS))

    def test_pickle_round_trip(self):
        hp = bisector_halfplane(Point(1.0, 2.0), Point(-3.5, 0.25))
        clone = pickle.loads(pickle.dumps(hp, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == hp


class TestBisector:
    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            bisector_halfplane(Point(1.0, 1.0), Point(1.0, 1.0))

    def test_p_side_contains_p(self):
        p, q = Point(2.0, 3.0), Point(8.0, 1.0)
        hp = bisector_halfplane(p, q)
        assert hp.contains(p)
        assert not hp.contains(q)

    def test_midpoint_on_boundary(self):
        p, q = Point(0.0, 0.0), Point(4.0, 2.0)
        hp = bisector_halfplane(p, q)
        midpoint = Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)
        assert hp.value(midpoint) == pytest.approx(0.0, abs=1e-9)

    def test_points_along_the_boundary_are_equidistant(self):
        p, q = Point(1.0, 7.0), Point(5.0, -1.0)
        hp = bisector_halfplane(p, q)
        mx, my = (p.x + q.x) / 2.0, (p.y + q.y) / 2.0
        # The boundary runs through the midpoint, perpendicular to pq.
        dx, dy = -(q.y - p.y), q.x - p.x
        for t in (-3.0, -0.5, 0.0, 1.0, 10.0):
            x = Point(mx + t * dx, my + t * dy)
            assert hp.value(x) == pytest.approx(0.0, abs=1e-9)
            assert dist(x, p) == pytest.approx(dist(x, q), rel=1e-9)


class TestBisectorProperties:
    @given(points_strategy(), points_strategy(), points_strategy())
    def test_membership_matches_distance_comparison(self, p, q, probe):
        assume(p != q)
        hp = bisector_halfplane(p, q)
        closer_to_p = dist(probe, p) <= dist(probe, q) + 1e-6
        # Allow a tolerance band around the boundary where both answers are
        # acceptable due to floating point.
        if abs(dist(probe, p) - dist(probe, q)) > 1e-6:
            assert hp.contains(probe) == closer_to_p

    @given(points_strategy(), points_strategy())
    def test_bisectors_are_complementary(self, p, q):
        assume(p != q)
        hp_pq = bisector_halfplane(p, q)
        hp_qp = bisector_halfplane(q, p)
        probe = Point((p.x + 2 * q.x) / 3 + 1.0, (p.y + 2 * q.y) / 3)
        if abs(dist(probe, p) - dist(probe, q)) > 1e-6:
            assert hp_pq.contains(probe) != hp_qp.contains(probe)
