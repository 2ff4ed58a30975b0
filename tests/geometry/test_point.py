"""Tests for repro.geometry.point."""

import pickle

import pytest
from hypothesis import given

from repro.geometry.point import Point, centroid, dist
from tests.conftest import points_strategy


class TestPoint:
    def test_distance_to_matches_euclidean_formula(self):
        a = Point(0.0, 0.0)
        b = Point(3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = Point(1.5, 2.5)
        b = Point(-3.0, 7.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        p = Point(12.0, -8.0)
        assert p.distance_to(p) == 0.0

    def test_points_are_hashable_and_equal_by_value(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(3.0, 4.0)}) == 2

    def test_points_are_immutable(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 5.0

    def test_as_tuple_and_iteration(self):
        p = Point(7.0, 9.0)
        assert p.as_tuple() == (7.0, 9.0)
        assert tuple(p) == (7.0, 9.0)

    def test_pickle_round_trip(self):
        # A frozen dataclass with __slots__ pickles only through its __reduce__.
        p = Point(0.1, -7.25e-5)
        clone = pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == p and type(clone) is Point

    def test_ordering_is_lexicographic(self):
        assert Point(1.0, 5.0) < Point(2.0, 0.0)
        assert Point(1.0, 1.0) < Point(1.0, 2.0)


class TestModuleHelpers:
    def test_dist_and_method_agree(self):
        a = Point(0.0, 1.0)
        b = Point(2.0, 3.0)
        assert dist(a, b) == pytest.approx(a.distance_to(b))

    def test_centroid_of_symmetric_square(self):
        square = [Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(0.0, 2.0)]
        assert centroid(square) == Point(1.0, 1.0)

    def test_centroid_of_single_point_is_itself(self):
        assert centroid([Point(5.0, 6.0)]) == Point(5.0, 6.0)

    def test_centroid_rejects_empty_input(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_centroid_accepts_generators(self):
        assert centroid(Point(float(i), 0.0) for i in range(3)) == Point(1.0, 0.0)


class TestPointProperties:
    @given(points_strategy(), points_strategy())
    def test_triangle_inequality_with_origin(self, a, b):
        origin = Point(0.0, 0.0)
        assert dist(a, b) <= dist(a, origin) + dist(origin, b) + 1e-6

    @given(points_strategy(), points_strategy())
    def test_dist_and_method_are_bit_identical(self, a, b):
        # Both use the pinned sqrt(dx*dx + dy*dy) formula, so a distance tie
        # decided through one helper is decided the same through the other.
        assert dist(a, b) == a.distance_to(b)
        assert dist(a, b) == dist(b, a)

    @given(points_strategy(), points_strategy())
    def test_distance_non_negative_and_zero_iff_equal(self, a, b):
        d = dist(a, b)
        assert d >= 0.0
        if a == b:
            assert d == 0.0
