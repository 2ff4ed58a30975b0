"""Tests for repro.geometry.rect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from tests.conftest import coordinates, points_strategy


def rects_strategy():
    """Arbitrary valid rectangles inside the domain."""
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
        coordinates(),
        coordinates(),
        coordinates(),
        coordinates(),
    )


class TestConstruction:
    def test_degenerate_rect_is_rejected(self):
        with pytest.raises(ValueError):
            Rect(5.0, 0.0, 1.0, 10.0)

    def test_from_point_is_degenerate_but_valid(self):
        r = Rect.from_point(Point(3.0, 4.0))
        assert r.area() == 0.0
        assert r.contains_point(Point(3.0, 4.0))

    def test_from_points_is_tight(self):
        r = Rect.from_points([Point(1.0, 5.0), Point(4.0, 2.0), Point(3.0, 3.0)])
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (1.0, 2.0, 4.0, 5.0)

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_union_all_covers_every_input(self):
        rects = [Rect(0, 0, 1, 1), Rect(5, 5, 6, 7), Rect(2, -1, 3, 0)]
        union = Rect.union_all(rects)
        assert all(union.contains_rect(r) for r in rects)

    def test_union_all_rejects_empty(self):
        with pytest.raises(ValueError):
            Rect.union_all([])


class TestMeasures:
    def test_area_and_perimeter(self):
        r = Rect(0.0, 0.0, 4.0, 3.0)
        assert r.area() == 12.0
        assert r.perimeter() == 14.0

    def test_center_and_corners(self):
        r = Rect(0.0, 0.0, 2.0, 4.0)
        assert r.center() == Point(1.0, 2.0)
        assert len(r.corners()) == 4
        assert Point(0.0, 0.0) in r.corners()

    def test_enlargement_zero_when_contained(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(2, 2, 3, 3)
        assert outer.enlargement(inner) == 0.0
        assert inner.enlargement(outer) == pytest.approx(99.0)

    def test_expanded_grows_every_side(self):
        r = Rect(1, 1, 2, 2).expanded(0.5)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.5, 0.5, 2.5, 2.5)

    def test_sample_grid_sizes(self):
        r = Rect(0, 0, 1, 1)
        assert len(r.sample_grid(3)) == 9
        assert r.sample_grid(1) == [r.center()]


class TestPredicates:
    def test_intersects_touching_rectangles(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint_rectangles_do_not_intersect(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_intersection_of_overlapping(self):
        common = Rect(0, 0, 4, 4).intersection(Rect(2, 1, 6, 3))
        assert common == Rect(2, 1, 4, 3)

    def test_intersection_of_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_contains_rect_and_point(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert not outer.contains_rect(Rect(5, 5, 11, 6))
        assert outer.contains_point(Point(10.0, 10.0))
        assert not outer.contains_point(Point(10.1, 5.0))


class TestDistances:
    def test_mindist_zero_inside(self):
        r = Rect(0, 0, 10, 10)
        assert r.mindist_point(Point(5.0, 5.0)) == 0.0

    def test_mindist_to_corner(self):
        r = Rect(0, 0, 1, 1)
        assert r.mindist_point(Point(4.0, 5.0)) == pytest.approx(5.0)

    def test_mindist_to_side(self):
        r = Rect(0, 0, 1, 1)
        assert r.mindist_point(Point(0.5, 3.0)) == pytest.approx(2.0)

    def test_mindist_rect_zero_when_overlapping(self):
        assert Rect(0, 0, 2, 2).mindist_rect(Rect(1, 1, 3, 3)) == 0.0

    def test_mindist_rect_positive_when_disjoint(self):
        assert Rect(0, 0, 1, 1).mindist_rect(Rect(4, 1, 5, 2)) == pytest.approx(3.0)


class TestRectProperties:
    @given(rects_strategy(), points_strategy())
    def test_mindist_is_a_lower_bound_on_contained_points(self, rect, query):
        lower = rect.mindist_point(query)
        for corner in rect.corners() + [rect.center()]:
            assert lower <= query.distance_to(corner) + 1e-6

    @given(rects_strategy(), rects_strategy())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a)
        assert union.contains_rect(b)

    @given(rects_strategy(), rects_strategy())
    def test_intersection_consistent_with_intersects(self, a, b):
        common = a.intersection(b)
        assert (common is not None) == a.intersects(b)
        if common is not None:
            assert a.contains_rect(common)
            assert b.contains_rect(common)
