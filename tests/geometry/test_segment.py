"""Tests for the Segment of the Φ oracle (tests/oracles.py)."""

import pytest
from hypothesis import given

from repro.geometry.point import Point
from tests.oracles import Segment
from tests.conftest import points_strategy


class TestSegment:
    def test_length_and_midpoint(self):
        seg = Segment(Point(0.0, 0.0), Point(6.0, 8.0))
        assert seg.length() == pytest.approx(10.0)
        assert seg.midpoint() == Point(3.0, 4.0)

    def test_project_parameter_endpoints(self):
        seg = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert seg.project_parameter(Point(0.0, 5.0)) == pytest.approx(0.0)
        assert seg.project_parameter(Point(10.0, -3.0)) == pytest.approx(1.0)
        assert seg.project_parameter(Point(5.0, 7.0)) == pytest.approx(0.5)

    def test_project_parameter_degenerate_segment(self):
        seg = Segment(Point(2.0, 2.0), Point(2.0, 2.0))
        assert seg.project_parameter(Point(9.0, 9.0)) == 0.0
        assert seg.distance_to_point(Point(5.0, 6.0)) == pytest.approx(5.0)

    def test_closest_point_clamps_to_endpoints(self):
        seg = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert seg.closest_point_to(Point(-5.0, 0.0)) == Point(0.0, 0.0)
        assert seg.closest_point_to(Point(20.0, 1.0)) == Point(10.0, 0.0)

    def test_distance_to_point_perpendicular(self):
        seg = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert seg.distance_to_point(Point(4.0, 3.0)) == pytest.approx(3.0)

    def test_point_at_interpolates(self):
        seg = Segment(Point(0.0, 0.0), Point(4.0, 8.0))
        assert seg.point_at(0.25) == Point(1.0, 2.0)


class TestSegmentProperties:
    @given(points_strategy(), points_strategy(), points_strategy())
    def test_distance_never_exceeds_endpoint_distances(self, a, b, q):
        seg = Segment(a, b)
        d = seg.distance_to_point(q)
        assert d <= q.distance_to(a) + 1e-6
        assert d <= q.distance_to(b) + 1e-6

    @given(points_strategy(), points_strategy(), points_strategy())
    def test_closest_point_lies_on_segment_bbox(self, a, b, q):
        seg = Segment(a, b)
        c = seg.closest_point_to(q)
        assert min(a.x, b.x) - 1e-6 <= c.x <= max(a.x, b.x) + 1e-6
        assert min(a.y, b.y) - 1e-6 <= c.y <= max(a.y, b.y) + 1e-6

    @given(points_strategy(), points_strategy())
    def test_distance_zero_for_points_on_segment(self, a, b):
        seg = Segment(a, b)
        assert seg.distance_to_point(seg.midpoint()) == pytest.approx(0.0, abs=1e-6)
