"""Tests for the Φ(L, p) influence region (Equation 3 and Lemma 3)."""

import pytest
from hypothesis import given, settings

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from tests.conftest import points_strategy
from tests.oracles import (
    Segment,
    entry_pruned_by_candidate,
    phi_contains_point,
    phi_contains_point_piecewise,
    polygon_within_phi,
    rect_sides,
)


class TestPhiMembership:
    def test_point_near_p_is_inside(self):
        segment = Segment(Point(10.0, 0.0), Point(10.0, 10.0))
        p = Point(0.0, 5.0)
        assert phi_contains_point(segment, p, Point(1.0, 5.0))

    def test_point_near_segment_is_outside(self):
        segment = Segment(Point(10.0, 0.0), Point(10.0, 10.0))
        p = Point(0.0, 5.0)
        assert not phi_contains_point(segment, p, Point(9.5, 5.0))

    def test_p_itself_is_always_inside(self):
        segment = Segment(Point(3.0, 3.0), Point(8.0, 3.0))
        p = Point(1.0, 9.0)
        assert phi_contains_point(segment, p, p)

    def test_equidistant_location_counts_as_inside(self):
        segment = Segment(Point(4.0, 0.0), Point(4.0, 10.0))
        p = Point(0.0, 5.0)
        assert phi_contains_point(segment, p, Point(2.0, 5.0))

    @given(points_strategy(), points_strategy(), points_strategy(), points_strategy())
    @settings(max_examples=150, deadline=None)
    def test_direct_and_piecewise_formulations_agree(self, a, b, p, location):
        segment = Segment(a, b)
        direct = phi_contains_point(segment, p, location)
        piecewise = phi_contains_point_piecewise(segment, p, location)
        assert direct == piecewise


class TestLemma3:
    def test_polygon_inside_phi(self):
        segment = Segment(Point(100.0, 0.0), Point(100.0, 100.0))
        p = Point(0.0, 50.0)
        target = ConvexPolygon.from_rect(Rect(0.0, 40.0, 10.0, 60.0))
        assert polygon_within_phi(target, segment, p)

    def test_polygon_partially_outside_phi(self):
        segment = Segment(Point(20.0, 0.0), Point(20.0, 100.0))
        p = Point(0.0, 50.0)
        target = ConvexPolygon.from_rect(Rect(0.0, 40.0, 18.0, 60.0))
        assert not polygon_within_phi(target, segment, p)

    def test_empty_polygon_is_vacuously_inside(self):
        segment = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        assert polygon_within_phi(ConvexPolygon.empty(), segment, Point(5.0, 5.0))

    @given(points_strategy(), points_strategy(), points_strategy())
    @settings(max_examples=80, deadline=None)
    def test_vertex_containment_implies_sample_containment(self, a, b, p):
        """Lemma 3: if all vertices are inside Φ, interior samples are too."""
        segment = Segment(a, b)
        target = ConvexPolygon.from_rect(Rect(2000.0, 2000.0, 2400.0, 2300.0))
        if polygon_within_phi(target, segment, p):
            for probe in target.bounding_rect().sample_grid(3):
                assert phi_contains_point(segment, p, probe)


class TestEntryPruning:
    def test_candidate_between_entry_and_target_prunes(self):
        # Candidate sits between the far-away entry MBR and the target cell,
        # so no point inside the MBR can reach the target with its cell.
        entry_mbr = Rect(8000.0, 8000.0, 9000.0, 9000.0)
        target = ConvexPolygon.from_rect(Rect(100.0, 100.0, 300.0, 300.0))
        candidate = Point(350.0, 350.0)
        assert entry_pruned_by_candidate(entry_mbr, target, candidate)

    def test_far_candidate_does_not_prune(self):
        entry_mbr = Rect(400.0, 100.0, 600.0, 300.0)
        target = ConvexPolygon.from_rect(Rect(100.0, 100.0, 300.0, 300.0))
        candidate = Point(9000.0, 9000.0)
        assert not entry_pruned_by_candidate(entry_mbr, target, candidate)

    def test_empty_target_is_always_pruned(self):
        entry_mbr = Rect(0.0, 0.0, 10.0, 10.0)
        assert entry_pruned_by_candidate(entry_mbr, ConvexPolygon.empty(), Point(1.0, 1.0))

    def test_rect_sides_form_the_boundary(self):
        rect = Rect(0.0, 0.0, 4.0, 2.0)
        sides = rect_sides(rect)
        assert len(sides) == 4
        total_length = sum(side.length() for side in sides)
        assert total_length == pytest.approx(rect.perimeter())

    def test_pruning_rule_is_safe(self):
        """If a candidate prunes an MBR, no point inside the MBR can have a
        Voronoi cell (w.r.t. a set containing the candidate) reaching the
        target polygon."""
        entry_mbr = Rect(6000.0, 6000.0, 7000.0, 7000.0)
        target = ConvexPolygon.from_rect(Rect(500.0, 500.0, 900.0, 900.0))
        candidate = Point(1200.0, 1200.0)
        if entry_pruned_by_candidate(entry_mbr, target, candidate):
            from repro.geometry.halfplane import bisector_halfplane

            domain = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10_000.0, 10_000.0))
            for hidden in entry_mbr.sample_grid(3):
                cell = domain.clip_halfplane(bisector_halfplane(hidden, candidate))
                assert not cell.intersects(target)
