"""Tests for repro.geometry.polygon (convex polygons and clipping)."""

import pickle

import pytest

from repro.geometry.halfplane import Halfplane, bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS

UNIT_SQUARE = Rect(0.0, 0.0, 10.0, 10.0)


class TestConstruction:
    def test_from_rect_has_four_ccw_vertices(self):
        poly = ConvexPolygon.from_rect(UNIT_SQUARE)
        assert len(poly) == 4
        assert poly.area() == pytest.approx(100.0)

    def test_empty_polygon(self):
        poly = ConvexPolygon.empty()
        assert poly.is_empty()
        assert poly.area() == 0.0
        assert not poly.contains_point(Point(0.0, 0.0))

    def test_clockwise_input_is_reoriented(self):
        cw = [Point(0, 0), Point(0, 4), Point(4, 4), Point(4, 0)]
        poly = ConvexPolygon(cw)
        assert poly.area() == pytest.approx(16.0)
        # Shoelace on the stored ring must be positive (CCW).
        verts = poly.vertices
        shoelace = sum(
            verts[i].x * verts[(i + 1) % len(verts)].y
            - verts[(i + 1) % len(verts)].x * verts[i].y
            for i in range(len(verts))
        )
        assert shoelace > 0

    def test_duplicate_vertices_are_removed(self):
        poly = ConvexPolygon(
            [Point(0, 0), Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4), Point(0, 0)]
        )
        assert len(poly) == 4

    def test_degenerate_two_vertex_polygon_is_empty(self):
        poly = ConvexPolygon([Point(0, 0), Point(1, 1)])
        assert poly.is_empty()

    def test_equality_and_hash(self):
        a = ConvexPolygon.from_rect(UNIT_SQUARE)
        b = ConvexPolygon.from_rect(UNIT_SQUARE)
        assert a == b
        assert hash(a) == hash(b)

    def test_ring_is_flat_and_vertices_match_it(self):
        tri = ConvexPolygon([Point(0, 0), Point(6, 0), Point(0, 6)])
        xs, ys = tri.ring()
        assert tri.vertices == tuple(Point(x, y) for x, y in zip(xs, ys))
        assert tri.vertices is tri.vertices  # built once, then cached

    def test_pickle_ships_only_the_flat_ring(self):
        # Fork-pool REUSE carries pickle cells: the lazily built Point tuple
        # must not travel, and the ring must come back bit for bit.
        cell = ConvexPolygon.from_rect(UNIT_SQUARE).clip_halfplane(
            Halfplane(1.0, 1.0, 7.3)
        )
        cell.vertices
        blob = pickle.dumps(cell, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"Point" not in blob
        clone = pickle.loads(blob)
        assert clone == cell
        assert clone.ring() == cell.ring()


class TestMeasures:
    def test_triangle_area_and_centroid(self):
        tri = ConvexPolygon([Point(0, 0), Point(6, 0), Point(0, 6)])
        assert tri.area() == pytest.approx(18.0)
        assert tri.centroid() == Point(2.0, 2.0)

    def test_centroid_of_empty_polygon_raises(self):
        with pytest.raises(ValueError):
            ConvexPolygon.empty().centroid()

    def test_bounding_rect(self):
        tri = ConvexPolygon([Point(1, 2), Point(5, 3), Point(2, 8)])
        rect = tri.bounding_rect()
        assert rect == Rect(1, 2, 5, 8)

    def test_bounding_rect_of_empty_raises(self):
        with pytest.raises(ValueError):
            ConvexPolygon.empty().bounding_rect()


class TestContainsPoint:
    def test_interior_boundary_and_exterior(self):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        assert square.contains_point(Point(5.0, 5.0))
        assert square.contains_point(Point(0.0, 5.0))
        assert square.contains_point(Point(10.0, 10.0))
        assert not square.contains_point(Point(10.5, 5.0))
        assert not square.contains_point(Point(-0.1, 0.0))


class TestClipping:
    def test_clip_keeps_half_of_square(self):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        clipped = square.clip_halfplane(Halfplane(1.0, 0.0, 5.0))  # x <= 5
        assert clipped.area() == pytest.approx(50.0)
        assert clipped.bounding_rect() == Rect(0, 0, 5, 10)

    @pytest.mark.parametrize(
        "halfplane",
        [
            Halfplane(1.0, 0.0, 50.0),  # x <= 50
            # Zero normal (the bisector of coincident sites has none): the
            # tolerance falls back to the coefficient scale and 0 <= c keeps
            # the whole ring.
            Halfplane(0.0, 0.0, 0.0),
            Halfplane(0.0, 0.0, 5.0),
        ],
        ids=["far-boundary", "zero-normal-c0", "zero-normal-c5"],
    )
    def test_clip_by_non_cutting_halfplane_is_identity(self, halfplane):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        clipped = square.clip_halfplane(halfplane)
        assert clipped.vertices == square.vertices

    @pytest.mark.parametrize(
        "halfplane",
        [
            Halfplane(1.0, 0.0, -5.0),  # x <= -5: the whole square is outside
            # x + y <= 0 touches the square in the single corner (0, 0).
            Halfplane(1.0, 1.0, 0.0),
            # x <= eps/2 keeps a sliver thinner than the boundary tolerance.
            Halfplane(1.0, 0.0, BOUNDARY_EPS / 2.0),
            Halfplane(0.0, 0.0, -1.0),  # zero normal, 0 <= -1 never holds
        ],
        ids=["fully-excluded", "single-vertex", "sub-tolerance", "zero-normal"],
    )
    def test_clip_away_everything_gives_empty(self, halfplane):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        clipped = square.clip_halfplane(halfplane)
        assert clipped.is_empty()
        assert clipped.vertices == ()

    @pytest.mark.parametrize(
        "halfplane",
        [
            # A corner sits outside the line but within the tolerance
            # (0 < value <= tol) and its neighbour is clearly out: the
            # unclamped crossing parameter left [0, 1] and put a vertex at
            # (-5, 10), outside the square.
            Halfplane(1e-8, 1.0, 10.0 - 5e-8),
            Halfplane(-1e-8, 1.0, 10.0 - 1.5e-7),
            Halfplane(1.0, 1e-8, 10.0 - 5e-8),
            Halfplane(1.0, -1e-8, 10.0 - 1.5e-7),
        ],
        ids=["top-left", "top-right", "right-bottom", "right-top"],
    )
    def test_clip_near_tolerance_band_never_grows_polygon(self, halfplane):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        clipped = square.clip_halfplane(halfplane)
        assert not clipped.is_empty()
        for v in clipped.vertices:
            assert UNIT_SQUARE.contains_point(v), v
        ring = clipped.vertices
        for i, v in enumerate(ring):
            w, u = ring[(i + 1) % len(ring)], ring[(i + 2) % len(ring)]
            # Convex CCW ring: no right turn anywhere.
            assert (w.x - v.x) * (u.y - w.y) - (w.y - v.y) * (u.x - w.x) >= 0.0

    def test_clip_empty_polygon_stays_empty(self):
        assert ConvexPolygon.empty().clip_halfplane(Halfplane(1.0, 0.0, 5.0)).is_empty()

    def test_sequential_bisector_clips_form_voronoi_cell(self):
        # The cell of (2,2) among {(2,2), (8,2), (2,8)} within the square.
        site = Point(2.0, 2.0)
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        cell = square.clip_halfplane(bisector_halfplane(site, Point(8.0, 2.0)))
        cell = cell.clip_halfplane(bisector_halfplane(site, Point(2.0, 8.0)))
        assert cell.contains_point(site)
        assert cell.area() == pytest.approx(25.0)
        assert not cell.contains_point(Point(6.0, 6.0))


class TestIntersection:
    def test_overlapping_squares_intersect(self):
        a = ConvexPolygon.from_rect(Rect(0, 0, 4, 4))
        b = ConvexPolygon.from_rect(Rect(2, 2, 6, 6))
        assert a.intersects(b)
        assert a.intersection(b).area() == pytest.approx(4.0)

    def test_disjoint_squares_do_not_intersect(self):
        a = ConvexPolygon.from_rect(Rect(0, 0, 1, 1))
        b = ConvexPolygon.from_rect(Rect(5, 5, 6, 6))
        assert not a.intersects(b)
        assert a.intersection(b).is_empty()

    def test_touching_squares_count_as_intersecting(self):
        a = ConvexPolygon.from_rect(Rect(0, 0, 2, 2))
        b = ConvexPolygon.from_rect(Rect(2, 0, 4, 2))
        assert a.intersects(b)

    def test_nested_polygons_intersect(self):
        outer = ConvexPolygon.from_rect(Rect(0, 0, 10, 10))
        inner = ConvexPolygon.from_rect(Rect(4, 4, 5, 5))
        assert outer.intersects(inner)
        assert inner.intersects(outer)

    def test_intersects_rect_helper(self):
        tri = ConvexPolygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        assert tri.intersects_rect(Rect(1, 1, 2, 2))
        assert not tri.intersects_rect(Rect(5, 5, 6, 6))

    @pytest.mark.parametrize(
        "rect, expected",
        [
            (Rect(5, 2, 5, 8), True),  # zero-width segment inside
            (Rect(2, 5, 8, 5), True),  # zero-height segment inside
            (Rect(5, 5, 5, 5), True),  # single point inside
            (Rect(10, 3, 10, 7), True),  # segment on the right edge
            (Rect(0, 0, 0, 0), True),  # the corner itself
            (Rect(-5, 5, 15, 5), True),  # segment crossing the square
            (Rect(12, 2, 12, 8), False),
            (Rect(11, 11, 11, 11), False),
        ],
        ids=[
            "vertical-inside",
            "horizontal-inside",
            "point-inside",
            "on-edge",
            "on-corner",
            "crossing",
            "vertical-outside",
            "point-outside",
        ],
    )
    def test_intersects_degenerate_rect(self, rect, expected):
        # A zero-width or zero-height rect (the MBR of colinear sites) used
        # to collapse to an empty corner ring and never intersect anything.
        square = ConvexPolygon.from_rect(Rect(0, 0, 10, 10))
        assert square.intersects_rect(rect) is expected

    def test_degenerate_rect_uses_its_own_segment_normal(self):
        # Only the horizontal segment's own normal separates it from the
        # triangle: none of the triangle's three edge normals does.
        tri = ConvexPolygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        assert not tri.intersects_rect(Rect(-10, 4.5, 10, 4.5))
        assert tri.intersects_rect(Rect(-10, 3.5, 10, 3.5))

    def test_empty_polygon_never_intersects(self):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        assert not ConvexPolygon.empty().intersects(square)
        assert not square.intersects(ConvexPolygon.empty())

    def test_intersection_with_own_edges_reconstructs_polygon(self):
        """Clipping a covering square by every edge of a polygon rebuilds it."""
        tri = ConvexPolygon([Point(0, 0), Point(6, 0), Point(0, 6)])
        rebuilt = ConvexPolygon.from_rect(UNIT_SQUARE).intersection(tri)
        assert rebuilt.area() == pytest.approx(tri.area(), rel=1e-9)

    def test_intersection_of_overlapping_squares_is_their_overlap(self):
        a = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0))
        b = ConvexPolygon.from_rect(Rect(5.0, 5.0, 15.0, 15.0))
        overlap = a.intersection(b)
        assert set(overlap.vertices) == set(ConvexPolygon.from_rect(Rect(5.0, 5.0, 10.0, 10.0)).vertices)
        assert overlap.area() == pytest.approx(25.0)

    def test_intersection_of_disjoint_squares_is_empty(self):
        a = ConvexPolygon.from_rect(Rect(0.0, 0.0, 1.0, 1.0))
        b = ConvexPolygon.from_rect(Rect(5.0, 5.0, 6.0, 6.0))
        assert a.intersection(b).is_empty()
        assert b.intersection(a).is_empty()

    def test_intersection_with_empty_is_empty(self):
        square = ConvexPolygon.from_rect(UNIT_SQUARE)
        assert square.intersection(ConvexPolygon.empty()).is_empty()
        assert ConvexPolygon.empty().intersection(square).is_empty()

    def test_intersection_with_a_covering_polygon_returns_self(self):
        tri = ConvexPolygon([Point(1, 1), Point(6, 1), Point(1, 6)])
        assert tri.intersection(ConvexPolygon.from_rect(UNIT_SQUARE)) is tri
