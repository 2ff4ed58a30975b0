"""Differential test: the flat-coordinate polygon core against a plain
``Point``-based reference.

The reference functions below are the ``Point``-ring formulations of
halfplane clipping, the separating-axis test and point containment that
:mod:`repro.geometry.polygon` evaluated before it stored rings as flat
float tuples.  The flat core claims to evaluate the same expressions in the
same order, so clipped rings must agree *bit for bit* (compared as packed
doubles, which also tells ``-0.0`` from ``0.0``) and every predicate must
give the same boolean — on integer grids (exact ties everywhere),
near-colinear sites (nearly parallel bisectors) and halfplanes whose
boundary sits inside the clipping tolerance band.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.halfplane import Halfplane, bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, _separating_axis_exists
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS

from tests.conftest import near_colinear_pointsets

_EPS = BOUNDARY_EPS
SQUARE = Rect(0.0, 0.0, 10.0, 10.0)
GRID_DOMAIN = Rect(0.0, 0.0, 64.0, 64.0)
COLINEAR_DOMAIN = Rect(0.0, 0.0, 10_000.0, 10_000.0)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# the Point-based reference
# ----------------------------------------------------------------------
def _ref_far_enough(a, b):
    return abs(a.x - b.x) > _EPS or abs(a.y - b.y) > _EPS


def _ref_from_clip_ring(vertices):
    cleaned = []
    for v in vertices:
        if not cleaned or _ref_far_enough(cleaned[-1], v):
            cleaned.append(v)
    while len(cleaned) > 1 and not _ref_far_enough(cleaned[0], cleaned[-1]):
        cleaned.pop()
    return cleaned


def ref_clip_halfplane(verts, hp):
    """Clip a CCW ``Point`` ring with the closed halfplane ``hp``."""
    if len(verts) < 3:
        return list(verts)
    norm = math.sqrt(hp.a * hp.a + hp.b * hp.b)
    tol = _EPS * (norm if norm > 0.0 else max(1.0, abs(hp.c)))
    values = [hp.value(v) for v in verts]
    if all(v <= tol for v in values):
        return list(verts)
    if all(v >= -tol for v in values):
        return []
    out = []
    n = len(verts)
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        vc, vn = values[i], values[(i + 1) % n]
        cur_in = vc <= tol
        nxt_in = vn <= tol
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = min(max(vc / (vc - vn), 0.0), 1.0)
            out.append(Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)))
    return _ref_from_clip_ring(out)


def ref_separating_axis_exists(a, b, eps, boundary_counts=True):
    """Whether an edge normal of ``Point`` ring ``a`` or ``b`` separates them."""
    for polygon, other in ((a, b), (b, a)):
        n = len(polygon)
        for i in range(n):
            v, w = polygon[i], polygon[(i + 1) % n]
            nx = w.y - v.y
            ny = v.x - w.x
            norm = math.sqrt(nx * nx + ny * ny)
            if norm < eps:
                continue
            self_max = max((p.x - v.x) * nx + (p.y - v.y) * ny for p in polygon)
            other_min = min((p.x - v.x) * nx + (p.y - v.y) * ny for p in other)
            margin = eps * norm if boundary_counts else -eps * norm
            if other_min > max(self_max, 0.0) + margin:
                return True
    return False


def ref_contains_point(verts, p, margin):
    """Whether ``p`` clears every edge of ``Point`` ring ``verts`` by ``margin``."""
    if len(verts) < 3:
        return False
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        cross = (w.x - v.x) * (p.y - v.y) - (w.y - v.y) * (p.x - v.x)
        if cross < margin * max(1.0, abs(w.x - v.x) + abs(w.y - v.y)):
            return False
    return True


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def assert_same_ring(polygon, reference):
    xs, ys = polygon.ring()
    assert _bits(xs) == _bits([v.x for v in reference])
    assert _bits(ys) == _bits([v.y for v in reference])


def clipped_cells(sites, domain):
    """Each site's cell, clipped by every other site in list order; every
    intermediate ring is checked against the reference on the way."""
    cells = []
    for site in sites:
        polygon = ConvexPolygon.from_rect(domain)
        reference = list(polygon.vertices)
        for other in sites:
            if other == site:
                continue
            hp = bisector_halfplane(site, other)
            polygon = polygon.clip_halfplane(hp)
            reference = ref_clip_halfplane(reference, hp)
            assert_same_ring(polygon, reference)
        cells.append((site, polygon, reference))
    return cells


def probes(sites, cells):
    """Sites, cell vertices and edge midpoints: on-boundary probes."""
    points = list(sites)
    for _, polygon, _ in cells:
        ring = polygon.vertices
        points.extend(ring)
        for i, v in enumerate(ring):
            w = ring[(i + 1) % len(ring)]
            points.append(Point((v.x + w.x) / 2.0, (v.y + w.y) / 2.0))
    return points


def check_predicates(sites, cells):
    for eps in (0.0, _EPS):
        for _, a, ref_a in cells:
            for _, b, ref_b in cells:
                for boundary_counts in (True, False):
                    assert _separating_axis_exists(
                        a.ring(), b.ring(), eps, boundary_counts
                    ) == ref_separating_axis_exists(ref_a, ref_b, eps, boundary_counts)
            for p in probes(sites, cells):
                for margin in (-eps, eps):
                    assert a._contains_point(p, margin) == ref_contains_point(
                        ref_a, p, margin
                    )


grid_sites = st.lists(
    st.tuples(st.integers(0, 64), st.integers(0, 64)),
    min_size=2,
    max_size=7,
    unique=True,
).map(lambda pairs: [Point(float(x), float(y)) for x, y in pairs])


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestIntegerGrid:
    @SETTINGS
    @given(sites=grid_sites)
    def test_cells_and_predicates_match_reference(self, sites):
        cells = clipped_cells(sites, GRID_DOMAIN)
        check_predicates(sites, cells)

    @SETTINGS
    @given(
        a=st.tuples(*[st.integers(0, 6)] * 4),
        b=st.tuples(*[st.integers(0, 6)] * 4),
    )
    def test_touching_integer_rects_match_reference(self, a, b):
        # Small integer rects share edges and corners all the time, so the
        # other-side projections land exactly on the bound.
        rects = []
        for x0, y0, x1, y1 in (a, b):
            rect = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
            rects.append(ConvexPolygon.from_rect(rect))
        ref_a, ref_b = list(rects[0].vertices), list(rects[1].vertices)
        for eps in (0.0, _EPS):
            for boundary_counts in (True, False):
                assert _separating_axis_exists(
                    rects[0].ring(), rects[1].ring(), eps, boundary_counts
                ) == ref_separating_axis_exists(ref_a, ref_b, eps, boundary_counts)


class TestNearColinear:
    @SETTINGS
    @given(sites=near_colinear_pointsets(min_size=2, max_size=7))
    def test_cells_and_predicates_match_reference(self, sites):
        cells = clipped_cells(sites, COLINEAR_DOMAIN)
        check_predicates(sites, cells)


class TestToleranceBand:
    # The shapes of test_polygon.py's tolerance-band clips: a corner lies
    # outside the line but within the clipping tolerance.
    BASE = [
        Halfplane(1e-8, 1.0, 10.0 - 5e-8),
        Halfplane(-1e-8, 1.0, 10.0 - 1.5e-7),
        Halfplane(1.0, 1e-8, 10.0 - 5e-8),
        Halfplane(1.0, -1e-8, 10.0 - 1.5e-7),
    ]

    @pytest.mark.parametrize("hp", BASE, ids=["top-left", "top-right", "right-bottom", "right-top"])
    def test_pinned_shapes_match_reference(self, hp):
        square = ConvexPolygon.from_rect(SQUARE)
        assert_same_ring(square.clip_halfplane(hp), ref_clip_halfplane(list(square.vertices), hp))

    @SETTINGS
    @given(
        base=st.sampled_from(BASE),
        tilt=st.floats(-3e-8, 3e-8, allow_nan=False),
        shift=st.floats(-3e-7, 3e-7, allow_nan=False),
        second=st.sampled_from(BASE),
    )
    def test_perturbed_band_clips_match_reference(self, base, tilt, shift, second):
        square = ConvexPolygon.from_rect(SQUARE)
        reference = list(square.vertices)
        polygon = square
        if abs(base.a) < abs(base.b):
            hp = Halfplane(base.a + tilt, base.b, base.c + shift)
        else:
            hp = Halfplane(base.a, base.b + tilt, base.c + shift)
        for clip in (hp, second):
            polygon = polygon.clip_halfplane(clip)
            reference = ref_clip_halfplane(reference, clip)
            assert_same_ring(polygon, reference)
        cells = [(None, polygon, reference), (None, square, list(square.vertices))]
        check_predicates(list(square.vertices), cells)

    @SETTINGS
    @given(
        gap=st.floats(-4e-7, 4e-7, allow_nan=False),
        lift=st.floats(-12.0, 12.0, allow_nan=False),
    )
    def test_gaps_around_the_margin_match_reference(self, gap, lift):
        # A neighbour whose gap to the square straddles the +-eps margins
        # of the closed and the open separating-axis test.
        square = ConvexPolygon.from_rect(SQUARE)
        neighbour = ConvexPolygon(
            [Point(10.0 + gap, lift), Point(16.0, lift + 1.0), Point(10.0 + gap, lift + 7.0)]
        )
        cells = [
            (None, polygon, list(polygon.vertices)) for polygon in (square, neighbour)
        ]
        check_predicates(list(square.vertices), cells)
