"""The running cell clips bit for bit like ``ConvexPolygon.clip_halfplane``.

:class:`RunningCell` carries ``(x, y, d2, d)`` per vertex through each
bisector clip instead of rebuilding a polygon and recomputing every
distance.  These properties pin that it is the same computation: after
every refinement its ring equals
``clip_halfplane(bisector_halfplane(site, other)).ring()`` compared through
``float.hex``, and every carried ``d2``/``d`` plus ``reach``/``reach2`` equals
the plain formula recomputed from that ring.  The probes cover vertices
within the clip tolerance of the bisector, clips to empty, rings under
three vertices, sites ``1e-7`` apart and coordinates near ``1e6``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, RunningCell
from repro.geometry.rect import Rect

#: Translations of the whole scene: the origin and near 1e6.
OFFSETS = st.sampled_from([0.0, 1.0e6, -1.0e6 + 0.25])
UNIT = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def hexed(xs, ys):
    return [x.hex() for x in xs], [y.hex() for y in ys]


def assert_same_cell(cell, reference, site):
    """``cell`` holds ``reference``'s ring and the plain distances to it."""
    xs, ys = reference.ring()
    records = cell.records
    assert hexed([r[0] for r in records], [r[1] for r in records]) == hexed(xs, ys)
    assert cell.polygon == reference
    plain = []
    for x, y, d2, d in records:
        dx = site.x - x
        dy = site.y - y
        assert d2.hex() == (dx * dx + dy * dy).hex()
        assert d.hex() == site.distance_to(Point(x, y)).hex()
        plain.append((dx * dx + dy * dy, site.distance_to(Point(x, y))))
    far2 = max((d2 for d2, _ in plain), default=0.0)
    far = max((d for _, d in plain), default=0.0)
    assert cell.reach.hex() == (2.0 * far).hex()
    assert cell.reach2.hex() == (4.0 * far2).hex()


@st.composite
def scenes(draw):
    """A CCW convex cell (a box clipped by a few bisectors, or a ring under
    three vertices), its site and a list of probe sites."""
    ox = draw(OFFSETS)
    oy = draw(OFFSETS)

    def point(x, y):
        return Point(ox + x, oy + y)

    site = point(draw(UNIT), draw(UNIT))
    if draw(st.booleans()):
        x0, x1 = sorted((draw(UNIT), draw(UNIT)))
        y0, y1 = sorted((draw(UNIT), draw(UNIT)))
        polygon = ConvexPolygon.from_rect(
            Rect(ox + x0 - 1.0, oy + y0 - 1.0, ox + x1 + 1.0, oy + y1 + 1.0)
        )
        for _ in range(draw(st.integers(0, 3))):
            other = point(draw(UNIT), draw(UNIT))
            if other != site:
                clipped = polygon.clip_halfplane(bisector_halfplane(site, other))
                if not clipped.is_empty():
                    polygon = clipped
    else:
        # One or two vertices: both clips return the ring untouched.
        corners = [point(draw(UNIT), draw(UNIT)) for _ in range(draw(st.integers(1, 2)))]
        polygon = ConvexPolygon._from_ring(
            tuple(p.x for p in corners), tuple(p.y for p in corners)
        )
    probes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "on_vertex", "near", "far_side"]))
        xs, ys = polygon.ring()
        if kind == "free" or not xs:
            probes.append(point(draw(UNIT), draw(UNIT)))
            continue
        i = draw(st.integers(0, len(xs) - 1))
        if kind == "on_vertex":
            # Mirror the site through a vertex, nudged by up to a few
            # 1e-12: that vertex lies on the bisector, within the tolerance.
            wiggle = draw(st.floats(min_value=-4e-12, max_value=4e-12))
            probes.append(
                Point(2.0 * xs[i] - site.x + wiggle, 2.0 * ys[i] - site.y - wiggle)
            )
        elif kind == "near":
            # A site 1e-7 away: a bisector of nearly coincident sites.
            angle = draw(st.floats(min_value=0.0, max_value=6.283))
            probes.append(
                Point(site.x + 1e-7 * math.cos(angle), site.y + 1e-7 * math.sin(angle))
            )
        else:
            # A vertex pushed far past the site: the ring may clip to empty.
            probes.append(Point(4.0 * xs[i] - 3.0 * site.x, 4.0 * ys[i] - 3.0 * site.y))
    return site, polygon, probes


class TestRunningCellMatchesClipHalfplane:
    @given(scene=scenes())
    @settings(max_examples=300, deadline=None)
    def test_every_refinement_matches_the_polygon_clip(self, scene):
        site, polygon, probes = scene
        cell = RunningCell(site, polygon)
        assert_same_cell(cell, polygon, site)
        for other in probes:
            if other == site:
                continue
            polygon = polygon.clip_halfplane(bisector_halfplane(site, other))
            cell.refine(other)
            assert_same_cell(cell, polygon, site)

    def test_clip_to_empty(self):
        site = Point(50.0, 50.0)
        polygon = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0))
        cell = RunningCell(site, polygon)
        cell.refine(Point(5.0, 5.0))
        reference = polygon.clip_halfplane(bisector_halfplane(site, Point(5.0, 5.0)))
        assert reference.ring() == ((), ())
        assert_same_cell(cell, reference, site)
        assert (cell.reach, cell.reach2) == (0.0, 0.0)

    def test_unchanged_clip_keeps_the_records(self):
        site = Point(1.0, 1.0)
        cell = RunningCell(site, ConvexPolygon.from_rect(Rect(0.0, 0.0, 2.0, 2.0)))
        records = cell.records
        cell.refine(Point(100.0, 100.0))
        assert cell.records is records

    def test_vertex_on_the_bisector_near_1e6(self):
        site = Point(1.0e6 + 0.5, 1.0e6 + 0.25)
        polygon = ConvexPolygon.from_rect(Rect(1.0e6, 1.0e6, 1.0e6 + 1.0, 1.0e6 + 1.0))
        corner = Point(1.0e6 + 1.0, 1.0e6 + 1.0)
        other = Point(2.0 * corner.x - site.x, 2.0 * corner.y - site.y)
        cell = RunningCell(site, polygon)
        cell.refine(other)
        assert_same_cell(
            cell, polygon.clip_halfplane(bisector_halfplane(site, other)), site
        )
