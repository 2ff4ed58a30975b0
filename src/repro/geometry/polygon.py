"""Convex polygons with halfplane clipping.

Voronoi cells are convex polygons obtained by clipping the space domain with
perpendicular-bisector halfplanes (Equation 2).  The paper's algorithms need:

* clipping a convex polygon by a halfplane (cell refinement, Line 9 of
  Algorithm 1),
* the vertex set ``Γ_c(p_i)`` of the current cell (Lemmas 1 and 2),
* convex/convex and convex/rectangle intersection tests (the join predicate
  itself and the filter steps of Algorithms 5 and 6).

The CCW ring is stored flat, as parallel float tuples ``_xs``/``_ys``;
the separating-axis tests, containment and the MBR loop over those floats,
and :class:`Point` objects are built only when a caller reads
:attr:`ConvexPolygon.vertices`.  One clip loop, :func:`_clip`, walks a ring
of vertex records: ``(x, y)`` pairs for :meth:`ConvexPolygon.clip_halfplane`
and ``(x, y, d2, d)`` for a :class:`RunningCell`, the cell under refinement
that BatchVoronoi and the ConditionalFilter share.  The loops evaluate the
same expressions in the same order as a plain ``Point``-ring formulation
(the test-suite's reference: the pinned ``sqrt(a*a + b*b)``,
``a*x + b*y - c``, the clamped ``t``, the ``eps * norm`` margins), so rings
are bit-identical to it.  The SAT stops scanning the other ring at the
first projection ``<= bound``, which is exact: ``min(projections) > bound``
iff every projection is ``> bound``.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.geometry.halfplane import Halfplane
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS

# Tolerance used by the clipping and intersection predicates; see
# repro.geometry.tolerance for the policy shared with the other predicates.
_EPS = BOUNDARY_EPS

Ring = Tuple[float, ...]

#: The ``d2`` field of a :class:`RunningCell` vertex record.
_D2 = itemgetter(2)


class ConvexPolygon:
    """An immutable convex polygon stored as a counter-clockwise vertex ring.

    The polygon may be empty (no vertices) — the result of clipping a cell
    completely away.  Degenerate polygons (fewer than three distinct
    vertices) are treated as empty for the purposes of area and intersection
    tests, matching how an empty Voronoi-cell approximation behaves.
    """

    __slots__ = ("_xs", "_ys", "_points")

    def __init__(self, vertices: Sequence[Point] | Iterable[Point]):
        verts = list(vertices)
        xs, ys = _clean_ring([v.x for v in verts], [v.y for v in verts])
        if len(xs) >= 3 and _shoelace(xs, ys) < 0.0:
            xs.reverse()
            ys.reverse()
        self._xs: Ring = tuple(xs)
        self._ys: Ring = tuple(ys)
        self._points = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_rect(rect: Rect) -> "ConvexPolygon":
        """The rectangle as a convex polygon (used for the space domain U)."""
        return ConvexPolygon(rect.corners())

    @staticmethod
    def empty() -> "ConvexPolygon":
        """An empty polygon."""
        return ConvexPolygon._from_ring((), ())

    @classmethod
    def _from_ring(cls, xs: Ring, ys: Ring) -> "ConvexPolygon":
        """Trusted constructor for a ring that is already a normalised CCW
        ring (clip output, a decoded page, a transported REUSE carry).

        No re-normalisation runs, so a stored ring round-trips bit for bit.
        """
        polygon = cls.__new__(cls)
        polygon._xs = xs
        polygon._ys = ys
        polygon._points = None
        return polygon

    def __reduce__(self):
        # Ship the flat ring only, never the lazily built Point tuple.
        return (ConvexPolygon._from_ring, (self._xs, self._ys))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The vertex ring in counter-clockwise order (Γ_c in the paper).

        The ``Point`` tuple is built from the flat ring on first read and
        then cached; hot code should read :meth:`ring` instead.
        """
        if self._points is None:
            self._points = tuple(map(Point, self._xs, self._ys))
        return self._points

    def ring(self) -> Tuple[Ring, Ring]:
        """The counter-clockwise ring as parallel ``(xs, ys)`` float tuples."""
        return self._xs, self._ys

    def is_empty(self) -> bool:
        """Whether the polygon has no interior (fewer than 3 vertices)."""
        return len(self._xs) < 3

    def __len__(self) -> int:
        return len(self._xs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._xs == other._xs and self._ys == other._ys

    def __hash__(self) -> int:
        return hash((self._xs, self._ys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvexPolygon({list(self.vertices)!r})"

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Polygon area by the shoelace formula (zero when empty)."""
        if self.is_empty():
            return 0.0
        return abs(_shoelace(self._xs, self._ys)) / 2.0

    def centroid(self) -> Point:
        """Area centroid of the polygon.

        Falls back to the vertex average for degenerate polygons; raises
        :class:`ValueError` when the polygon is empty.
        """
        xs, ys = self._xs, self._ys
        n = len(xs)
        if not n:
            raise ValueError("centroid of an empty polygon is undefined")
        cx = cy = twice_area = 0.0
        for i in range(n if n >= 3 else 0):
            j = i + 1 if i + 1 < n else 0
            cross = xs[i] * ys[j] - xs[j] * ys[i]
            twice_area += cross
            cx += (xs[i] + xs[j]) * cross
            cy += (ys[i] + ys[j]) * cross
        if abs(twice_area) < _EPS:
            return Point(sum(xs) / n, sum(ys) / n)
        factor = 1.0 / (3.0 * twice_area)
        return Point(cx * factor, cy * factor)

    def bounding_rect(self) -> Rect:
        """Tight MBR of the polygon; raises for an empty polygon."""
        xs, ys = self._xs, self._ys
        if not xs:
            raise ValueError("bounding rectangle of an empty polygon is undefined")
        return Rect(min(xs), min(ys), max(xs), max(ys))

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point, eps: float = _EPS) -> bool:
        """Whether ``p`` lies inside or on the boundary of the polygon."""
        return self._contains_point(p, -eps)

    def contains_point_interior(self, p: Point, eps: float = _EPS) -> bool:
        """Whether ``p`` lies strictly inside the polygon, by an ``eps``
        margin on every edge.

        The strict counterpart of :meth:`contains_point`: a point within
        ``eps`` of the boundary is rejected, so a positive answer implies a
        positive-area overlap with any other region whose closure contains
        ``p`` — the guarantee the join algorithms' containment shortcut
        needs under the exclude-zero-area tie convention.
        """
        return self._contains_point(p, eps)

    def _contains_point(self, p: Point, margin: float) -> bool:
        """Shared edge loop: ``p`` must clear every edge by ``margin``
        (negative = closed test with tolerance, positive = strict)."""
        xs, ys = self._xs, self._ys
        n = len(xs)
        if n < 3:
            return False
        px, py = p.x, p.y
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            vx, vy = xs[i], ys[i]
            ex = xs[j] - vx
            ey = ys[j] - vy
            cross = ex * (py - vy) - ey * (px - vx)
            scale = abs(ex) + abs(ey)
            if cross < margin * (scale if scale > 1.0 else 1.0):
                return False
        return True

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether the polygon and the rectangle share at least one point.

        The rectangle may be degenerate (a segment or a single point, e.g.
        the MBR of colinear sites): its corner ring keeps every distinct
        corner, so a segment still contributes its normals to the
        separating-axis test and a point reduces to point-in-polygon.
        """
        if self.is_empty():
            return False
        # Equal corners of a rect are always cyclically consecutive, so
        # dropping repeats keeps exactly the distinct corners in CCW order.
        lo, hi = (rect.xmin, rect.ymin), (rect.xmax, rect.ymax)
        corners = dict.fromkeys((lo, (hi[0], lo[1]), hi, (lo[0], hi[1])))
        return not _separating_axis_exists(self.ring(), tuple(zip(*corners)), _EPS)

    def intersects(self, other: "ConvexPolygon", eps: float = _EPS) -> bool:
        """Convex/convex intersection via the separating axis theorem.

        Touching polygons (sharing only boundary) count as intersecting —
        the *closed-set* test.  The filter phases use it because it is
        conservative: a candidate whose approximate cell merely touches a
        target must survive until the exact predicate decides.  The join
        predicate itself is :meth:`intersects_interior`.
        """
        if self.is_empty() or other.is_empty():
            return False
        return not _separating_axis_exists(self.ring(), other.ring(), eps)

    def intersects_interior(self, other: "ConvexPolygon", eps: float = _EPS) -> bool:
        """Whether the polygons overlap with positive area (open-set test).

        This is the library's boundary-tie convention for the join
        predicate: two cells that share only a zero-area contact (an edge
        segment or a single vertex, e.g. when two bisectors fall exactly
        colinear) do **not** join.  Separation is accepted as soon as the
        overlap depth along some edge normal is within ``eps`` of zero, so
        the test is the epsilon-guarded complement of :meth:`intersects`.

        For convex polygons the separating-axis test over both polygons'
        edge normals is complete for weak separation as well: a line that
        weakly separates two convex polygons touching at a vertex or edge
        can always be chosen parallel to an edge of one of them (the
        separating normal cone at the contact is spanned by edge normals).
        """
        if self.is_empty() or other.is_empty():
            return False
        return not _separating_axis_exists(
            self.ring(), other.ring(), eps, boundary_counts=False
        )

    def clip_halfplane(self, hp: Halfplane) -> "ConvexPolygon":
        """Clip the polygon with the closed halfplane ``hp``.

        Returns a new polygon; the result may be empty.  This is the cell
        refinement operation ``V_c(p_i) := V_c(p_i) ∩ ⊥(p_i, p_j)``.
        """
        return self._clip_all((hp,))

    def intersection(self, other: "ConvexPolygon") -> "ConvexPolygon":
        """Exact intersection of two convex polygons.

        Implemented by clipping ``self`` against every edge halfplane of
        ``other``.  Used when an application needs the actual common
        influence region ``R(p, q)`` (e.g. the collaborative-promotion
        example), not just the boolean join predicate.
        """
        if self.is_empty() or other.is_empty():
            return ConvexPolygon.empty()
        return self._clip_all(other.edge_halfplanes())

    def _clip_all(self, halfplanes: Iterable[Halfplane]) -> "ConvexPolygon":
        """Clip by each halfplane in turn, on one ring of ``(x, y)`` records,
        until the ring has no interior; ``self`` if nothing is cut."""
        ring = records = list(zip(self._xs, self._ys))
        for hp in halfplanes:
            ring = _clip(ring, hp.a, hp.b, hp.c, _xy)
            if len(ring) < 3:
                break
        if ring is records:
            return self
        return ConvexPolygon._from_ring(
            tuple([r[0] for r in ring]), tuple([r[1] for r in ring])
        )

    def edge_halfplanes(self) -> List[Halfplane]:
        """Halfplanes whose intersection is this polygon (one per edge)."""
        hps: List[Halfplane] = []
        xs, ys = self._xs, self._ys
        n = len(xs)
        if n < 3:
            return hps
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            # Interior lies to the left of edge v->w (CCW ring), i.e.
            # cross((w - v), (x - v)) >= 0.  Rewrite as a*x + b*y <= c.
            a = ys[j] - ys[i]
            b = xs[i] - xs[j]
            c = a * xs[i] + b * ys[i]
            hps.append(Halfplane(a, b, c))
        return hps


# ----------------------------------------------------------------------
# the running cell of a site
# ----------------------------------------------------------------------
class RunningCell:
    """A site's cell under refinement (BatchVoronoi, the ConditionalFilter).

    The CCW ring is a list of vertex records ``(x, y, d2, d)``, ``d2`` the
    squared site-to-vertex distance and ``d = sqrt(d2)`` the pinned one.  A
    clip keeps the kept vertices' records, so it takes a root only for its
    new vertices.  ``reach = 2 * max d`` is the influence radius and
    ``reach2 = 4 * max d2`` its square, exactly.  The ring stays bit-identical
    to ``clip_halfplane(bisector_halfplane(site, other))``.
    """

    __slots__ = ("site", "sx", "sy", "records", "reach", "reach2")

    def __init__(self, site: Point, polygon: ConvexPolygon):
        self.site = site
        self.sx = site.x
        self.sy = site.y
        self.records = list(map(self._record, *polygon.ring()))
        self._set_reach()

    def _record(self, x: float, y: float) -> Tuple[float, float, float, float]:
        dx = self.sx - x
        dy = self.sy - y
        d2 = dx * dx + dy * dy
        return (x, y, d2, math.sqrt(d2))

    def _set_reach(self) -> None:
        farthest = max(self.records, key=_D2, default=(0.0, 0.0, 0.0, 0.0))
        self.reach = 2.0 * farthest[3]
        self.reach2 = 4.0 * farthest[2]

    @property
    def polygon(self) -> ConvexPolygon:
        """The current cell as a :class:`ConvexPolygon`."""
        records = self.records
        return ConvexPolygon._from_ring(
            tuple([r[0] for r in records]), tuple([r[1] for r in records])
        )

    def point_can_refine(self, other: Point) -> bool:
        """Lemma 1 with the radius pre-check, each ``dist < d`` evaluated as
        ``a2 < d2 and sqrt(a2) < d`` (exact: ``sqrt`` is monotone)."""
        sqrt = math.sqrt
        ox = other.x
        oy = other.y
        dx = self.sx - ox
        dy = self.sy - oy
        s2 = dx * dx + dy * dy
        if s2 > self.reach2 and sqrt(s2) > self.reach:
            return False
        for vx, vy, d2, d in self.records:
            ax = ox - vx
            ay = oy - vy
            a2 = ax * ax + ay * ay
            if a2 < d2 and sqrt(a2) < d:
                return True
        return False

    def refine(self, other: Point) -> None:
        """Clip the cell by the bisector with ``other``; ``a, b, c`` are
        :func:`~repro.geometry.halfplane.bisector_halfplane`'s expressions."""
        sx = self.sx
        sy = self.sy
        ox = other.x
        oy = other.y
        a = 2.0 * (ox - sx)
        b = 2.0 * (oy - sy)
        c = (ox * ox + oy * oy) - (sx * sx + sy * sy)
        records = _clip(self.records, a, b, c, self._record)
        if records is not self.records:
            self.records = records
            self._set_reach()


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------
def _xy(x: float, y: float) -> Tuple[float, float]:
    return (x, y)


def _clip(records: List[tuple], a: float, b: float, c: float, make) -> List[tuple]:
    """Clip a CCW ring of records (``r[0], r[1]`` the coordinates) by the
    closed halfplane ``a*x + b*y <= c``.  Kept vertices keep their records,
    ``make(x, y)`` builds each new one, and the input list itself comes back
    when nothing is cut (or the ring has under three vertices)."""
    n = len(records)
    if n < 3:
        return records
    # The tolerance is expressed in geometric units: |value| / |(a, b)| is
    # the distance to the boundary line, so scaling the epsilon by the
    # normal's norm keeps the behaviour stable for both huge and tiny
    # halfplane coefficients (e.g. bisectors of nearly-coincident sites).
    # sqrt(a*a + b*b) rather than math.hypot: the formula is pinned so pairs
    # and counters stay byte-identical to the committed baselines; hypot may
    # differ from it by one ulp.
    norm = math.sqrt(a * a + b * b)
    tol = _EPS * (norm if norm > 0.0 else max(1.0, abs(c)))
    values = [a * r[0] + b * r[1] - c for r in records]
    # The values are finite, so max/min decide "every value <= tol" and
    # "every value >= -tol" exactly.
    if max(values) <= tol:
        return records
    if min(values) >= -tol:
        # Entire polygon on or outside the boundary: at best a segment
        # remains, which has no interior.
        return []
    out: List[tuple] = []
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        vc, vn = values[i], values[j]
        cur_in = vc <= tol
        # _clean_ring's de-duplication, inlined (same test, same order).
        if cur_in:
            r = records[i]
            if not out or abs(out[-1][0] - r[0]) > _EPS or abs(out[-1][1] - r[1]) > _EPS:
                out.append(r)
        if cur_in != (vn <= tol):
            # Clamped: a vertex kept within the tolerance (0 < value <= tol)
            # next to an outside one puts t below 0, and the unclamped point
            # would be extrapolated past the edge.  With t in [0, 1] every
            # new vertex lies on an input edge, so clipping never grows the
            # polygon.
            t = vc / (vc - vn)
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            xi, yi = records[i][0], records[i][1]
            x = xi + t * (records[j][0] - xi)
            y = yi + t * (records[j][1] - yi)
            if not out or abs(out[-1][0] - x) > _EPS or abs(out[-1][1] - y) > _EPS:
                out.append(make(x, y))
    # Clipping a CCW convex ring with a halfplane yields a CCW convex ring
    # whose only possible defect is consecutive (near-)duplicate vertices,
    # so the orientation check of ConvexPolygon.__init__ is skipped.
    _drop_closing_duplicates(out)
    return out


def _clean_ring(xs: Sequence[float], ys: Sequence[float]) -> Tuple[List[float], ...]:
    """Drop consecutive (near-)duplicate vertices, the closing pair included."""
    out: List[Tuple[float, float]] = []
    for x, y in zip(xs, ys):
        if not out or abs(out[-1][0] - x) > _EPS or abs(out[-1][1] - y) > _EPS:
            out.append((x, y))
    _drop_closing_duplicates(out)
    return [r[0] for r in out], [r[1] for r in out]


def _drop_closing_duplicates(ring: List[tuple]) -> None:
    while len(ring) > 1 and not (
        abs(ring[0][0] - ring[-1][0]) > _EPS or abs(ring[0][1] - ring[-1][1]) > _EPS
    ):
        ring.pop()


def _shoelace(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Twice the signed area of the ring (positive when CCW)."""
    total = 0.0
    n = len(xs)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        total += xs[i] * ys[j] - xs[j] * ys[i]
    return total


def _separating_axis_exists(
    a: Tuple[Ring, Ring], b: Tuple[Ring, Ring], eps: float, boundary_counts: bool = True
) -> bool:
    """Whether some edge normal of ring ``a`` or ring ``b`` (each an
    ``(xs, ys)`` pair) separates the two hulls.

    With ``boundary_counts`` (the closed-set test) an axis only separates
    when the hulls are a clear ``eps`` gap apart, so touching hulls count as
    intersecting.  Without it (the open-set test) an axis separates as soon
    as the overlap depth shrinks to within ``eps`` of zero, so a zero-area
    contact counts as separated.
    """
    sqrt = math.sqrt
    sign = eps if boundary_counts else -eps
    for (xs, ys), (oxs, oys) in ((a, b), (b, a)):
        n = len(xs)
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            vx, vy = xs[i], ys[i]
            # Outward normal of edge v->w for a CCW ring.
            nx = ys[j] - vy
            ny = vx - xs[j]
            # Same pinned formula as clip_halfplane.
            norm = sqrt(nx * nx + ny * ny)
            if norm < eps:
                continue
            # max(0, projections of this ring): v itself projects to 0.
            bound = 0.0
            for x, y in zip(xs, ys):
                proj = (x - vx) * nx + (y - vy) * ny
                if proj > bound:
                    bound = proj
            bound += sign * norm
            # Separated iff every projection of the other ring is > bound.
            for x, y in zip(oxs, oys):
                if (x - vx) * nx + (y - vy) * ny <= bound:
                    break
            else:
                return True
    return False
