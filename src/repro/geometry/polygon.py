"""Convex polygons with halfplane clipping.

Voronoi cells are convex polygons obtained by clipping the space domain with
perpendicular-bisector halfplanes (Equation 2).  The paper's algorithms need:

* clipping a convex polygon by a halfplane (cell refinement, Line 9 of
  Algorithm 1),
* the vertex set ``Γ_c(p_i)`` of the current cell (Lemmas 1 and 2),
* convex/convex and convex/rectangle intersection tests (the join predicate
  itself and the filter steps of Algorithms 5 and 6).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.geometry.halfplane import Halfplane
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS

# Tolerance used by the clipping and intersection predicates; see
# repro.geometry.tolerance for the policy shared with the other predicates.
_EPS = BOUNDARY_EPS


class ConvexPolygon:
    """An immutable convex polygon stored as a counter-clockwise vertex ring.

    The polygon may be empty (no vertices) — the result of clipping a cell
    completely away.  Degenerate polygons (fewer than three distinct
    vertices) are treated as empty for the purposes of area and intersection
    tests, matching how an empty Voronoi-cell approximation behaves.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Sequence[Point] | Iterable[Point]):
        verts = list(vertices)
        self._vertices: Tuple[Point, ...] = tuple(_normalise_ring(verts))

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
        return ConvexPolygon([])

    @classmethod
    def _from_clip_ring(cls, vertices: List[Point]) -> "ConvexPolygon":
        """Fast constructor for rings produced by halfplane clipping.

        Clipping a CCW convex ring with a halfplane yields a CCW convex ring
        whose only possible defect is consecutive (near-)duplicate vertices,
        so the full normalisation pass (orientation check) is skipped.
        """
        cleaned: List[Point] = []
        for v in vertices:
            if not cleaned or _far_enough(cleaned[-1], v):
                cleaned.append(v)
        while len(cleaned) > 1 and not _far_enough(cleaned[0], cleaned[-1]):
            cleaned.pop()
        polygon = cls.__new__(cls)
        polygon._vertices = tuple(cleaned if len(cleaned) >= 3 else cleaned)
        return polygon

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The vertex ring in counter-clockwise order (Γ_c in the paper)."""
        return self._vertices

    def is_empty(self) -> bool:
        """Whether the polygon has no interior (fewer than 3 vertices)."""
        return len(self._vertices) < 3

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvexPolygon({list(self._vertices)!r})"

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Polygon area by the shoelace formula (zero when empty)."""
        if self.is_empty():
            return 0.0
        verts = self._vertices
        total = 0.0
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            total += v.x * w.y - w.x * v.y
        return abs(total) / 2.0

    def centroid(self) -> Point:
        """Area centroid of the polygon.

        Falls back to the vertex average for degenerate polygons; raises
        :class:`ValueError` when the polygon is empty.
        """
        if not self._vertices:
            raise ValueError("centroid of an empty polygon is undefined")
        verts = self._vertices
        if len(verts) < 3:
            sx = sum(v.x for v in verts)
            sy = sum(v.y for v in verts)
            return Point(sx / len(verts), sy / len(verts))
        cx = cy = 0.0
        twice_area = 0.0
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            cross = v.x * w.y - w.x * v.y
            twice_area += cross
            cx += (v.x + w.x) * cross
            cy += (v.y + w.y) * cross
        if abs(twice_area) < _EPS:
            sx = sum(v.x for v in verts)
            sy = sum(v.y for v in verts)
            return Point(sx / len(verts), sy / len(verts))
        factor = 1.0 / (3.0 * twice_area)
        return Point(cx * factor, cy * factor)

    def bounding_rect(self) -> Rect:
        """Tight MBR of the polygon; raises for an empty polygon."""
        if not self._vertices:
            raise ValueError("bounding rectangle of an empty polygon is undefined")
        return Rect.from_points(self._vertices)

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
        if self.is_empty():
            return False
        verts = self._vertices
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            cross = (w.x - v.x) * (p.y - v.y) - (w.y - v.y) * (p.x - v.x)
            if cross < margin * max(1.0, abs(w.x - v.x) + abs(w.y - v.y)):
                return False
        return True

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether the polygon and the rectangle share at least one point."""
        if self.is_empty():
            return False
        return self.intersects(ConvexPolygon.from_rect(rect))

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
        return not _separating_axis_exists(
            self._vertices, other._vertices, eps, boundary_counts=True
        )

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
            self._vertices, other._vertices, eps, boundary_counts=False
        )

    def clip_halfplane(self, hp: Halfplane) -> "ConvexPolygon":
        """Clip the polygon with the closed halfplane ``hp``.

        Returns a new polygon; the result may be empty.  This is the cell
        refinement operation ``V_c(p_i) := V_c(p_i) ∩ ⊥(p_i, p_j)``.
        """
        if self.is_empty():
            return self
        verts = self._vertices
        # The tolerance is expressed in geometric units: |value| / |(a, b)|
        # is the distance to the boundary line, so scaling the epsilon by the
        # normal's norm keeps the behaviour stable for both huge and tiny
        # halfplane coefficients (e.g. bisectors of nearly-coincident sites).
        # sqrt(a*a + b*b) rather than math.hypot: the formula is pinned so
        # pairs and counters stay byte-identical to the committed baselines;
        # hypot may differ from it by one ulp.
        norm = math.sqrt(hp.a * hp.a + hp.b * hp.b)
        tol = _EPS * (norm if norm > 0.0 else max(1.0, abs(hp.c)))
        values = [hp.value(v) for v in verts]
        if all(v <= tol for v in values):
            return self
        if all(v >= -tol for v in values):
            # Entire polygon on or outside the boundary: at best a segment
            # remains, which has no interior.
            return ConvexPolygon.empty()
        out: List[Point] = []
        n = len(verts)
        for i in range(n):
            cur, nxt = verts[i], verts[(i + 1) % n]
            vc, vn = values[i], values[(i + 1) % n]
            cur_in = vc <= tol
            nxt_in = vn <= tol
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                # Clamped: a vertex kept within the tolerance (0 < value <=
                # tol) next to an outside one puts t below 0, and the
                # unclamped point would be extrapolated past the edge.  With
                # t in [0, 1] every new vertex lies on an input edge, so
                # clipping never grows the polygon.
                t = min(max(vc / (vc - vn), 0.0), 1.0)
                out.append(
                    Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))
                )
        return ConvexPolygon._from_clip_ring(out)

    def clip_rect(self, rect: Rect) -> "ConvexPolygon":
        """Clip the polygon to a rectangle (intersection with the domain)."""
        result = self
        for hp in _rect_halfplanes(rect):
            result = result.clip_halfplane(hp)
            if result.is_empty():
                break
        return result

    def intersection(self, other: "ConvexPolygon") -> "ConvexPolygon":
        """Exact intersection of two convex polygons.

        Implemented by clipping ``self`` against every edge halfplane of
        ``other``.  Used when an application needs the actual common
        influence region ``R(p, q)`` (e.g. the collaborative-promotion
        example), not just the boolean join predicate.
        """
        if self.is_empty() or other.is_empty():
            return ConvexPolygon.empty()
        result = self
        for hp in other.edge_halfplanes():
            result = result.clip_halfplane(hp)
            if result.is_empty():
                break
        return result

    def edge_halfplanes(self) -> List[Halfplane]:
        """Halfplanes whose intersection is this polygon (one per edge)."""
        hps: List[Halfplane] = []
        verts = self._vertices
        n = len(verts)
        if n < 3:
            return hps
        for i in range(n):
            v, w = verts[i], verts[(i + 1) % n]
            # Interior lies to the left of edge v->w (CCW ring), i.e.
            # cross((w - v), (x - v)) >= 0.  Rewrite as a*x + b*y <= c.
            a = w.y - v.y
            b = v.x - w.x
            c = a * v.x + b * v.y
            hps.append(Halfplane(a, b, c))
        return hps


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------
def _normalise_ring(verts: List[Point]) -> List[Point]:
    """Deduplicate consecutive vertices and orient the ring CCW."""
    if not verts:
        return []
    cleaned: List[Point] = []
    for v in verts:
        if not cleaned or _far_enough(cleaned[-1], v):
            cleaned.append(v)
    while len(cleaned) > 1 and not _far_enough(cleaned[0], cleaned[-1]):
        cleaned.pop()
    if len(cleaned) < 3:
        return cleaned
    if _signed_area(cleaned) < 0.0:
        cleaned.reverse()
    return cleaned


def _far_enough(a: Point, b: Point) -> bool:
    return abs(a.x - b.x) > _EPS or abs(a.y - b.y) > _EPS


def _signed_area(verts: Sequence[Point]) -> float:
    total = 0.0
    n = len(verts)
    for i in range(n):
        v, w = verts[i], verts[(i + 1) % n]
        total += v.x * w.y - w.x * v.y
    return total / 2.0


def _rect_halfplanes(rect: Rect) -> List[Halfplane]:
    return [
        Halfplane(-1.0, 0.0, -rect.xmin),
        Halfplane(1.0, 0.0, rect.xmax),
        Halfplane(0.0, -1.0, -rect.ymin),
        Halfplane(0.0, 1.0, rect.ymax),
    ]


def _separating_axis_exists(
    a: Sequence[Point], b: Sequence[Point], eps: float, boundary_counts: bool = True
) -> bool:
    """Whether some edge normal of ``a`` or ``b`` separates the two hulls.

    With ``boundary_counts`` (the closed-set test) an axis only separates
    when the hulls are a clear ``eps`` gap apart, so touching hulls count as
    intersecting.  Without it (the open-set test) an axis separates as soon
    as the overlap depth shrinks to within ``eps`` of zero, so a zero-area
    contact counts as separated.
    """
    for polygon, other in ((a, b), (b, a)):
        n = len(polygon)
        for i in range(n):
            v, w = polygon[i], polygon[(i + 1) % n]
            # Outward normal of edge v->w for a CCW ring.
            nx = w.y - v.y
            ny = v.x - w.x
            # Same pinned formula as clip_halfplane.
            norm = math.sqrt(nx * nx + ny * ny)
            if norm < eps:
                continue
            # Max projection of this polygon onto the normal.
            self_max = max((p.x - v.x) * nx + (p.y - v.y) * ny for p in polygon)
            other_min = min((p.x - v.x) * nx + (p.y - v.y) * ny for p in other)
            margin = eps * norm if boundary_counts else -eps * norm
            if other_min > max(self_max, 0.0) + margin:
                return True
    return False
