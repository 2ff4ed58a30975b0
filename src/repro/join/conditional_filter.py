"""ConditionalFilter: the filter phase of NM-CIJ (Algorithm 5).

Given a convex polygon ``T`` (the Voronoi cell of some ``q ∈ Q``) and the
R-tree ``R_P`` over ``P``, the filter computes a candidate set ``C_P`` of
points whose Voronoi cells *may* intersect ``T``:

* points are visited best-first by distance to the centroid of ``T``;
* a deheaped point ``p`` enters ``C_P`` only if its *approximate* cell
  ``V(p, C_P)`` — the cell induced by the candidates seen so far, a superset
  of the true cell — still intersects ``T``;
* a deheaped non-leaf entry ``e`` is pruned when it intersects no target
  polygon and some candidate ``p ∈ C_P`` places every target polygon inside
  ``Φ(L, p)`` for every side ``L`` of ``e`` (Lemma 3): no point below ``e``
  can then reach ``T`` with its Voronoi cell.

The batch variant processes all cells of one ``R_Q`` leaf at once, which is
what Algorithm 6 uses.

Three shortcuts keep the per-point cost down.  The first two change no
decision, clip or counter of the plain formulation; the third keeps pairs:

* **Running cell.**  The approximate cell is a
  :class:`~repro.geometry.polygon.RunningCell`, as in BatchVoronoi: each
  vertex record carries its squared distance ``d2`` to the examined point
  and the pinned root ``d = sqrt(d2)``, and a bisector clip keeps the
  records of the kept vertices, so a clip takes a root only for its new
  vertices.  Every distance comparison first compares the squared
  distances: ``dist(a, v) < d`` is evaluated as ``a2 < d2 and sqrt(a2) <
  d``.  ``sqrt`` is correctly rounded and monotone, so ``a2 >= d2`` implies
  ``sqrt(a2) >= d`` and the squared test can only reject pairs the plain
  test rejects too.  The Lemma-3 ``<=`` test is ``a2 <= m2 or sqrt(a2) <=
  m`` for the same reason (``a2 <= m2`` implies ``sqrt(a2) <= m``).  Both
  sides keep the pinned ``sqrt(dx*dx + dy*dy)`` formula, so the roots are
  bit-identical to :meth:`Point.distance_to` and
  :meth:`Rect.mindist_point`, and the ring to
  ``clip_halfplane(bisector_halfplane(p, c))``.
* **Early exit.**  The approximate cell of an examined point only ever
  shrinks as bisectors clip it: the clamped interpolation of
  :meth:`ConvexPolygon.clip_halfplane` places every new vertex on an edge
  of the input polygon.  Once the running cell's MBR lies clear of the
  union MBR of the targets by more than a slack, the finished cell's MBR
  would miss it too and the point would be rejected, so the walk stops
  there.  The slack (``BOUNDARY_EPS`` times the coordinate magnitude)
  covers the rounding of the interpolated coordinates, a few ulps per
  clip.
* **Point dominance.**  Lemma 3 for a point (a degenerate MBR): ``p`` is
  rejected unbuilt when some candidate ``c`` beats it at every vertex ``v``
  of the hull of the target vertices by a margin: ``(p-c).(p+c-2v)``, which
  is ``2|p-c|`` times the signed distance of ``v`` from their bisector,
  exceeds ``2m(|p-c| + M)``, with ``M`` the coordinate magnitude, ``m`` the
  early-exit slack and ``m*M/|p-c|`` covering the rounding of a bisector of
  close sites.  Pairs are unchanged: ``V(p, P) ⊆ V(p, C_P) ⊆ H(p, c)``, computed
  cells stay within rounding of ``H(p, c)``, and a dropped ``p`` only
  enlarges later approximate cells.  Counters are not proved identical: the
  SAT can show slivers meeting tip to tip as touching and admit ``p``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon, RunningCell
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.index.rtree import RTree
from repro.voronoi.cell import VoronoiCell

_POINT = 0
_CHILD = 1


@dataclass
class FilterStats:
    """Work counters of the filter phase (feeds Figure 10)."""

    heap_pops: int = 0
    points_examined: int = 0
    points_admitted: int = 0
    entries_pruned_phi: int = 0
    entries_expanded: int = 0

    def merge(self, other: "FilterStats") -> None:
        """Accumulate another stats record into this one."""
        self.heap_pops += other.heap_pops
        self.points_examined += other.points_examined
        self.points_admitted += other.points_admitted
        self.entries_pruned_phi += other.entries_pruned_phi
        self.entries_expanded += other.entries_expanded


def batch_conditional_filter(
    targets: Sequence[ConvexPolygon],
    tree_p: RTree,
    domain: Rect,
    use_phi_pruning: bool = True,
    stats: Optional[FilterStats] = None,
) -> List[Tuple[int, Point]]:
    """Batch variant of Algorithm 5 for a group of target polygons.

    Parameters
    ----------
    targets:
        Non-empty convex polygons (Voronoi cells of one ``R_Q`` leaf).
    tree_p:
        The R-tree over ``P``.
    domain:
        Space domain ``U`` (starting approximation of candidate cells).
    use_phi_pruning:
        When ``False`` the Lemma-3 non-leaf pruning rule is disabled and
        every non-leaf entry is expanded; provided for the ablation bench
        that quantifies the rule's benefit.  Admission (point dominance and
        the approximate cell) is unaffected, so the result set is the same.
    stats:
        Optional shared work counters.

    Returns
    -------
    list of ``(oid, point)``
        The candidate set ``C_P`` in the order candidates were admitted.
    """
    polygons = [t for t in targets if not t.is_empty()]
    if not polygons:
        return []
    if tree_p.is_empty():
        return []
    stats = stats if stats is not None else FilterStats()

    group_center = centroid([polygon.centroid() for polygon in polygons])
    target_mbrs = [polygon.bounding_rect() for polygon in polygons]
    # Per-batch MBR work shared across all targets: the union MBR gives one
    # cheap rejection test before any per-target geometry runs.
    targets_mbr = Rect.union_all(target_mbrs)
    # The early-exit box of _approximate_cell: the union MBR grown by the
    # slack that absorbs the rounding of clipped vertex coordinates, which
    # never leave the domain.
    magnitude = max(
        1.0, abs(domain.xmin), abs(domain.ymin), abs(domain.xmax), abs(domain.ymax)
    )
    margin = BOUNDARY_EPS * magnitude
    reach_box = targets_mbr.expanded(margin)
    # All target vertices, flattened once: the Lemma-3 tests compare per
    # vertex.  Their hull decides point dominance and screens _entry_pruned.
    target_vertices = [v for polygon in polygons for v in polygon.vertices]
    hull = _convex_hull(target_vertices)
    hull2 = [(2.0 * v.x, 2.0 * v.y) for v in hull]
    # Every approximate cell starts from the domain polygon, built once.
    domain_polygon = ConvexPolygon.from_rect(domain)

    candidates: List[Tuple[int, Point]] = []
    dominators: List[Point] = []  # the admitted points, latest useful first
    counter = itertools.count()
    heap: List[tuple] = []

    def push_node(node) -> None:
        kind = _POINT if node.is_leaf else _CHILD
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    push_node(tree_p.read_node(tree_p.root_page))
    while heap:
        _, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if kind == _POINT:
            stats.points_examined += 1
            point: Point = entry.payload
            if _dominated(point, dominators, hull2, margin, magnitude):
                continue
            approx = _approximate_cell(point, candidates, domain_polygon, reach_box)
            if approx is not None and _polygon_hits_any_target(
                approx, targets_mbr, target_mbrs, polygons
            ):
                candidates.append((entry.oid, point))
                dominators.insert(0, point)
                stats.points_admitted += 1
        else:
            if _entry_overlaps_targets(entry.mbr, targets_mbr, target_mbrs, polygons):
                stats.entries_expanded += 1
                push_node(tree_p.read_node(entry.child_page))
                continue
            # Confirm on all target vertices only what passes on the hull, as
            # the screen yields it: the rest fails on every vertex too.
            if use_phi_pruning and _entry_pruned(
                entry.mbr, target_vertices, _blockers(entry.mbr, hull, candidates)
            ):
                stats.entries_pruned_phi += 1
                continue
            stats.entries_expanded += 1
            push_node(tree_p.read_node(entry.child_page))
    return candidates


def _convex_hull(points: Sequence[Point]) -> List[Point]:
    """The convex hull vertices among ``points`` (Andrew's monotone chain)."""
    ordered = sorted(set(points))
    if len(ordered) < 3:
        return ordered
    hull: List[Point] = []
    for chain in (ordered, ordered[::-1]):
        start = len(hull)
        for p in chain:
            while len(hull) >= start + 2:
                o, a = hull[-2], hull[-1]
                if (a.x - o.x) * (p.y - o.y) > (a.y - o.y) * (p.x - o.x):
                    break  # a left turn at ``a``: keep it
                hull.pop()
            hull.append(p)
        hull.pop()
    return hull


def _dominated(
    point: Point,
    dominators: List[Point],
    hull2: Sequence[Tuple[float, float]],
    margin: float,
    magnitude: float,
) -> bool:
    """Point dominance (module docstring) over the doubled hull vertices
    ``hull2``; a dominating site moves to the front of ``dominators``."""
    px = point.x
    py = point.y
    for i, site in enumerate(dominators):
        dx = px - site.x
        dy = py - site.y
        sx = px + site.x
        sy = py + site.y
        bound = 2.0 * margin * (math.sqrt(dx * dx + dy * dy) + magnitude)
        for vx2, vy2 in hull2:
            if dx * (sx - vx2) + dy * (sy - vy2) <= bound:
                break
        else:
            dominators.insert(0, dominators.pop(i))
            return True
    return False


def _approximate_cell(
    point: Point,
    candidates: Sequence[Tuple[int, Point]],
    domain_polygon: ConvexPolygon,
    reach_box: Optional[Rect] = None,
) -> Optional[ConvexPolygon]:
    """``V(p, C_P)``: the cell of ``p`` induced by the current candidates,
    starting from ``domain_polygon``, the space domain as a polygon.

    Because ``C_P ⊆ P``, this polygon is a superset of the exact cell
    ``V(p, P)``; if it already misses every target, the exact cell misses
    them too and ``p`` can be discarded.

    The candidates are applied in ascending distance from ``p`` and skipped
    once they can no longer refine the running polygon (Lemma 1 plus the
    influence-radius shortcut), so the construction cost stays proportional
    to the handful of candidates that actually shape the cell.  With
    ``reach_box`` the walk returns ``None`` as soon as the running cell's
    MBR lies clear of that box (the early exit of the module docstring).
    """
    sqrt = math.sqrt
    px = point.x
    py = point.y
    ordered = []
    for _, other in candidates:
        ox = other.x
        oy = other.y
        if ox != px or oy != py:
            dx = px - ox
            dy = py - oy
            ordered.append((sqrt(dx * dx + dy * dy), other))
    ordered.sort(key=itemgetter(0))
    cell = RunningCell(point, domain_polygon)
    for distance, other in ordered:
        if distance > cell.reach:
            break
        if not cell.point_can_refine(other):
            continue
        cell.refine(other)
        records = cell.records
        if len(records) < 3:
            break
        if reach_box is not None:
            xs = [r[0] for r in records]
            ys = [r[1] for r in records]
            if (
                max(xs) < reach_box.xmin
                or min(xs) > reach_box.xmax
                or max(ys) < reach_box.ymin
                or min(ys) > reach_box.ymax
            ):
                return None
    return cell.polygon


def _polygon_hits_any_target(
    polygon: ConvexPolygon,
    targets_mbr: Rect,
    target_mbrs: Sequence[Rect],
    targets: Sequence[ConvexPolygon],
) -> bool:
    """Whether ``polygon`` intersects at least one target cell.

    The batch-wide union MBR rejects most candidates with one test; a
    per-target MBR test then precedes the exact convex intersection test.
    """
    if polygon.is_empty():
        return False
    mbr = polygon.bounding_rect()
    if not mbr.intersects(targets_mbr):
        return False
    for target_mbr, target in zip(target_mbrs, targets):
        if mbr.intersects(target_mbr) and polygon.intersects(target):
            return True
    return False


def _entry_overlaps_targets(
    mbr: Rect,
    targets_mbr: Rect,
    target_mbrs: Sequence[Rect],
    polygons: Sequence[ConvexPolygon],
) -> bool:
    """Whether the entry MBR intersects any target polygon.

    Such an entry may contain points *inside* a target cell (guaranteed join
    partners), so it can never be pruned.  The union MBR of the whole batch
    is checked first so disjoint entries pay a single rectangle test.
    """
    if not mbr.intersects(targets_mbr):
        return False
    for target_mbr, polygon in zip(target_mbrs, polygons):
        if mbr.intersects(target_mbr) and polygon.intersects_rect(mbr):
            return True
    return False


def _entry_pruned(
    mbr: Rect, target_vertices: Sequence[Point], candidates: Iterable
) -> bool:
    """Lemma-3 pruning: some candidate blocks the whole subtree."""
    return next(_blockers(mbr, target_vertices, candidates), None) is not None


def _blockers(
    mbr: Rect, target_vertices: Sequence[Point], candidates: Iterable
) -> Iterator:
    """The candidates that block the whole subtree below ``mbr``, lazily.

    The paper states the rule as "every target polygon T falls inside
    Φ(L, p) for every side L of the entry MBR".  Because the targets reaching
    this test never intersect the MBR (intersecting entries were already
    expanded), the conjunction over the four sides is equivalent to requiring
    ``dist(p, v) <= mindist(MBR, v)`` for every target vertex ``v``: the
    binding side of Φ is always the one nearest to ``v``, and the distance to
    that side equals the distance to the rectangle itself.  The test below
    uses that equivalent form; the test-suite's Φ oracle
    (``tests/oracles.py``) implements the literal per-side formulation and
    checks that the two agree.

    The filter tries the hull vertices first: the blocked region is convex,
    and failing on a subset (same float expressions) fails on all of them.
    """
    sqrt = math.sqrt
    xmin, ymin, xmax, ymax = mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax
    bounds = None
    for item in candidates:
        if bounds is None:
            # mindist(MBR, v) per target vertex with its square, once per
            # entry and only once there is a candidate to test.
            bounds = []
            for v in target_vertices:
                vx = v.x
                vy = v.y
                dx = xmin - vx if vx < xmin else (vx - xmax if vx > xmax else 0.0)
                dy = ymin - vy if vy < ymin else (vy - ymax if vy > ymax else 0.0)
                m2 = dx * dx + dy * dy
                bounds.append((vx, vy, m2, sqrt(m2)))
        cx = item[1].x
        cy = item[1].y
        for vx, vy, m2, m in bounds:
            ax = cx - vx
            ay = cy - vy
            a2 = ax * ax + ay * ay
            if a2 > m2 and sqrt(a2) > m:
                break
        else:
            yield item


def candidate_cells_from_buffer(
    candidates: Sequence[Tuple[int, Point]],
    reuse_buffer: Dict[int, VoronoiCell],
) -> Tuple[List[Tuple[int, Point]], Dict[int, VoronoiCell]]:
    """Split candidates into those with a buffered exact cell and the rest.

    Helper for the REUSE heuristic of NM-CIJ: returns the candidates that
    still need an exact cell computation and the mapping of reused cells.
    """
    missing: List[Tuple[int, Point]] = []
    reused: Dict[int, VoronoiCell] = {}
    for oid, point in candidates:
        cell = reuse_buffer.get(oid)
        if cell is not None and cell.site == point:
            reused[oid] = cell
        else:
            missing.append((oid, point))
    return missing, reused
