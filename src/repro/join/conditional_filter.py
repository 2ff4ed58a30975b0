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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
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


def conditional_filter(
    target: ConvexPolygon,
    tree_p: RTree,
    domain: Rect,
    use_phi_pruning: bool = True,
    stats: Optional[FilterStats] = None,
) -> List[Tuple[int, Point]]:
    """Candidate points of ``P`` whose cells may intersect ``target``."""
    return batch_conditional_filter(
        [target],
        tree_p,
        domain,
        use_phi_pruning=use_phi_pruning,
        stats=stats,
    )


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
        that quantifies the rule's benefit.  Candidate admission (the
        approximate-cell test) is unaffected, so the result set is the same.
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
    # All target vertices, flattened once: the Lemma-3 pruning test only
    # needs per-vertex distance comparisons (see _entry_pruned).
    target_vertices = [v for polygon in polygons for v in polygon.vertices]

    candidates: List[Tuple[int, Point]] = []
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
            approx = _approximate_cell(point, candidates, domain)
            if _polygon_hits_any_target(approx, targets_mbr, target_mbrs, polygons):
                candidates.append((entry.oid, point))
                stats.points_admitted += 1
        else:
            if _entry_overlaps_targets(entry.mbr, targets_mbr, target_mbrs, polygons):
                stats.entries_expanded += 1
                push_node(tree_p.read_node(entry.child_page))
                continue
            if use_phi_pruning and _entry_pruned(entry.mbr, target_vertices, candidates):
                stats.entries_pruned_phi += 1
                continue
            stats.entries_expanded += 1
            push_node(tree_p.read_node(entry.child_page))
    return candidates


def _approximate_cell(
    point: Point, candidates: Sequence[Tuple[int, Point]], domain: Rect
) -> ConvexPolygon:
    """``V(p, C_P)``: the cell of ``p`` induced by the current candidates.

    Because ``C_P ⊆ P``, this polygon is a superset of the exact cell
    ``V(p, P)``; if it already misses every target, the exact cell misses
    them too and ``p`` can be discarded.

    The candidates are applied in ascending distance from ``p`` and skipped
    once they can no longer refine the running polygon (Lemma 1 plus the
    influence-radius shortcut), so the construction cost stays proportional
    to the handful of candidates that actually shape the cell.
    """
    polygon = ConvexPolygon.from_rect(domain)
    ordered = sorted(
        (
            (point.distance_to(other), other)
            for _, other in candidates
            if other.x != point.x or other.y != point.y
        ),
        key=lambda pair: pair[0],
    )
    # Distances from the examined point to the current cell vertices are
    # cached so the Lemma-1 check costs one distance per (candidate, vertex).
    vertex_dists = [(v, point.distance_to(v)) for v in polygon.vertices]
    reach = 2.0 * max(d for _, d in vertex_dists)
    for distance, other in ordered:
        if distance > reach:
            break
        if not any(other.distance_to(v) < d for v, d in vertex_dists):
            continue
        polygon = polygon.clip_halfplane(bisector_halfplane(point, other))
        if polygon.is_empty():
            break
        vertex_dists = [(v, point.distance_to(v)) for v in polygon.vertices]
        reach = 2.0 * max(d for _, d in vertex_dists)
    return polygon


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
    mbr: Rect,
    target_vertices: Sequence[Point],
    candidates: Sequence[Tuple[int, Point]],
) -> bool:
    """Lemma-3 pruning: some candidate blocks the whole subtree.

    The paper states the rule as "every target polygon T falls inside
    Φ(L, p) for every side L of the entry MBR".  Because the targets reaching
    this test never intersect the MBR (intersecting entries were already
    expanded), the conjunction over the four sides is equivalent to requiring
    ``dist(p, v) <= mindist(MBR, v)`` for every target vertex ``v``: the
    binding side of Φ is always the one nearest to ``v``, and the distance to
    that side equals the distance to the rectangle itself.  The test below
    uses that equivalent form; :func:`repro.geometry.influence.polygon_within_phi`
    implements the literal per-side formulation and the test-suite checks
    that the two agree.
    """
    for _, candidate in candidates:
        if all(
            candidate.distance_to(v) <= mbr.mindist_point(v) for v in target_vertices
        ):
            return True
    return False


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
