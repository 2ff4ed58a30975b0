"""BatchVoronoi: concurrent Voronoi-cell computation for a group of points.

Algorithm 2 of the paper.  When the cells of several nearby points (e.g. all
points stored in one leaf node) are needed, computing them one at a time
would read the same neighbourhood of the tree repeatedly.  BatchVoronoi runs
a single best-first traversal keyed by ``mindist`` to the *centroid* of the
group and refines every group member's cell as qualifying points are
discovered; a subtree is pruned only when it can refine none of the cells.

Implementation note: the Lemma-1/Lemma-2 tests loop over the vertex ring of
every group member's current cell.  To keep the batch cheap for large
groups, each member carries its *influence radius* — twice the largest
vertex-to-site distance of its current cell.  By the triangle inequality, a
point (or MBR) farther from the site than that radius can never beat any
vertex, so the per-vertex loop is skipped entirely for most (entry, member)
combinations.  This is a pure constant-factor optimisation; the pruning
decisions are identical to the plain formulation.

Two further hot-path optimisations (the Voronoi step dominates join cost,
see the Figure 7 breakdown):

* bisector clipping is ordered by neighbour distance.  Clipping the nearest
  sites first tightens a cell as early as possible, so later bisectors fail
  the Lemma-1 test and are never clipped at all — strictly fewer clip
  operations for identical cells — and the per-member loop stops at the
  first neighbour beyond the influence radius (every later one is farther
  still).
* the best-first traversal carries a group-wide termination bound.  Heap
  keys (``mindist`` to the group centroid) are popped in non-decreasing
  order, so once the key exceeds ``reach_m + dist(centroid, site_m)`` for
  every member ``m``, no remaining entry can refine any cell (Lemma 1 via
  the triangle inequality) and the whole traversal stops.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point, centroid, dist
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats

_POINT = 0
_CHILD = 1


class _MemberState:
    """Mutable per-member state: the running cell and its influence radius."""

    __slots__ = ("oid", "site", "polygon", "reach", "vertex_dists")

    def __init__(self, oid: int, site: Point, polygon: ConvexPolygon):
        self.oid = oid
        self.site = site
        self.polygon = polygon
        self.reach = 0.0
        self.vertex_dists = []
        self.update_reach()

    def update_reach(self) -> None:
        """Recompute the cached vertex distances and the influence radius."""
        site = self.site
        self.vertex_dists = [(v, site.distance_to(v)) for v in self.polygon.vertices]
        self.reach = (
            2.0 * max(d for _, d in self.vertex_dists) if self.vertex_dists else 0.0
        )

    def point_can_refine(self, other: Point) -> bool:
        """Lemma 1 with the cheap radius pre-check."""
        if self.site.distance_to(other) > self.reach:
            return False
        for gamma, gamma_dist in self.vertex_dists:
            if dist(other, gamma) < gamma_dist:
                return True
        return False

    def mbr_can_refine(self, mbr: Rect) -> bool:
        """Lemma 2 with the cheap radius pre-check."""
        if mbr.mindist_point(self.site) > self.reach:
            return False
        for gamma, gamma_dist in self.vertex_dists:
            if mbr.mindist_point(gamma) < gamma_dist:
                return True
        return False

    def refine(self, other: Point) -> None:
        """Clip the running cell by the bisector with ``other``."""
        self.polygon = self.polygon.clip_halfplane(bisector_halfplane(self.site, other))
        self.update_reach()


def compute_voronoi_cells(
    tree: RTree,
    group: Sequence[Tuple[int, Point]],
    domain: Rect,
    stats: Optional[CellComputationStats] = None,
) -> Dict[int, VoronoiCell]:
    """Compute the exact Voronoi cells of every ``(oid, point)`` in ``group``.

    Parameters
    ----------
    tree:
        R-tree over the full pointset ``P`` (the group members are normally
        stored in it; entries matching a group oid are skipped as refiners
        of their own cell but still refine the other cells of the group).
    group:
        Pairs of object identifier and site; must be non-empty and the oids
        must be unique.
    domain:
        Space domain ``U`` that bounds every cell.
    stats:
        Optional shared work counters.

    Returns
    -------
    dict
        Mapping from oid to the exact :class:`VoronoiCell`.
    """
    members = list(group)
    if not members:
        raise ValueError("BatchVoronoi requires a non-empty group")
    oids = [oid for oid, _ in members]
    if len(set(oids)) != len(oids):
        raise ValueError("group oids must be unique")
    stats = stats if stats is not None else CellComputationStats()

    states: Dict[int, _MemberState] = {
        oid: _MemberState(oid, site, ConvexPolygon.from_rect(domain))
        for oid, site in members
    }
    if tree.is_empty():
        return {
            oid: VoronoiCell(oid, state.site, state.polygon)
            for oid, state in states.items()
        }

    # Points inside the group refine each other directly; doing this first
    # tightens every cell before the traversal starts, which strengthens the
    # Lemma-2 pruning of subtrees.  Neighbours are applied nearest-first so
    # the cell shrinks as quickly as possible and most of the farther
    # bisectors never pass the Lemma-1 test; once a neighbour lies beyond
    # the influence radius every later one does too, so the loop stops.
    for state in states.values():
        neighbours = sorted(
            (
                (state.site.distance_to(other_state.site), other_state.site)
                for other_state in states.values()
                if other_state.oid != state.oid
                and (
                    other_state.site.x != state.site.x
                    or other_state.site.y != state.site.y
                )
            ),
            key=lambda pair: pair[0],
        )
        for distance, other in neighbours:
            if distance > state.reach:
                break
            if state.point_can_refine(other):
                state.refine(other)
                stats.refinements += 1

    group_center = centroid([state.site for state in states.values()])
    member_list = list(states.values())
    center_dists = [state.site.distance_to(group_center) for state in member_list]
    counter = itertools.count()
    heap: List[tuple] = []

    def push_node(node) -> None:
        kind = _POINT if node.is_leaf else _CHILD
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    def termination_bound() -> float:
        # mindist(e, site_m) >= mindist(e, centroid) - dist(centroid, site_m),
        # so an entry with key beyond reach_m + dist(centroid, site_m) for
        # every member cannot pass any member's radius pre-check.
        return max(
            state.reach + center_dist
            for state, center_dist in zip(member_list, center_dists)
        )

    push_node(tree.read_node(tree.root_page))
    bound = termination_bound()
    while heap:
        key, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if key > bound:
            # Heap keys only grow (child mindist >= parent mindist), so the
            # popped entry and everything still queued is prunable.
            stats.pruned_entries += 1 + len(heap)
            break
        if kind == _POINT:
            if _is_group_entry(entry, states):
                continue
            stats.points_examined += 1
            other = entry.payload
            refined_any = False
            for state in member_list:
                if state.point_can_refine(other):
                    state.refine(other)
                    stats.refinements += 1
                    refined_any = True
            if refined_any:
                bound = termination_bound()
            else:
                stats.pruned_entries += 1
        else:
            if any(state.mbr_can_refine(entry.mbr) for state in member_list):
                node = tree.read_node(entry.child_page)
                stats.nodes_expanded += 1
                push_node(node)
            else:
                stats.pruned_entries += 1
    return {
        oid: VoronoiCell(oid, state.site, state.polygon) for oid, state in states.items()
    }


def compute_cells_for_leaf(
    tree: RTree,
    leaf_entries: Iterable[LeafEntry],
    domain: Rect,
    stats: Optional[CellComputationStats] = None,
) -> Dict[int, VoronoiCell]:
    """Convenience wrapper: BatchVoronoi over the points of one leaf node."""
    group = [(entry.oid, entry.payload) for entry in leaf_entries]
    return compute_voronoi_cells(tree, group, domain, stats=stats)


def _is_group_entry(entry: LeafEntry, states: Dict[int, "_MemberState"]) -> bool:
    """Whether a deheaped point entry is one of the group members."""
    state = states.get(entry.oid)
    if state is None:
        return False
    other = entry.payload
    return isinstance(other, Point) and other.x == state.site.x and other.y == state.site.y
