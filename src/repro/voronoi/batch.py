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
* members retire.  Heap keys (``mindist`` to the group centroid ``c``) pop
  in non-decreasing order and ``mindist(e, site_m) >= key - dist(c,
  site_m)``, so once the key exceeds ``reach_m + dist(c, site_m)`` no later
  entry passes member ``m``'s radius pre-check: ``m`` is dropped for the
  rest of the traversal, and once every member is past it the traversal
  stops (the group-wide termination bound, the maximum of those sums; it is
  recomputed only when a refinement lowers the member holding it or lifts
  another above it).  Retirement waits ``slack = BOUNDARY_EPS * M`` longer,
  ``M >= 1`` bounding every site and root-MBR coordinate: the key, the
  centre distance and the pre-check's root are each within ``12 * 2**-53
  * M`` of the true distance (underflow adds under ``2**-536``), so the
  slack is about ``10**7`` times the rounding and a retired member's own
  pre-check provably rejects every later point and MBR.  Only calls that
  answer False are skipped, so cells and counters stay identical.  Active
  members run the point pre-check inline, before the vertex test is called.

Each member is a :class:`~repro.geometry.polygon.RunningCell`: vertex
records ``(x, y, d2, d)``, ``d = sqrt(d2)`` the pinned site-to-vertex
distance, that a refinement clips (only new vertices take a root); the
polygon is built when the traversal ends.  The Lemma-1/2 loops and the
radius pre-check evaluate ``dist < d`` as ``a2 < d2 and sqrt(a2) < d``
(``a2`` the probe's squared distance).  This is exact: ``sqrt`` is
correctly rounded and monotone, so ``a2 >= d2`` implies ``sqrt(a2) >= d``;
the root is bit-identical to :meth:`Point.distance_to` and
:meth:`Rect.mindist_point`.  The radius test ``dist > reach`` uses ``reach2
= 4 * max d2``, whose root is ``reach = 2 * max d`` exactly, so
``sqrt(s2) > reach`` alone decides it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon, RunningCell
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats

_POINT = 0
_CHILD = 1


class _MemberState(RunningCell):
    """A group member: its running cell plus the Lemma-2 test and the
    distance to the group centroid that retirement reads."""

    __slots__ = ("oid", "center_dist")

    def __init__(self, oid: int, site: Point, polygon: ConvexPolygon):
        super().__init__(site, polygon)
        self.oid = oid

    def mbr_can_refine(self, mbr: Rect) -> bool:
        """Lemma 2 with the cheap radius pre-check."""
        sqrt = math.sqrt
        xmin, ymin, xmax, ymax = mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax
        sx = self.sx
        sy = self.sy
        dx = xmin - sx if sx < xmin else (sx - xmax if sx > xmax else 0.0)
        dy = ymin - sy if sy < ymin else (sy - ymax if sy > ymax else 0.0)
        s2 = dx * dx + dy * dy
        if s2 > self.reach2 and sqrt(s2) > self.reach:
            return False
        for vx, vy, d2, d in self.records:
            dx = xmin - vx if vx < xmin else (vx - xmax if vx > xmax else 0.0)
            dy = ymin - vy if vy < ymin else (vy - ymax if vy > ymax else 0.0)
            a2 = dx * dx + dy * dy
            if a2 < d2 and sqrt(a2) < d:
                return True
        return False


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
    sqrt = math.sqrt
    for state in states.values():
        sx = state.sx
        sy = state.sy
        neighbours = []
        for other_state in states.values():
            ox = other_state.sx
            oy = other_state.sy
            if other_state.oid != state.oid and (ox != sx or oy != sy):
                dx = sx - ox
                dy = sy - oy
                neighbours.append((sqrt(dx * dx + dy * dy), other_state.site))
        neighbours.sort(key=itemgetter(0))
        for distance, other in neighbours:
            if distance > state.reach:
                break
            if state.point_can_refine(other):
                state.refine(other)
                stats.refinements += 1

    group_center = centroid([state.site for state in states.values()])
    member_list = list(states.values())
    for state in member_list:
        state.center_dist = state.site.distance_to(group_center)
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
        return max(state.reach + state.center_dist for state in member_list)

    root = tree.read_node(tree.root_page)
    extent = root.mbr()
    slack = BOUNDARY_EPS * max(
        1.0, *map(abs, (extent.xmin, extent.ymin, extent.xmax, extent.ymax)),
        *(abs(c) for state in member_list for c in (state.sx, state.sy)),
    )
    push_node(root)
    bound = termination_bound()
    # Members still tested, in group order, and the smallest retirement key
    # among them (a trigger only: the filter re-reads every reach).
    active = member_list
    retire_key = min(state.reach + state.center_dist for state in active) + slack
    while heap:
        key, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if key > bound:
            # Heap keys only grow (child mindist >= parent mindist), so the
            # popped entry and everything still queued is prunable.
            stats.pruned_entries += 1 + len(heap)
            break
        if key > retire_key:
            active = [s for s in active if key <= s.reach + s.center_dist + slack]
            retire_key = min(s.reach + s.center_dist for s in active) + slack
        if kind == _POINT:
            if _is_group_entry(entry, states):
                continue
            stats.points_examined += 1
            other = entry.payload
            ox, oy = other.x, other.y
            refined_any = False
            stale = False
            for state in active:
                dx = state.sx - ox
                dy = state.sy - oy
                s2 = dx * dx + dy * dy
                if s2 > state.reach2 and sqrt(s2) > state.reach:
                    continue
                if state.point_can_refine(other):
                    held = state.reach + state.center_dist
                    state.refine(other)
                    stats.refinements += 1
                    refined_any = True
                    now = state.reach + state.center_dist
                    stale = stale or held == bound or now > bound
                    retire_key = min(retire_key, now + slack)
            if stale:
                bound = termination_bound()
            if not refined_any:
                stats.pruned_entries += 1
        else:
            if any(state.mbr_can_refine(entry.mbr) for state in active):
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
