"""Reference implementations the test-suite compares the library against.

Nothing in ``src/`` calls these; they are the tests' ground truth, written
in the most literal form of the paper's definitions:

* the per-side Φ(L, p) formulation of Lemma 3 (Equation 3), against which
  the ConditionalFilter's vertex-distance rule ``_entry_pruned`` is checked,
  with the :class:`Segment` it is stated on;
* :func:`brute_force_cij_pairs`, the pair set of ``--method brute``;
* :func:`definitional_cij_pairs`, a second CIJ oracle built on the
  *definition* of the join rather than on cell intersection;
* :func:`synchronous_join`, the classic single-stack synchronous traversal
  that FM-CIJ's partitioned traversal must reproduce;
* :func:`units_in_process`, the unit pipeline of the fork pool and the
  nodes, run in the calling process, against which the read path of one
  unit and the merged output of the process planes are checked.

The Φ(L, p) influence region
----------------------------
Given a point ``p`` and a line segment ``L`` (a side of a non-leaf R-tree
MBR), Φ(L, p) is the set of locations closer to ``p`` than to *any* location
on ``L``:

    Φ(L, p) = { b | dist(p, b) <= mindist(L, b) }

The paper evaluates membership with a piecewise function: the perpendiculars
to ``L`` through its endpoints split the plane into three partitions A1, A2,
A3; inside the middle strip the boundary of Φ is a parabola (point/line
bisector) and in the outer partitions it is the perpendicular bisector of
``p`` and the corresponding endpoint.  Both that piecewise formulation and a
direct distance-based evaluation are provided here, and the tests check that
they agree.

Lemma 3 then states that a convex polygon ``T`` lies entirely inside
Φ(L, p) iff every vertex of ``T`` does, which gives the constant-per-vertex
pruning check used by the ConditionalFilter (Algorithm 5).

The definitional oracle
-----------------------
For each candidate pair the common region is computed and a witness
location inside it is checked by exhaustive nearest-neighbour comparison
(there exists a location closer to ``p`` than all of ``P`` and closer to
``q`` than all of ``Q``).  Having two oracles that agree protects the tests
against a bug shared by the polygon machinery.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

from repro.engine.coordinator import UnitCoordinator
from repro.engine.executors import _execute_shard
from repro.geometry.point import Point, dist
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import CONTAINMENT_EPS, TIE_SLACK
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.join.baseline import brute_force_cij
from repro.join.synchronous import RefinePredicate, join_from_seeds
from repro.voronoi.diagram import brute_force_diagram

_EPS = CONTAINMENT_EPS


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Segment:
    """A closed line segment between two endpoints ``a`` and ``b``."""

    a: Point
    b: Point

    __slots__ = ("a", "b")

    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.a.distance_to(self.b)

    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    def project_parameter(self, p: Point) -> float:
        """Parameter ``t`` of the orthogonal projection of ``p`` onto the
        supporting line, with ``t=0`` at ``a`` and ``t=1`` at ``b``.

        For a degenerate (zero-length) segment the parameter is defined as 0.
        """
        dx = self.b.x - self.a.x
        dy = self.b.y - self.a.y
        denom = dx * dx + dy * dy
        if denom == 0.0:
            return 0.0
        return ((p.x - self.a.x) * dx + (p.y - self.a.y) * dy) / denom

    def point_at(self, t: float) -> Point:
        """The point ``a + t * (b - a)`` on the supporting line."""
        return Point(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        )

    def closest_point_to(self, p: Point) -> Point:
        """The point of the (closed) segment nearest to ``p``."""
        t = self.project_parameter(p)
        t = min(1.0, max(0.0, t))
        return self.point_at(t)

    def distance_to_point(self, p: Point) -> float:
        """``mindist(L, p)``: distance from ``p`` to the closest location on
        the segment.  This is exactly the quantity appearing in Equation 3."""
        c = self.closest_point_to(p)
        return math.hypot(c.x - p.x, c.y - p.y)


# ----------------------------------------------------------------------
# the Φ(L, p) influence region and Lemma 3
# ----------------------------------------------------------------------
def phi_contains_point(segment: Segment, p: Point, location: Point) -> bool:
    """Whether ``location`` lies in Φ(L, p) for ``L = segment``.

    Direct evaluation of Equation 3: compare the distance to ``p`` with the
    minimum distance to the segment.
    """
    return dist(p, location) <= segment.distance_to_point(location) + _EPS


def phi_contains_point_piecewise(segment: Segment, p: Point, location: Point) -> bool:
    """Piecewise evaluation of Φ(L, p) membership as described in the paper.

    The perpendiculars to ``L`` at its endpoints partition the plane into
    A1 (before the first endpoint), A2 (the orthogonal strip over ``L``) and
    A3 (past the second endpoint).  In A1/A3 the nearest location on ``L`` is
    the corresponding endpoint, so membership reduces to a linear halfplane
    test against that endpoint's bisector with ``p``.  In A2 the nearest
    location is the orthogonal projection, giving the parabolic test
    ``dist(p, b) <= distance-to-supporting-line``.
    """
    t = segment.project_parameter(location)
    if segment.length() <= _EPS or t <= 0.0:
        # Partition A1: the closest location on L is endpoint a.
        nearest = segment.a
    elif t >= 1.0:
        # Partition A3: the closest location on L is endpoint b.
        nearest = segment.b
    else:
        # Partition A2: the closest location is the orthogonal projection.
        nearest = segment.point_at(t)
    return dist(p, location) <= dist(nearest, location) + _EPS


def polygon_within_phi(polygon: ConvexPolygon, segment: Segment, p: Point) -> bool:
    """Lemma 3: ``polygon`` ⊆ Φ(L, p) iff every vertex is in Φ(L, p).

    Both Φ(L, p) and the polygon are convex, so vertex containment implies
    full containment.  Empty polygons are vacuously contained.
    """
    return all(phi_contains_point(segment, p, v) for v in polygon.vertices)


def rect_sides(rect: Rect) -> List[Segment]:
    """The four sides of an MBR, as segments, for the Lemma-3 entry test.

    The paper prunes a non-leaf entry ``e`` when some already-seen candidate
    ``p`` satisfies "T falls in Φ(L, p) for *all* sides L of e": Voronoi
    cells of points inside ``e`` can then never reach ``T``.
    """
    c = rect.corners()
    return [
        Segment(c[0], c[1]),
        Segment(c[1], c[2]),
        Segment(c[2], c[3]),
        Segment(c[3], c[0]),
    ]


def entry_pruned_by_candidate(rect: Rect, polygon: ConvexPolygon, candidate: Point) -> bool:
    """Whether candidate point ``candidate`` prunes the subtree MBR ``rect``.

    Implements the non-leaf pruning rule of Section IV-A: the subtree rooted
    at ``rect`` cannot contain any point whose Voronoi cell intersects the
    target cell ``polygon`` if ``polygon`` lies inside Φ(L, candidate) for
    every side ``L`` of ``rect``.  Degenerate (point) MBRs are handled by the
    same test because their sides degenerate to points.
    """
    if polygon.is_empty():
        return True
    return all(
        polygon_within_phi(polygon, side, candidate) for side in rect_sides(rect)
    )


# ----------------------------------------------------------------------
# CIJ oracles
# ----------------------------------------------------------------------
def brute_force_cij_pairs(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    domain: Rect,
    oids_p: Optional[Sequence[int]] = None,
    oids_q: Optional[Sequence[int]] = None,
) -> Set[Tuple[int, int]]:
    """The oracle result as a set of ``(p_oid, q_oid)`` pairs."""
    return brute_force_cij(points_p, points_q, domain, oids_p, oids_q).pair_set()


def definitional_cij_pairs(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    domain: Rect,
    oids_p: Optional[Sequence[int]] = None,
    oids_q: Optional[Sequence[int]] = None,
) -> Set[Tuple[int, int]]:
    """Second oracle: verify each intersecting pair by a witness location.

    For every pair whose common region has positive area, the centroid of
    that region is used as a witness ``r`` and checked to be at least as
    close to ``p`` as to every other point of ``P`` (and symmetrically for
    ``q``).  Pairs whose cells only touch in a zero-area contact (a
    degenerate segment or point region) are excluded — the library-wide
    boundary-tie convention shared with :meth:`VoronoiCell.intersects`.
    """
    if oids_p is None:
        oids_p = list(range(len(points_p)))
    if oids_q is None:
        oids_q = list(range(len(points_q)))
    diagram_p = brute_force_diagram(points_p, domain, oids=oids_p)
    diagram_q = brute_force_diagram(points_q, domain, oids=oids_q)
    # The witness test compares two distances with a tie slack; like the
    # dynamic invalidation scan it must use the library-wide constant, not
    # a private epsilon.
    tolerance = TIE_SLACK
    result: Set[Tuple[int, int]] = set()
    for cell_p in diagram_p:
        for cell_q in diagram_q:
            region = cell_p.common_region(cell_q)
            if region.is_empty() or region.area() <= tolerance:
                # A degenerate region (fewer than three vertices, or three
                # or more colinear ones with vanishing area) is a zero-area
                # contact, which the tie convention excludes from the join.
                continue
            witness = region.centroid()
            if _is_witness(witness, cell_p.site, points_p, tolerance) and _is_witness(
                witness, cell_q.site, points_q, tolerance
            ):
                result.add((cell_p.oid, cell_q.oid))
    return result


def _is_witness(location: Point, site: Point, points: Sequence[Point], tol: float) -> bool:
    """Whether ``location`` is (weakly) closer to ``site`` than to all points."""
    base = dist(location, site)
    for other in points:
        if dist(location, other) < base - tol:
            return False
    return True


# ----------------------------------------------------------------------
# the single-stack synchronous join
# ----------------------------------------------------------------------
def synchronous_join(
    tree_a: RTree,
    tree_b: RTree,
    refine: Optional[RefinePredicate] = None,
) -> Iterator[Tuple[LeafEntry, LeafEntry]]:
    """Yield pairs of leaf entries with intersecting MBRs from both trees.

    Parameters
    ----------
    tree_a, tree_b:
        The two indexes to join.
    refine:
        Optional exact predicate applied to MBR-intersecting leaf pairs
        (e.g. convex polygon intersection).  When omitted, MBR intersection
        alone qualifies a pair.
    """
    if tree_a.is_empty() or tree_b.is_empty():
        return
    yield from join_from_seeds(
        tree_a, tree_b, ((tree_a.root_page, tree_b.root_page),), refine=refine
    )


# ----------------------------------------------------------------------
# the unit pipeline, in this process
# ----------------------------------------------------------------------
class InProcessUnits:
    """The unit pipeline of the fork pool and the nodes, in this process.

    ``execute`` does to every work unit what a fork worker does to a unit
    it pulls (rewind to the dispatch-time buffer, ``_execute_shard``), and
    with ``chained`` it also passes NM's REUSE carry on, as a node does.
    It then rewinds the parent's counters and byte totals to dispatch
    time, as if each unit had charged a worker's copy of the disk, and
    merges with :meth:`UnitCoordinator.merge` like both process planes.
    """

    name = "in-process-units"

    def __init__(self, chained: bool):
        self.chained = chained

    def execute(self, algorithm, ctx) -> List[Tuple[int, int]]:
        disk = ctx.disk
        units = algorithm.work_units(ctx)
        coordinator = UnitCoordinator(
            units, chained=self.chained and algorithm.supports_handoff
        )
        base_accesses = disk.counters.diff(ctx.start_counters).page_accesses
        counters = disk.counters.snapshot()
        bytes_read, bytes_written = disk.store.bytes_read, disk.store.bytes_written
        dispatch = disk.buffer_state()
        while (assignment := coordinator.next_assignment("in-process")) is not None:
            disk.restore_buffer_state(dispatch)
            result = _execute_shard(
                algorithm,
                ctx,
                assignment.unit,
                assignment.index,
                carry=coordinator.await_carry(assignment),
            )
            coordinator.record_result(assignment.index, result)
        disk.restore_buffer_state(dispatch)
        disk.counters = counters
        disk.store.bytes_read, disk.store.bytes_written = bytes_read, bytes_written
        return coordinator.merge(ctx, base_accesses)


@contextmanager
def units_in_process(chained: bool = False):
    """Run every engine join in the block on :class:`InProcessUnits`."""
    with mock.patch(
        "repro.engine.core.executor_for", lambda config: InProcessUnits(chained)
    ):
        yield
