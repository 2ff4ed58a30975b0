"""Differential test: BatchVoronoi's member retirement against the loop
that tested every member for every popped entry.

:func:`reference_compute_voronoi_cells` below is the traversal that
:func:`repro.voronoi.batch.compute_voronoi_cells` ran before members were
retired: every examined point is tested against every group member, every
MBR against every member, and the group-wide termination bound is recomputed
after each refining point.  Retirement claims to skip only calls that return
False at their radius pre-check, so the cells must agree *bit for bit*
(compared as packed doubles), and so must every ``CellComputationStats``
counter and the page reads — on integer grids (exact ties everywhere),
near-duplicate sites, and points constructed so that their heap key lands
on (or just around) a member's retirement threshold
``reach_m + dist(centroid, site_m) + slack``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
from dataclasses import asdict
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import WorkloadConfig, build_workload
from repro.datasets.synthetic import DOMAIN, clustered_points
from repro.engine import default_engine
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.index.bulkload import bulk_load_points
from repro.storage.disk import DiskManager
from repro.voronoi import batch
from repro.voronoi.batch import _CHILD, _POINT, _is_group_entry, _MemberState
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats

GRID_DOMAIN = Rect(0.0, 0.0, 64.0, 64.0)
#: Small pages give multi-level trees on a few dozen points.
PAGE_SIZE = 128

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# the reference: every member tested for every popped entry
# ----------------------------------------------------------------------
def reference_compute_voronoi_cells(tree, group, domain, stats=None):
    """BatchVoronoi without member retirement."""
    members = list(group)
    stats = stats if stats is not None else CellComputationStats()
    states = {
        oid: _MemberState(oid, site, ConvexPolygon.from_rect(domain))
        for oid, site in members
    }
    if tree.is_empty():
        return {oid: VoronoiCell(oid, s.site, s.polygon) for oid, s in states.items()}

    sqrt = math.sqrt
    for state in states.values():
        neighbours = []
        for other_state in states.values():
            if other_state.oid != state.oid and (
                other_state.sx != state.sx or other_state.sy != state.sy
            ):
                dx = state.sx - other_state.sx
                dy = state.sy - other_state.sy
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
    center_dists = [state.site.distance_to(group_center) for state in member_list]
    counter = itertools.count()
    heap = []

    def push_node(node):
        kind = _POINT if node.is_leaf else _CHILD
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    def termination_bound():
        return max(s.reach + cd for s, cd in zip(member_list, center_dists))

    push_node(tree.read_node(tree.root_page))
    bound = termination_bound()
    while heap:
        key, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if key > bound:
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
                stats.nodes_expanded += 1
                push_node(tree.read_node(entry.child_page))
            else:
                stats.pruned_entries += 1
    return {oid: VoronoiCell(oid, s.site, s.polygon) for oid, s in states.items()}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _run(compute, points, group_idx, domain):
    disk = DiskManager(page_size=PAGE_SIZE)
    tree = bulk_load_points(disk, "RP", points, page_size=PAGE_SIZE)
    group = [(oid, points[oid]) for oid in group_idx]
    stats = CellComputationStats()
    reads = disk.counters.reads
    cells = compute(tree, group, domain, stats=stats)
    rings = {oid: tuple(_bits(v) for v in cell.polygon.ring()) for oid, cell in cells.items()}
    return rings, asdict(stats), disk.counters.reads - reads


def assert_matches_reference(points, group_idx, domain):
    assert _run(batch.compute_voronoi_cells, points, group_idx, domain) == _run(
        reference_compute_voronoi_cells, points, group_idx, domain
    )


def threshold_points(points, group_idx, domain, offsets):
    """Points whose key from the group centroid lands on a member's
    retirement threshold, plus Lemma-1 ties at its farthest vertex.

    For each member ``m`` of the finished reference cells: the reflection
    of ``site_m`` through its farthest cell vertex ``v`` (its bisector with
    the site passes through ``v``), and points at ``reach_m + offset *
    slack`` from the site on two rays from it: away from the centroid, so
    that their key is ``reach_m + dist(centroid, site_m)`` plus about
    ``offset * slack``, and towards ``v``, so that a negative offset makes
    them refine the cell by a sliver (and, in a group of one, their key
    straddles the threshold too).
    """
    disk = DiskManager(page_size=PAGE_SIZE)
    tree = bulk_load_points(disk, "RP", points, page_size=PAGE_SIZE)
    group = [(oid, points[oid]) for oid in group_idx]
    cells = reference_compute_voronoi_cells(tree, group, domain)
    center = centroid([site for _, site in group])
    magnitude = max(1.0, *(abs(c) for p in points for c in (p.x, p.y)))
    slack = BOUNDARY_EPS * magnitude
    extra = []
    for oid, site in group:
        xs, ys = cells[oid].polygon.ring()
        if not xs:
            continue
        vx, vy = max(zip(xs, ys), key=lambda v: (v[0] - site.x) ** 2 + (v[1] - site.y) ** 2)
        extra.append(Point(2.0 * vx - site.x, 2.0 * vy - site.y))
        reach = 2.0 * math.hypot(vx - site.x, vy - site.y)
        for ux, uy in ((site.x - center.x, site.y - center.y), (vx - site.x, vy - site.y)):
            norm = math.hypot(ux, uy)
            ux, uy = (ux / norm, uy / norm) if norm > 0.0 else (1.0, 0.0)
            for offset in offsets:
                r = reach + offset * slack
                extra.append(Point(site.x + r * ux, site.y + r * uy))
    return extra


grid_points = st.lists(
    st.tuples(st.integers(0, 64), st.integers(0, 64)),
    min_size=3,
    max_size=150,
    unique=True,
).map(lambda pairs: [Point(float(x), float(y)) for x, y in pairs])


@st.composite
def grid_case(draw):
    points = draw(grid_points)
    group_idx = draw(
        st.lists(
            st.integers(0, len(points) - 1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return points, group_idx


@st.composite
def near_duplicate_case(draw):
    """Grid sites plus copies moved by a few ulps (or not at all)."""
    points, group_idx = draw(grid_case())
    for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=6)):
        p = points[i]
        x, y = p.x, p.y
        for _ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
        for _ in range(draw(st.integers(0, 3))):
            y = math.nextafter(y, draw(st.sampled_from([-math.inf, math.inf])))
        points.append(Point(x, y))
    if draw(st.booleans()):
        group_idx = group_idx + [len(points) - 1]
    return points, sorted(set(group_idx))


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestRetirementMatchesReference:
    @SETTINGS
    @given(case=grid_case())
    def test_integer_grid(self, case):
        points, group_idx = case
        assert_matches_reference(points, group_idx, GRID_DOMAIN)

    @SETTINGS
    @given(case=near_duplicate_case())
    def test_near_duplicates(self, case):
        points, group_idx = case
        assert_matches_reference(points, group_idx, GRID_DOMAIN)

    @SETTINGS
    @given(
        case=grid_case(),
        offsets=st.lists(
            st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=3
        ),
        scale=st.sampled_from([1.0, 0.25, 156.25]),
    )
    def test_constructed_threshold_ties(self, case, offsets, scale):
        points, group_idx = case
        points = [Point(p.x * scale, p.y * scale) for p in points]
        domain = Rect(0.0, 0.0, 64.0 * scale, 64.0 * scale)
        points = points + threshold_points(points, group_idx, domain, offsets)
        assert_matches_reference(points, group_idx, domain)

    def test_group_outside_the_tree(self):
        # Members that are not stored in the tree still retire soundly.
        points = [Point(float(x), float(y)) for x in range(0, 64, 7) for y in range(0, 64, 5)]
        assert_matches_reference(points + [Point(30.5, 31.5)], [len(points)], GRID_DOMAIN)


class TestRetirementSkipsCalls:
    def test_clustered_fm_join_halves_point_tests(self, monkeypatch):
        """A clustered FM join (500 points per side) gives the same pairs
        with at most half the ``point_can_refine`` calls of the reference."""
        calls = []
        plain = _MemberState.point_can_refine

        def counted(state, other):
            calls.append(None)
            return plain(state, other)

        monkeypatch.setattr(_MemberState, "point_can_refine", counted)

        def fm_join():
            calls.clear()
            points_p = clustered_points(500, seed=91)
            points_q = clustered_points(500, seed=92)
            config = WorkloadConfig(seed=0, buffer_fraction=0.02, storage="memory")
            with build_workload(config, points_p=points_p, points_q=points_q) as workload:
                result = default_engine().run(
                    "fm", workload.tree_p, workload.tree_q, domain=DOMAIN
                )
                reads = workload.disk.counters.reads
            return result.pairs, asdict(result.cell_stats), reads, len(calls)

        pairs, cell_stats, reads, retired_calls = fm_join()
        monkeypatch.setattr(batch, "compute_voronoi_cells", reference_compute_voronoi_cells)
        ref_pairs, ref_cell_stats, ref_reads, reference_calls = fm_join()

        assert pairs == ref_pairs
        assert cell_stats == ref_cell_stats
        assert reads == ref_reads
        assert reference_calls > 0
        assert retired_calls <= reference_calls / 2


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_groups_match_reference(n):
    points = [Point(float(3 * i % 17), float(5 * i % 13)) for i in range(30)]
    assert_matches_reference(points, list(range(n)), GRID_DOMAIN)
