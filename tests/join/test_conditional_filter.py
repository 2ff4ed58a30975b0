"""Tests for the ConditionalFilter (Algorithm 5) and its batch variant."""

import heapq
import itertools
import random

import pytest

from repro.datasets.synthetic import DOMAIN, clustered_points, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.influence import entry_pruned_by_candidate, polygon_within_phi, rect_sides
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.join.conditional_filter import (
    FilterStats,
    _approximate_cell,
    _entry_overlaps_targets,
    _polygon_hits_any_target,
    batch_conditional_filter,
    candidate_cells_from_buffer,
    conditional_filter,
)
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_cells_for_leaf
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.diagram import brute_force_cell, brute_force_diagram


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return disk, tree


class TestConditionalFilterCompleteness:
    def test_candidates_are_a_superset_of_true_join_partners(self):
        """The filter must never drop a point whose exact cell reaches T."""
        points_p = uniform_points(120, seed=131)
        points_q = uniform_points(40, seed=132)
        _, tree_p = indexed(points_p)
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        for q_oid in (0, 7, 23):
            target = brute_force_cell(points_q[q_oid], points_q, DOMAIN).polygon
            candidates = {oid for oid, _ in conditional_filter(target, tree_p, DOMAIN)}
            true_partners = {
                cell.oid for cell in diagram_p if cell.polygon.intersects(target)
            }
            assert true_partners.issubset(candidates)

    def test_points_inside_target_are_always_candidates(self):
        points_p = uniform_points(100, seed=133)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(2000.0, 2000.0, 5000.0, 5000.0))
        candidates = {oid for oid, _ in conditional_filter(target, tree_p, DOMAIN)}
        inside = {
            oid for oid, p in enumerate(points_p) if target.contains_point(p)
        }
        assert inside.issubset(candidates)

    def test_empty_targets_give_no_candidates(self):
        points_p = uniform_points(50, seed=134)
        _, tree_p = indexed(points_p)
        assert batch_conditional_filter([], tree_p, DOMAIN) == []
        assert batch_conditional_filter([ConvexPolygon.empty()], tree_p, DOMAIN) == []

    def test_empty_tree_gives_no_candidates(self):
        target = ConvexPolygon.from_rect(Rect(0, 0, 100, 100))
        assert conditional_filter(target, RTree(DiskManager(), "RP"), DOMAIN) == []

    def test_batch_filter_covers_union_of_single_filters(self):
        points_p = uniform_points(150, seed=135)
        points_q = uniform_points(30, seed=136)
        _, tree_p = indexed(points_p)
        targets = [
            brute_force_cell(points_q[i], points_q, DOMAIN).polygon for i in range(4)
        ]
        batch = {oid for oid, _ in batch_conditional_filter(targets, tree_p, DOMAIN)}
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        for target in targets:
            true_partners = {
                cell.oid for cell in diagram_p if cell.polygon.intersects(target)
            }
            assert true_partners.issubset(batch)


class TestConditionalFilterSelectivity:
    def test_filter_does_not_admit_everything(self):
        """The false-hit ratio claim only makes sense if the filter is
        selective: for a small target, most of P must be pruned."""
        points_p = uniform_points(300, seed=137)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(4800.0, 4800.0, 5200.0, 5200.0))
        candidates = conditional_filter(target, tree_p, DOMAIN)
        assert len(candidates) < len(points_p) / 4

    def test_phi_pruning_reduces_expanded_entries(self):
        points_p = uniform_points(400, seed=138)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(1000.0, 1000.0, 1400.0, 1400.0))
        with_phi = FilterStats()
        without_phi = FilterStats()
        admitted_a = batch_conditional_filter([target], tree_p, DOMAIN, stats=with_phi)
        admitted_b = batch_conditional_filter(
            [target], tree_p, DOMAIN, use_phi_pruning=False, stats=without_phi
        )
        assert {oid for oid, _ in admitted_a} == {oid for oid, _ in admitted_b}
        assert with_phi.entries_pruned_phi > 0
        assert with_phi.entries_expanded < without_phi.entries_expanded

    def test_stats_merge(self):
        a = FilterStats(heap_pops=1, points_examined=2)
        b = FilterStats(heap_pops=3, points_admitted=4, entries_pruned_phi=5)
        a.merge(b)
        assert a.heap_pops == 4
        assert a.points_admitted == 4
        assert a.entries_pruned_phi == 5


class TestPruningRuleEquivalence:
    def test_fast_vertex_rule_matches_phi_side_rule(self):
        """The filter uses dist(p, v) <= mindist(MBR, v); the paper states
        the rule per MBR side via Φ(L, p).  For MBRs disjoint from the
        target, both must agree."""
        import random

        rng = random.Random(139)
        for _ in range(200):
            x, y = rng.uniform(0, 9000), rng.uniform(0, 9000)
            mbr = Rect(x, y, x + rng.uniform(10, 800), y + rng.uniform(10, 800))
            tx, ty = rng.uniform(0, 9500), rng.uniform(0, 9500)
            target = ConvexPolygon.from_rect(Rect(tx, ty, tx + 400, ty + 300))
            candidate = Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            if target.intersects_rect(mbr):
                continue
            per_side = all(
                polygon_within_phi(target, side, candidate) for side in rect_sides(mbr)
            )
            per_vertex = all(
                candidate.distance_to(v) <= mbr.mindist_point(v)
                for v in target.vertices
            )
            assert per_side == per_vertex
            assert entry_pruned_by_candidate(mbr, target, candidate) == per_side


class TestReuseBufferHelper:
    def test_candidates_split_between_buffer_and_missing(self):
        cell = VoronoiCell(1, Point(10.0, 10.0), ConvexPolygon.from_rect(Rect(0, 0, 20, 20)))
        buffer = {1: cell}
        candidates = [(1, Point(10.0, 10.0)), (2, Point(50.0, 50.0))]
        missing, reused = candidate_cells_from_buffer(candidates, buffer)
        assert reused == {1: cell}
        assert missing == [(2, Point(50.0, 50.0))]

    def test_stale_buffer_entry_with_different_site_is_not_reused(self):
        cell = VoronoiCell(1, Point(10.0, 10.0), ConvexPolygon.from_rect(Rect(0, 0, 20, 20)))
        buffer = {1: cell}
        missing, reused = candidate_cells_from_buffer([(1, Point(99.0, 99.0))], buffer)
        assert reused == {}
        assert missing == [(1, Point(99.0, 99.0))]


# ----------------------------------------------------------------------
# The filter against a plain reference: the full approximate cell of every
# examined point (no early exit) and the plain Lemma-3 distance rule.  The
# candidate list, its order and every counter must match exactly.
# ----------------------------------------------------------------------
def reference_filter(targets, tree_p, domain):
    polygons = [t for t in targets if not t.is_empty()]
    stats = FilterStats()
    target_mbrs = [polygon.bounding_rect() for polygon in polygons]
    targets_mbr = Rect.union_all(target_mbrs)
    target_vertices = [v for polygon in polygons for v in polygon.vertices]
    center = centroid([polygon.centroid() for polygon in polygons])
    candidates = []
    heap = []
    counter = itertools.count()

    def push(node):
        for entry in node.entries:
            key = entry.mbr.mindist_point(center)
            heapq.heappush(heap, (key, next(counter), node.is_leaf, entry))

    push(tree_p.read_node(tree_p.root_page))
    while heap:
        _, _, is_point, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if is_point:
            stats.points_examined += 1
            cell = _approximate_cell(entry.payload, candidates, domain)
            if _polygon_hits_any_target(cell, targets_mbr, target_mbrs, polygons):
                candidates.append((entry.oid, entry.payload))
                stats.points_admitted += 1
            continue
        if not _entry_overlaps_targets(entry.mbr, targets_mbr, target_mbrs, polygons):
            if any(
                all(c.distance_to(v) <= entry.mbr.mindist_point(v) for v in target_vertices)
                for _, c in candidates
            ):
                stats.entries_pruned_phi += 1
                continue
        stats.entries_expanded += 1
        push(tree_p.read_node(entry.child_page))
    return candidates, stats


def integer_grid_points(n, seed, step=250):
    """``n`` distinct lattice points: equal distances are everywhere."""
    cells = int(DOMAIN.width // step)
    lattice = [(i, j) for i in range(cells + 1) for j in range(cells + 1)]
    chosen = random.Random(seed).sample(lattice, n)
    return [Point(float(i * step), float(j * step)) for i, j in chosen]


FILTER_INPUTS = {
    "uniform": lambda: (uniform_points(220, seed=141), uniform_points(120, seed=142)),
    "clustered": lambda: (
        clustered_points(220, clusters=4, seed=143),
        clustered_points(120, clusters=3, seed=144),
    ),
    "integer-grid": lambda: (integer_grid_points(220, 145), integer_grid_points(120, 146)),
}


@pytest.mark.parametrize("inputs", sorted(FILTER_INPUTS))
def test_batch_filter_matches_plain_reference(inputs):
    points_p, points_q = FILTER_INPUTS[inputs]()
    disk = DiskManager()
    tree_p = build_indexed_pointset(disk, "RP", points_p, domain=DOMAIN)
    tree_q = build_indexed_pointset(disk, "RQ", points_q, domain=DOMAIN)
    batches = 0
    for leaf in tree_q.iter_leaf_nodes():
        cells = compute_cells_for_leaf(tree_q, leaf.entries, DOMAIN)
        targets = [cells[entry.oid].polygon for entry in leaf.entries]
        stats = FilterStats()
        candidates = batch_conditional_filter(targets, tree_p, DOMAIN, stats=stats)
        expected, expected_stats = reference_filter(targets, tree_p, DOMAIN)
        assert candidates == expected
        assert stats == expected_stats
        batches += 1
    assert batches > 1
