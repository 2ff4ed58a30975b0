"""Tests for the ConditionalFilter (Algorithm 5) and its batch variant."""

import heapq
import importlib
import itertools
import math
import random

import pytest

from repro.datasets.synthetic import DOMAIN, clustered_points, uniform_points
from repro.datasets.workload import WorkloadConfig, build_indexed_pointset, build_workload
from repro.engine import default_engine
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

# ``repro.join`` re-exports the function ``conditional_filter``, which shadows
# the module of the same name as an attribute of the package.
conditional_filter_module = importlib.import_module("repro.join.conditional_filter")


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


def near_duplicate_points(n, seed):
    """``n // 2`` uniform sites, each with a twin within ``1e-5``: the
    bisector of a twin pair is badly conditioned."""
    rng = random.Random(seed)
    points = []
    for p in uniform_points(n // 2, seed=seed):
        points.append(p)
        points.append(Point(p.x + rng.uniform(-1e-5, 1e-5), p.y + rng.uniform(-1e-5, 1e-5)))
    return points


def sliver_points(n, seed, rows=4):
    """Sites 10 to 40 units apart on a few near-horizontal rows (a ``1e-4``
    jitter): their cells are thin slivers that meet tip to tip."""
    rng = random.Random(seed)
    points = []
    for row in range(rows):
        y0, slope = rng.uniform(500, 9500), rng.uniform(-0.01, 0.01)
        x = rng.uniform(0, 40)
        for _ in range(n // rows):
            points.append(Point(x, y0 + slope * x + rng.uniform(-1e-4, 1e-4)))
            x += rng.uniform(10, 40)
    return points


def ring_points(n, seed, per_ring=12):
    """Rings of ``per_ring`` co-circular sites: Voronoi vertices of degree
    ``per_ring`` at every ring centre."""
    rng = random.Random(seed)
    points = []
    while len(points) + per_ring <= n:
        cx, cy, r = rng.uniform(1000, 9000), rng.uniform(1000, 9000), rng.uniform(50, 600)
        for k in range(per_ring):
            angle = 2.0 * math.pi * k / per_ring
            points.append(Point(cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return points


def boundary_points(n, seed):
    """Sites on the four edges of the domain, corners included."""
    rng = random.Random(seed)
    points = [Point(DOMAIN.xmin, DOMAIN.ymin), Point(DOMAIN.xmax, DOMAIN.ymax)]
    for i in range(n - len(points)):
        t = rng.uniform(0, DOMAIN.width)
        side = i % 4
        points.append(
            Point(t, DOMAIN.ymin) if side == 0
            else Point(DOMAIN.xmax, t) if side == 1
            else Point(t, DOMAIN.ymax) if side == 2
            else Point(DOMAIN.xmin, t)
        )
    return points


def leaf_cell_batches(points_q):
    """The target batches of Algorithm 6: the cells of each ``R_Q`` leaf."""
    tree_q = build_indexed_pointset(DiskManager(), "RQ", points_q, domain=DOMAIN)
    for leaf in tree_q.iter_leaf_nodes():
        cells = compute_cells_for_leaf(tree_q, leaf.entries, DOMAIN)
        yield [cells[entry.oid].polygon for entry in leaf.entries]


def window_batches(windows):
    """One single-rectangle target per batch, as ``window_pairs`` passes."""
    return [[ConvexPolygon.from_rect(window)] for window in windows]


#: ``P`` and the target batches filtered against it.
FILTER_INPUTS = {
    "uniform": lambda: (
        uniform_points(220, seed=141),
        leaf_cell_batches(uniform_points(120, seed=142)),
    ),
    "clustered": lambda: (
        clustered_points(220, clusters=4, seed=143),
        leaf_cell_batches(clustered_points(120, clusters=3, seed=144)),
    ),
    "integer-grid": lambda: (
        integer_grid_points(220, 145),
        leaf_cell_batches(integer_grid_points(120, 146)),
    ),
    "near-duplicates": lambda: (
        near_duplicate_points(220, 147),
        leaf_cell_batches(near_duplicate_points(120, 148)),
    ),
    "slivers": lambda: (sliver_points(220, 149), leaf_cell_batches(sliver_points(120, 150))),
    "co-circular": lambda: (ring_points(220, 151), leaf_cell_batches(ring_points(120, 152))),
    "domain-boundary": lambda: (
        boundary_points(220, 153),
        leaf_cell_batches(boundary_points(120, 154)),
    ),
    "windows": lambda: (
        uniform_points(220, seed=155),
        window_batches(
            [
                Rect(4000.0, 4000.0, 4600.0, 4500.0),
                Rect(0.0, 0.0, 300.0, 10000.0),
                Rect(9990.0, 9990.0, 10000.0, 10000.0),
            ]
        ),
    ),
}


def indexed_filter_input(inputs):
    points_p, target_batches = FILTER_INPUTS[inputs]()
    tree_p = build_indexed_pointset(DiskManager(), "RP", points_p, domain=DOMAIN)
    return tree_p, target_batches


@pytest.mark.parametrize("inputs", sorted(FILTER_INPUTS))
def test_batch_filter_matches_plain_reference(inputs):
    tree_p, target_batches = indexed_filter_input(inputs)
    batches = 0
    for targets in target_batches:
        stats = FilterStats()
        candidates = batch_conditional_filter(targets, tree_p, DOMAIN, stats=stats)
        expected, expected_stats = reference_filter(targets, tree_p, DOMAIN)
        assert candidates == expected
        assert stats == expected_stats
        batches += 1
    assert batches > 1


@pytest.mark.parametrize("inputs", sorted(FILTER_INPUTS))
def test_phi_pruning_does_not_change_the_candidates(inputs):
    """Lemma 3 only saves work: with the point-dominance shortcut in place,
    the ablation without it still admits the same candidate set."""
    tree_p, target_batches = indexed_filter_input(inputs)
    for targets in target_batches:
        with_phi = batch_conditional_filter(targets, tree_p, DOMAIN)
        without_phi = batch_conditional_filter(
            targets, tree_p, DOMAIN, use_phi_pruning=False
        )
        assert sorted(with_phi) == sorted(without_phi)


def test_dominated_points_skip_the_approximate_cell(monkeypatch):
    """Most rejected points are dominated and never build ``V(p, C_P)``.

    Serial NM at 600 points per side built 1,126 approximate cells for 861
    admitted and 2,559 rejected points: 2,294 rejections (90%) came from
    the dominance test alone.  Every digest would still match with the
    shortcut disabled, so this count is what pins it.
    """
    calls = []
    approximate_cell = conditional_filter_module._approximate_cell

    def counted(*args, **kwargs):
        calls.append(None)
        return approximate_cell(*args, **kwargs)

    monkeypatch.setattr(conditional_filter_module, "_approximate_cell", counted)
    config = WorkloadConfig(seed=0, buffer_fraction=0.02, storage="memory")
    points_p, points_q = uniform_points(600, seed=11), uniform_points(600, seed=12)
    with build_workload(config, points_p=points_p, points_q=points_q) as workload:
        result = default_engine().run("nm", workload.tree_p, workload.tree_q, domain=DOMAIN)
    stats = result.filter_stats
    rejected = stats.points_examined - stats.points_admitted
    skipped = stats.points_examined - len(calls)
    assert rejected > 1000
    assert 0.8 * rejected < skipped <= rejected
