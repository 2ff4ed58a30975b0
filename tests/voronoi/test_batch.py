"""Tests for BatchVoronoi (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point, dist
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.join.conditional_filter import _entry_pruned
from repro.storage.disk import DiskManager
from repro.voronoi.batch import _MemberState, compute_cells_for_leaf, compute_voronoi_cells
from repro.voronoi.diagram import brute_force_cell
from repro.voronoi.single import compute_voronoi_cell
from tests.voronoi.test_single import assert_same_cell


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return disk, tree


def with_coincident_site():
    """80 uniform sites plus an exact duplicate of site 12 (oid 80)."""
    points = uniform_points(80, seed=41)
    points.append(points[12])
    return points


class TestBatchVoronoiCorrectness:
    def test_matches_single_cell_computation(self):
        points = uniform_points(200, seed=31)
        _, tree = indexed(points)
        group = [(oid, points[oid]) for oid in range(20, 35)]
        batch = compute_voronoi_cells(tree, group, DOMAIN)
        for oid, site in group:
            single = compute_voronoi_cell(tree, site, DOMAIN, site_oid=oid)
            assert_same_cell(batch[oid], single)

    @pytest.mark.parametrize(
        "points, oids",
        [
            (uniform_points(120, seed=32), (0, 5, 9, 14)),
            # Two group members on one site: neither may clip the other
            # (the bisector of coincident sites does not exist).
            (with_coincident_site(), (12, 80, 30)),
        ],
        ids=["uniform", "coincident-sites"],
    )
    def test_matches_brute_force(self, points, oids):
        _, tree = indexed(points)
        group = [(oid, points[oid]) for oid in oids]
        batch = compute_voronoi_cells(tree, group, DOMAIN)
        for oid, site in group:
            assert_same_cell(batch[oid], brute_force_cell(site, points, DOMAIN, oid=oid))

    def test_coincident_group_members_share_one_cell(self):
        points = with_coincident_site()
        _, tree = indexed(points)
        batch = compute_voronoi_cells(
            tree, [(12, points[12]), (80, points[80]), (30, points[30])], DOMAIN
        )
        assert not batch[12].polygon.is_empty()
        assert batch[12].polygon.vertices == batch[80].polygon.vertices

    def test_group_of_one_equals_single(self):
        points = uniform_points(60, seed=33)
        _, tree = indexed(points)
        batch = compute_voronoi_cells(tree, [(7, points[7])], DOMAIN)
        single = compute_voronoi_cell(tree, points[7], DOMAIN, site_oid=7)
        assert_same_cell(batch[7], single)

    def test_every_cell_contains_its_site(self):
        points = uniform_points(150, seed=34)
        _, tree = indexed(points)
        group = [(oid, points[oid]) for oid in range(40, 60)]
        batch = compute_voronoi_cells(tree, group, DOMAIN)
        for oid, site in group:
            assert batch[oid].contains(site)

    def test_empty_group_rejected(self):
        points = uniform_points(20, seed=35)
        _, tree = indexed(points)
        with pytest.raises(ValueError):
            compute_voronoi_cells(tree, [], DOMAIN)

    def test_duplicate_oids_rejected(self):
        points = uniform_points(20, seed=36)
        _, tree = indexed(points)
        with pytest.raises(ValueError):
            compute_voronoi_cells(tree, [(1, points[1]), (1, points[2])], DOMAIN)

    def test_compute_cells_for_leaf_covers_leaf_points(self):
        points = uniform_points(180, seed=37)
        _, tree = indexed(points)
        leaf = next(tree.iter_leaf_nodes())
        cells = compute_cells_for_leaf(tree, leaf.entries, DOMAIN)
        assert set(cells) == {entry.oid for entry in leaf.entries}


class TestBatchVoronoiCost:
    def test_batch_reads_fewer_nodes_than_repeated_single(self):
        points = uniform_points(400, seed=38)
        disk, tree = indexed(points)
        leaf = next(tree.iter_leaf_nodes())
        group = [(e.oid, e.payload) for e in leaf.entries]

        disk.buffer.clear()
        disk.reset_counters()
        compute_voronoi_cells(tree, group, DOMAIN)
        batch_reads = disk.counters.logical_reads

        disk.buffer.clear()
        disk.reset_counters()
        for oid, site in group:
            compute_voronoi_cell(tree, site, DOMAIN, site_oid=oid)
        single_reads = disk.counters.logical_reads

        assert batch_reads < single_reads

    def test_batch_reads_each_node_at_most_once(self):
        points = uniform_points(300, seed=39)
        disk, tree = indexed(points)
        group = [(oid, points[oid]) for oid in range(10)]
        disk.buffer.clear()
        disk.reset_counters()
        compute_voronoi_cells(tree, group, DOMAIN)
        assert disk.counters.logical_reads <= tree.node_count()


# ----------------------------------------------------------------------
# Exactness of the squared pre-tests: the rewritten Lemma-1/2/3 predicates
# must answer exactly like the plain dist / mindist_point formulas, ties
# included (a tie decides whether a bisector is clipped or an entry pruned).
# ----------------------------------------------------------------------
def plain_reach(site, polygon):
    return 2.0 * max(dist(site, v) for v in polygon.vertices)


def plain_point_can_refine(site, polygon, other):
    if dist(site, other) > plain_reach(site, polygon):
        return False
    return any(dist(other, v) < dist(site, v) for v in polygon.vertices)


def plain_mbr_can_refine(site, polygon, mbr):
    if mbr.mindist_point(site) > plain_reach(site, polygon):
        return False
    return any(mbr.mindist_point(v) < dist(site, v) for v in polygon.vertices)


def plain_entry_pruned(mbr, target_vertices, candidates):
    return any(
        all(dist(c, v) <= mbr.mindist_point(v) for v in target_vertices)
        for _, c in candidates
    )


def mirrored(v, p):
    """``p`` reflected through ``v``: exactly as far from ``v`` as ``p``
    is whenever the coordinates are integers."""
    return Point(2.0 * v.x - p.x, 2.0 * v.y - p.y)


GRID = st.integers(min_value=0, max_value=24).map(float)
grid_points = st.builds(Point, GRID, GRID)
float_points = st.builds(
    Point,
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@st.composite
def rects(draw, coords=GRID):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


@st.composite
def member_cells(draw, points=grid_points):
    """A site and a running cell: a grid rectangle around it, optionally
    clipped by a few bisectors (non-integer vertices)."""
    site = draw(points)
    box = draw(rects())
    box = Rect(
        min(box.xmin, site.x) - 1.0,
        min(box.ymin, site.y) - 1.0,
        max(box.xmax, site.x) + 1.0,
        max(box.ymax, site.y) + 1.0,
    )
    polygon = ConvexPolygon.from_rect(box)
    for other in draw(st.lists(points, max_size=3)):
        if other != site:
            clipped = polygon.clip_halfplane(bisector_halfplane(site, other))
            if not clipped.is_empty():
                polygon = clipped
    return site, polygon


class TestSquaredPreTestExactness:
    @given(cell=member_cells(), others=st.lists(grid_points, max_size=8), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_point_can_refine_matches_plain_formula(self, cell, others, data):
        site, polygon = cell
        state = _MemberState(0, site, polygon)
        vertex = data.draw(st.sampled_from(polygon.vertices))
        probes = others + [
            # Equal distance to a vertex: the strict Lemma-1 test is a tie.
            mirrored(vertex, site),
            # Exactly at the influence radius of a rectangle cell.
            Point(site.x + 2.0 * (vertex.x - site.x), site.y + 2.0 * (vertex.y - site.y)),
        ]
        assert state.reach == plain_reach(site, polygon)
        for other in probes:
            assert state.point_can_refine(other) == plain_point_can_refine(
                site, polygon, other
            ), other

    @given(cell=member_cells(float_points), others=st.lists(float_points, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_point_can_refine_matches_plain_formula_off_grid(self, cell, others):
        site, polygon = cell
        state = _MemberState(0, site, polygon)
        for other in others:
            assert state.point_can_refine(other) == plain_point_can_refine(
                site, polygon, other
            ), other

    @given(cell=member_cells(), boxes=st.lists(rects(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_mbr_can_refine_matches_plain_formula(self, cell, boxes):
        site, polygon = cell
        state = _MemberState(0, site, polygon)
        for mbr in boxes:
            assert state.mbr_can_refine(mbr) == plain_mbr_can_refine(
                site, polygon, mbr
            ), mbr

    @given(
        mbr=rects(),
        targets=st.lists(grid_points, min_size=1, max_size=6),
        candidates=st.lists(grid_points, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_entry_pruned_matches_plain_formula(self, mbr, targets, candidates, data):
        vertex = data.draw(st.sampled_from(targets))
        nearest = Point(
            min(max(vertex.x, mbr.xmin), mbr.xmax), min(max(vertex.y, mbr.ymin), mbr.ymax)
        )
        # dist(c, v) == mindist(MBR, v) exactly: the <= test is a tie.
        candidates = candidates + [mirrored(vertex, nearest)]
        listed = list(enumerate(candidates))
        assert _entry_pruned(mbr, targets, listed) == plain_entry_pruned(
            mbr, targets, listed
        )
        for one in listed:
            assert _entry_pruned(mbr, targets, [one]) == plain_entry_pruned(
                mbr, targets, [one]
            ), one
