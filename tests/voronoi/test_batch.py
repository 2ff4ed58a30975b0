"""Tests for BatchVoronoi (Algorithm 2)."""

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_cells_for_leaf, compute_voronoi_cells
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
        leaf = next(tree.iter_leaf_nodes(order="hilbert"))
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
