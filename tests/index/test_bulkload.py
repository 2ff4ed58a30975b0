"""Tests for bottom-up bulk loading."""

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.bulkload import StreamingBulkLoader, bulk_load_points
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.storage.disk import DiskManager


class TestBulkLoadPoints:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            bulk_load_points(DiskManager(), "RP", [])

    def test_rejects_mismatched_oids(self):
        with pytest.raises(ValueError):
            bulk_load_points(DiskManager(), "RP", [Point(0, 0)], oids=[1, 2])

    def test_contains_every_point(self):
        points = uniform_points(200, seed=1)
        tree = bulk_load_points(DiskManager(), "RP", points, domain=DOMAIN)
        entries = tree.all_leaf_entries()
        assert len(entries) == 200
        assert {e.payload for e in entries} == set(points)
        assert len(tree) == 200

    def test_structure_invariants_hold(self):
        points = uniform_points(500, seed=2)
        tree = bulk_load_points(DiskManager(), "RP", points, domain=DOMAIN)
        tree.check_invariants()

    def test_leaf_utilisation_is_high(self):
        points = uniform_points(400, seed=3)
        tree = bulk_load_points(DiskManager(), "RP", points, domain=DOMAIN)
        # Packed loading fills leaves to capacity except possibly the last.
        assert tree.leaf_count() <= (400 + tree.leaf_capacity - 1) // tree.leaf_capacity + 1

    def test_single_leaf_tree_when_everything_fits(self):
        points = uniform_points(10, seed=4)
        tree = bulk_load_points(DiskManager(), "RP", points, domain=DOMAIN)
        assert tree.height == 1
        assert tree.leaf_count() == 1

    def test_range_query_matches_linear_scan(self):
        points = uniform_points(300, seed=5)
        tree = bulk_load_points(DiskManager(), "RP", points, domain=DOMAIN)
        region = Rect(2000, 2000, 6000, 7000)
        expected = {i for i, p in enumerate(points) if region.contains_point(p)}
        assert {e.oid for e in tree.range_search(region)} == expected

    def test_construction_cost_equals_pages_written(self):
        points = uniform_points(300, seed=6)
        disk = DiskManager()
        tree = bulk_load_points(disk, "RP", points, domain=DOMAIN)
        assert disk.counters.writes == tree.node_count()
        assert disk.counters.reads == 0


class TestBulkLoadRecords:
    def test_variable_size_records_respect_page_size(self):
        disk = DiskManager(page_size=256)
        cells = []
        for i in range(40):
            rect = Rect(10.0 * i, 0.0, 10.0 * i + 5.0, 5.0)
            polygon = ConvexPolygon.from_rect(rect)
            cells.append(LeafEntry.for_cell(i, rect, polygon, vertex_count=4 + (i % 5)))
        tree = RTree(disk, "RV", page_size=256)
        loader = StreamingBulkLoader(tree)
        for cell in cells:
            loader.append(cell)
        loader.finish()
        assert len(tree.all_leaf_entries()) == 40
        for leaf in tree.iter_leaf_nodes():
            assert leaf.byte_size() <= 256

    def test_streaming_loader_rejects_append_after_finish(self):
        tree = RTree(DiskManager(), "RP")
        loader = StreamingBulkLoader(tree)
        loader.append(LeafEntry.for_point(0, Point(1, 1)))
        loader.finish()
        with pytest.raises(RuntimeError):
            loader.append(LeafEntry.for_point(1, Point(2, 2)))

    def test_finish_twice_is_idempotent(self):
        tree = RTree(DiskManager(), "RP")
        loader = StreamingBulkLoader(tree)
        for i in range(5):
            loader.append(LeafEntry.for_point(i, Point(i, i)))
        loader.finish()
        count = tree.node_count()
        loader.finish()
        assert tree.node_count() == count

    def test_empty_loader_produces_empty_tree(self):
        tree = RTree(DiskManager(), "RP")
        StreamingBulkLoader(tree).finish()
        assert tree.is_empty()

    def test_multi_level_packing(self):
        disk = DiskManager()
        tree = RTree(disk, "RP", leaf_capacity=4, branch_capacity=4)
        loader = StreamingBulkLoader(tree)
        for i in range(100):
            loader.append(LeafEntry.for_point(i, Point(float(i), 0.0)))
        loader.finish()
        assert tree.height >= 3
        tree.check_invariants()
        assert len(tree.all_leaf_entries()) == 100
