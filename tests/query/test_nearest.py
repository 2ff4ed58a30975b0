"""Tests for best-first nearest-neighbour search."""

import random
from itertools import islice

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.point import Point, dist
from repro.index.rtree import RTree
from repro.query.nearest import incremental_nearest, nearest_neighbor
from repro.storage.disk import DiskManager


@pytest.fixture(scope="module")
def indexed_points():
    points = uniform_points(300, seed=13)
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return points, disk, tree


class TestIncrementalNearest:
    def test_results_come_out_in_distance_order(self, indexed_points):
        points, _, tree = indexed_points
        query = Point(5000.0, 5000.0)
        distances = [d for d, _ in incremental_nearest(tree, query)]
        assert distances == sorted(distances)
        assert len(distances) == len(points)

    def test_matches_linear_scan_ranking(self, indexed_points):
        points, _, tree = indexed_points
        rng = random.Random(1)
        for _ in range(5):
            query = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            expected = sorted(range(len(points)), key=lambda i: dist(points[i], query))
            got = [e.oid for _, e in incremental_nearest(tree, query)]
            assert got[:20] == expected[:20]

    def test_empty_tree_yields_nothing(self):
        tree = RTree(DiskManager(), "RP")
        assert list(incremental_nearest(tree, Point(0, 0))) == []

    def test_lazy_consumption_reads_few_nodes(self, indexed_points):
        points, disk, tree = indexed_points
        disk.buffer.clear()
        disk.reset_counters()
        gen = incremental_nearest(tree, Point(1234.0, 5678.0))
        next(gen)
        assert disk.counters.reads < tree.node_count()


class TestNearestNeighborHelpers:
    def test_nearest_neighbor_matches_scan(self, indexed_points):
        points, _, tree = indexed_points
        query = Point(42.0, 4242.0)
        d, entry = nearest_neighbor(tree, query)
        expected = min(range(len(points)), key=lambda i: dist(points[i], query))
        assert entry.oid == expected
        assert d == pytest.approx(dist(points[expected], query))

    def test_nearest_neighbor_on_empty_tree(self):
        assert nearest_neighbor(RTree(DiskManager(), "RP"), Point(0, 0)) is None


class TestFirstKOfIncrementalNearest:
    """The k-nearest query is a prefix of the incremental ranking."""

    def test_first_k_are_sorted_and_sized(self, indexed_points):
        _, _, tree = indexed_points
        results = list(islice(incremental_nearest(tree, Point(9000.0, 1000.0)), 10))
        assert len(results) == 10
        assert [d for d, _ in results] == sorted(d for d, _ in results)

    def test_k_larger_than_dataset_returns_all(self):
        points = uniform_points(15, seed=3)
        tree = build_indexed_pointset(DiskManager(), "RP", points, domain=DOMAIN)
        results = list(islice(incremental_nearest(tree, Point(0, 0)), 100))
        assert sorted(entry.oid for _, entry in results) == list(range(15))

    def test_reported_distance_is_the_distance_to_the_payload(self, indexed_points):
        _, _, tree = indexed_points
        query = Point(2500.0, 7500.0)
        for d, entry in islice(incremental_nearest(tree, query), 25):
            assert d == pytest.approx(dist(entry.payload, query))

    def test_nearest_neighbor_is_the_first_incremental_result(self, indexed_points):
        _, _, tree = indexed_points
        rng = random.Random(7)
        for _ in range(5):
            query = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            d, entry = nearest_neighbor(tree, query)
            first_d, first_entry = next(incremental_nearest(tree, query))
            assert (d, entry.oid) == (first_d, first_entry.oid)
