"""Tests for the disk-backed Guttman R-tree."""

import random

import pytest

from repro.datasets.synthetic import uniform_points
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree, capacities_for_page
from repro.storage.disk import DiskManager


def build_tree(points, leaf_capacity=8, branch_capacity=8):
    disk = DiskManager()
    tree = RTree(disk, "RP", leaf_capacity=leaf_capacity, branch_capacity=branch_capacity)
    for oid, point in enumerate(points):
        tree.insert_point(oid, point)
    return disk, tree


class TestCapacities:
    def test_capacities_for_default_page(self):
        leaf, branch = capacities_for_page(1024)
        assert leaf == 51
        assert branch == 28

    def test_minimum_capacity_is_two(self):
        leaf, branch = capacities_for_page(8)
        assert leaf == 2
        assert branch == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RTree(DiskManager(), "RP", leaf_capacity=1)


class TestInsertionAndStructure:
    def test_empty_tree_properties(self):
        tree = RTree(DiskManager(), "RP")
        assert tree.is_empty()
        assert len(tree) == 0
        assert tree.node_count() == 0
        with pytest.raises(ValueError):
            tree.domain()

    def test_single_point_tree(self):
        _, tree = build_tree([Point(5.0, 5.0)])
        assert not tree.is_empty()
        assert tree.height == 1
        assert len(tree) == 1
        assert tree.domain() == Rect(5, 5, 5, 5)

    def test_inserts_split_nodes_and_grow_height(self):
        points = uniform_points(200, seed=1)
        _, tree = build_tree(points, leaf_capacity=8, branch_capacity=8)
        assert len(tree) == 200
        assert tree.height >= 2
        assert tree.leaf_count() > 1
        tree.check_invariants()

    def test_all_leaf_entries_preserves_every_point(self):
        points = uniform_points(150, seed=2)
        _, tree = build_tree(points)
        entries = tree.all_leaf_entries()
        assert len(entries) == 150
        assert {e.oid for e in entries} == set(range(150))
        assert {e.payload for e in entries} == set(points)

    def test_invariants_hold_for_various_capacities(self):
        points = uniform_points(120, seed=3)
        for capacity in (3, 5, 16):
            _, tree = build_tree(points, leaf_capacity=capacity, branch_capacity=capacity)
            tree.check_invariants()
            assert len(tree.all_leaf_entries()) == 120


class TestRangeSearch:
    def test_range_search_matches_linear_scan(self):
        points = uniform_points(300, seed=4)
        _, tree = build_tree(points)
        rng = random.Random(0)
        for _ in range(20):
            x1, x2 = sorted(rng.uniform(0, 10_000) for _ in range(2))
            y1, y2 = sorted(rng.uniform(0, 10_000) for _ in range(2))
            region = Rect(x1, y1, x2, y2)
            expected = {i for i, p in enumerate(points) if region.contains_point(p)}
            found = {e.oid for e in tree.range_search(region)}
            assert found == expected

    def test_range_search_on_empty_tree(self):
        tree = RTree(DiskManager(), "RP")
        assert tree.range_search(Rect(0, 0, 1, 1)) == []


class TestTraversal:
    def test_iter_leaf_nodes_visits_every_leaf_once(self):
        points = uniform_points(200, seed=5)
        _, tree = build_tree(points)
        leaves = list(tree.iter_leaf_nodes())
        assert len(leaves) == tree.leaf_count()
        oids = [e.oid for leaf in leaves for e in leaf.entries]
        assert sorted(oids) == list(range(200))

    def test_hilbert_order_covers_all_leaves(self):
        """The Hilbert traversal reaches the same leaf pages as a plain
        depth-first walk of the tree, each exactly once."""
        points = uniform_points(200, seed=6)
        _, tree = build_tree(points)
        hilbert_pages = [page for page, _ in tree.iter_leaf_nodes_with_pages()]
        stack, dfs_pages = [tree.root_page], []
        while stack:
            page = stack.pop()
            node = tree.peek_node(page)
            if node.is_leaf:
                dfs_pages.append(page)
            else:
                stack.extend(e.child_page for e in node.entries)
        assert len(hilbert_pages) == len(set(hilbert_pages))
        assert sorted(hilbert_pages) == sorted(dfs_pages)


class TestIOAccounting:
    def test_reads_are_charged_through_the_disk(self):
        points = uniform_points(100, seed=8)
        disk, tree = build_tree(points)
        disk.reset_counters()
        disk.buffer.clear()
        list(tree.iter_leaf_nodes())
        assert disk.counters.reads == tree.node_count()

    def test_buffer_reduces_repeated_traversal_cost(self):
        points = uniform_points(100, seed=9)
        disk, tree = build_tree(points)
        disk.resize_buffer(tree.node_count())
        disk.buffer.clear()
        disk.reset_counters()
        list(tree.iter_leaf_nodes())
        first_pass = disk.counters.reads
        list(tree.iter_leaf_nodes())
        assert disk.counters.reads == first_pass  # second pass fully buffered

    def test_peek_access_is_free(self):
        points = uniform_points(50, seed=10)
        disk, tree = build_tree(points)
        disk.reset_counters()
        tree.all_leaf_entries()
        tree.node_count()
        assert disk.counters.page_accesses == 0
