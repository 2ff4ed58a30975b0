"""Tests for the AllNN join and the grouped-NN helper."""

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.point import dist
from repro.index.rtree import RTree
from repro.join.allnn import all_nearest_neighbors, grouped_nearest_pairs
from repro.storage.disk import DiskManager


class TestAllNN:
    def test_matches_linear_scan(self):
        outer_points = uniform_points(60, seed=121)
        inner_points = uniform_points(25, seed=122)
        disk = DiskManager()
        inner_tree = build_indexed_pointset(disk, "RP", inner_points, domain=DOMAIN)
        outer = list(enumerate(outer_points))
        result = all_nearest_neighbors(outer, inner_tree)
        assert set(result) == set(range(len(outer_points)))
        for oid, point in outer:
            expected = min(range(len(inner_points)), key=lambda i: dist(inner_points[i], point))
            assert result[oid][0] == expected
            assert result[oid][1] == pytest.approx(dist(inner_points[expected], point))

    def test_empty_inner_tree_gives_empty_result(self):
        outer = list(enumerate(uniform_points(5, seed=123)))
        assert all_nearest_neighbors(outer, RTree(DiskManager(), "RP")) == {}

    def test_grouped_nearest_counts_sum_to_outer_size(self):
        houses = uniform_points(100, seed=124)
        hospitals = uniform_points(8, seed=125)
        parks = uniform_points(6, seed=126)
        disk = DiskManager()
        tree_p = build_indexed_pointset(disk, "P", hospitals, domain=DOMAIN)
        tree_q = build_indexed_pointset(disk, "Q", parks, domain=DOMAIN)
        counts = grouped_nearest_pairs(list(enumerate(houses)), tree_p, tree_q)
        assert sum(counts.values()) == len(houses)
        for (p_oid, q_oid), count in counts.items():
            assert 0 <= p_oid < len(hospitals)
            assert 0 <= q_oid < len(parks)
            assert count > 0

    def test_grouped_nearest_pairs_are_subset_of_cij(self):
        """The paper's Grouped-NN application: every (hospital, park) pair
        with at least one house must be a CIJ pair."""
        from tests.oracles import brute_force_cij_pairs

        houses = uniform_points(150, seed=127)
        hospitals = uniform_points(7, seed=128)
        parks = uniform_points(5, seed=129)
        disk = DiskManager()
        tree_p = build_indexed_pointset(disk, "P", hospitals, domain=DOMAIN)
        tree_q = build_indexed_pointset(disk, "Q", parks, domain=DOMAIN)
        counts = grouped_nearest_pairs(list(enumerate(houses)), tree_p, tree_q)
        cij = brute_force_cij_pairs(hospitals, parks, DOMAIN)
        assert set(counts).issubset(cij)
