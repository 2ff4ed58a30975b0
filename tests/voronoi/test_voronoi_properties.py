"""Property-based tests for the R-tree Voronoi cell algorithms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import DOMAIN
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_voronoi_cells
from repro.voronoi.diagram import brute_force_cell
from repro.voronoi.single import compute_voronoi_cell
from repro.voronoi.tpvor import compute_voronoi_cell_tpvor
from repro.join.conditional_filter import _approximate_cell
from tests.conftest import distinct_pointsets, site_set_strategies


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN, bulk=False)
    return tree


class TestCellAlgorithmEquivalence:
    @given(distinct_pointsets(min_size=2, max_size=14))
    @settings(max_examples=40, deadline=None)
    def test_bfvor_equals_brute_force(self, points):
        tree = indexed(points)
        for oid in (0, len(points) - 1):
            exact = compute_voronoi_cell(tree, points[oid], DOMAIN, site_oid=oid)
            oracle = brute_force_cell(points[oid], points, DOMAIN, oid=oid)
            assert exact.area() == pytest.approx(oracle.area(), rel=1e-6, abs=1e-3)

    @given(distinct_pointsets(min_size=2, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_tpvor_equals_brute_force(self, points):
        tree = indexed(points)
        oid = 0
        tp = compute_voronoi_cell_tpvor(tree, points[oid], DOMAIN, site_oid=oid)
        oracle = brute_force_cell(points[oid], points, DOMAIN, oid=oid)
        assert tp.area() == pytest.approx(oracle.area(), rel=1e-6, abs=1e-3)

    @given(distinct_pointsets(min_size=3, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_per_point(self, points):
        tree = indexed(points)
        group = [(oid, point) for oid, point in enumerate(points[: len(points) // 2 + 1])]
        batch = compute_voronoi_cells(tree, group, DOMAIN)
        for oid, site in group:
            single = compute_voronoi_cell(tree, site, DOMAIN, site_oid=oid)
            assert batch[oid].area() == pytest.approx(single.area(), rel=1e-6, abs=1e-3)


class TestCellInvariants:
    @site_set_strategies
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cells_contain_sites_and_tile_domain(self, pointsets, data):
        points = data.draw(pointsets(min_size=2, max_size=14))
        tree = indexed(points)
        cells = compute_voronoi_cells(tree, list(enumerate(points)), DOMAIN)
        total = 0.0
        for oid, site in enumerate(points):
            assert cells[oid].contains(site)
            total += cells[oid].area()
        assert total == pytest.approx(DOMAIN.area(), rel=1e-6)

    @site_set_strategies
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nearest_first_walk_equals_brute_force(self, pointsets, data):
        """The filter's Lemma-1 walk over every other site yields the exact
        cell, although it skips the bisectors that cannot refine it."""
        points = data.draw(pointsets(min_size=3, max_size=9))
        site = points[0]
        walked = _approximate_cell(
            site, list(enumerate(points[1:], 1)), ConvexPolygon.from_rect(DOMAIN)
        )
        oracle = brute_force_cell(site, points, DOMAIN)
        assert walked.area() == pytest.approx(oracle.area(), rel=1e-6, abs=1e-3)
        assert walked.contains_point(site)

    @pytest.mark.parametrize(
        "site, others, domain, area",
        [
            # All sites on one line: every bisector is parallel, so the
            # clips leave a slab x in [40, 55].
            (
                Point(50.0, 25.0),
                [Point(x, 25.0) for x in (10.0, 30.0, 60.0, 80.0, 95.0)],
                Rect(0, 0, 100, 50),
                15.0 * 50.0,
            ),
            # Four candidates at exactly the same distance (ties in the
            # walk's sort key): the cell is the square they bound.
            (
                Point(50.0, 50.0),
                [Point(40.0, 50.0), Point(60.0, 50.0), Point(50.0, 40.0),
                 Point(50.0, 60.0)],
                Rect(0, 0, 100, 100),
                10.0 * 10.0,
            ),
        ],
        ids=["colinear-candidates", "equidistant-candidates"],
    )
    def test_pinned_walk_equals_brute_force(self, site, others, domain, area):
        walked = _approximate_cell(
            site, list(enumerate(others, 1)), ConvexPolygon.from_rect(domain)
        )
        oracle = brute_force_cell(site, [site, *others], domain)
        assert walked.area() == pytest.approx(area, rel=1e-12)
        assert oracle.area() == pytest.approx(area, rel=1e-12)
        assert walked.contains_point(site)

    def test_random_sites_walk_equals_brute_force(self):
        rng = random.Random(7)
        domain = Rect(0, 0, 100, 100)
        for _ in range(25):
            site = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            others = [
                Point(rng.uniform(0, 100), rng.uniform(0, 100))
                for _ in range(rng.randrange(1, 12))
            ]
            walked = _approximate_cell(
                site, list(enumerate(others, 1)), ConvexPolygon.from_rect(domain)
            )
            oracle = brute_force_cell(site, [site, *others], domain)
            assert walked.area() == pytest.approx(oracle.area(), rel=1e-9)
            assert walked.contains_point(site)

    @given(distinct_pointsets(min_size=2, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_cells_have_disjoint_interiors(self, points):
        tree = indexed(points)
        cells = compute_voronoi_cells(tree, list(enumerate(points)), DOMAIN)
        values = list(cells.values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                overlap = values[i].common_region(values[j])
                assert overlap.area() <= 1e-3
