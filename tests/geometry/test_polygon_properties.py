"""Property-based tests for convex polygon clipping and intersection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from tests.conftest import (
    distinct_pointsets,
    near_colinear_pointsets,
    points_strategy,
    site_set_strategies,
)

DOMAIN = Rect(0.0, 0.0, 10_000.0, 10_000.0)


def cells_from_sites(sites):
    """Brute-force Voronoi cells of every site, clipped to the domain."""
    cells = []
    for site in sites:
        polygon = ConvexPolygon.from_rect(DOMAIN)
        for other in sites:
            if other == site:
                continue
            polygon = polygon.clip_halfplane(bisector_halfplane(site, other))
        cells.append((site, polygon))
    return cells


class TestClippingProperties:
    @given(distinct_pointsets(min_size=2, max_size=8), points_strategy())
    @settings(max_examples=60, deadline=None)
    def test_clipping_never_grows_area(self, sites, probe):
        polygon = ConvexPolygon.from_rect(DOMAIN)
        previous_area = polygon.area()
        site = sites[0]
        for other in sites[1:]:
            polygon = polygon.clip_halfplane(bisector_halfplane(site, other))
            area = polygon.area()
            assert area <= previous_area + 1e-6
            previous_area = area

    @site_set_strategies
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_voronoi_cell_contains_its_site(self, pointsets, data):
        sites = data.draw(pointsets(min_size=2, max_size=8))
        for site, polygon in cells_from_sites(sites):
            assert polygon.contains_point(site, eps=1e-6)

    @site_set_strategies
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_voronoi_cells_tile_the_domain(self, pointsets, data):
        sites = data.draw(pointsets(min_size=2, max_size=7))
        cells = cells_from_sites(sites)
        total = sum(polygon.area() for _, polygon in cells)
        assert total == pytest.approx(DOMAIN.area(), rel=1e-6)

    @given(distinct_pointsets(min_size=2, max_size=7), points_strategy())
    @settings(max_examples=60, deadline=None)
    def test_cell_membership_matches_nearest_site(self, sites, probe):
        cells = cells_from_sites(sites)
        distances = [probe.distance_to(site) for site, _ in cells]
        nearest = min(distances)
        for (site, polygon), distance in zip(cells, distances):
            if distance > nearest + 1e-6:
                # Strictly farther sites must not claim the probe point
                # (except within a numeric tolerance strip at boundaries).
                if polygon.contains_point(probe, eps=0.0):
                    assert distance == pytest.approx(nearest, abs=1e-3)
            elif distance == nearest:
                assert polygon.contains_point(probe, eps=1e-6)


class TestNearColinearProperties:
    """Sites within 1e-6 of one line: near-parallel bisectors."""

    @given(near_colinear_pointsets(min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bisector_clip_keeps_the_near_side(self, sites):
        square = ConvexPolygon.from_rect(DOMAIN)
        for p in sites[:2]:
            for q in sites:
                if q is p:
                    continue
                clipped = square.clip_halfplane(bisector_halfplane(p, q))
                assert clipped.contains_point(p)
                assert not clipped.contains_point(q)
                for v in clipped.vertices:
                    assert v.distance_to(p) <= v.distance_to(q) + 1e-6

    @given(near_colinear_pointsets(min_size=3, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_interior_containment_is_stricter_than_closed(self, sites):
        """Probes on and near the cell borders: the strict test implies the
        closed one, vertices are on the boundary, and no site other than
        the cell's own lies strictly inside."""
        cells = cells_from_sites(sites)
        for site, polygon in cells:
            probes = list(sites) + list(polygon.vertices)
            for probe in probes:
                if polygon.contains_point_interior(probe):
                    assert polygon.contains_point(probe)
            for v in polygon.vertices:
                assert polygon.contains_point(v)
                assert not polygon.contains_point_interior(v)
            for other in sites:
                if other is not site:
                    assert not polygon.contains_point_interior(other)


class TestIntersectionProperties:
    @given(distinct_pointsets(min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_intersection_is_commutative_on_cells(self, sites):
        cells = [polygon for _, polygon in cells_from_sites(sites)]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert cells[i].intersects(cells[j]) == cells[j].intersects(cells[i])

    @given(distinct_pointsets(min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_intersection_area_never_exceeds_either_operand(self, sites):
        cells = [polygon for _, polygon in cells_from_sites(sites)]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                common = cells[i].intersection(cells[j])
                assert common.area() <= cells[i].area() + 1e-6
                assert common.area() <= cells[j].area() + 1e-6

    @given(distinct_pointsets(min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_nonempty_intersection_implies_intersects(self, sites):
        cells = [polygon for _, polygon in cells_from_sites(sites)]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                common = cells[i].intersection(cells[j])
                if not common.is_empty() and common.area() > 1e-6:
                    assert cells[i].intersects(cells[j])
