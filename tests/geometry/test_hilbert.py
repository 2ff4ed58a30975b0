"""Tests for the Hilbert space-filling curve helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.hilbert import hilbert_index, hilbert_value
from repro.geometry.point import Point
from repro.geometry.rect import Rect

DOMAIN = Rect(0.0, 0.0, 10_000.0, 10_000.0)


class TestHilbertIndex:
    def test_order_one_curve_layout(self):
        # Order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(0, 0, order=1) == 0
        assert hilbert_index(0, 1, order=1) == 1
        assert hilbert_index(1, 1, order=1) == 2
        assert hilbert_index(1, 0, order=1) == 3

    def test_indices_are_a_bijection_on_small_grid(self):
        order = 3
        side = 1 << order
        values = {hilbert_index(x, y, order) for x in range(side) for y in range(side)}
        assert values == set(range(side * side))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_consecutive_indices_are_adjacent_cells(self, order):
        # The defining property of the curve: it visits every cell of the
        # grid once, each step moving to an edge-adjacent cell.
        side = 1 << order
        cell_at = {hilbert_index(x, y, order): (x, y) for x in range(side) for y in range(side)}
        path = [cell_at[d] for d in range(side * side)]
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            hilbert_index(4, 0, order=2)
        with pytest.raises(ValueError):
            hilbert_index(-1, 0, order=2)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_neighbouring_cells_have_close_indices_on_average(self, x, y):
        # Locality sanity check: a one-step move changes the index by less
        # than the full curve length.
        order = 6
        side = 1 << order
        here = hilbert_index(x, y, order)
        if x + 1 < side:
            assert abs(hilbert_index(x + 1, y, order) - here) < side * side


class TestHilbertValue:
    def test_points_outside_domain_are_clamped(self):
        inside = hilbert_value(Point(0.0, 0.0), DOMAIN)
        outside = hilbert_value(Point(-500.0, -500.0), DOMAIN)
        assert inside == outside

    def test_curve_runs_from_south_west_to_south_east_corner(self):
        order = 4
        last = (1 << order) ** 2 - 1
        assert hilbert_value(Point(DOMAIN.xmin, DOMAIN.ymin), DOMAIN, order) == 0
        assert hilbert_value(Point(DOMAIN.xmax, DOMAIN.ymin), DOMAIN, order) == last

    def test_sorted_indices_cover_all_points(self):
        points = [Point(100.0 * i, 50.0 * i) for i in range(20)]
        order = sorted(range(len(points)), key=lambda i: hilbert_value(points[i], DOMAIN))
        assert sorted(order) == list(range(20))

    def test_spatially_close_points_are_close_in_order(self):
        cluster_a = [Point(10.0 + i, 10.0 + i) for i in range(5)]
        cluster_b = [Point(9000.0 + i, 9000.0 + i) for i in range(5)]
        points = cluster_a + cluster_b
        order = sorted(range(len(points)), key=lambda i: hilbert_value(points[i], DOMAIN))
        positions_a = [order.index(i) for i in range(5)]
        positions_b = [order.index(i) for i in range(5, 10)]
        # All of cluster A appears contiguously before or after all of B.
        assert max(positions_a) < min(positions_b) or max(positions_b) < min(positions_a)
