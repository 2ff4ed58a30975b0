"""Tests for Voronoi diagram builders and the VoronoiDiagram container."""

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.point import Point
from repro.storage.disk import DiskManager
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.diagram import (
    VoronoiDiagram,
    brute_force_diagram,
    compute_voronoi_diagram,
    iter_diagram_cells,
)
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return disk, tree


class TestVoronoiDiagramContainer:
    def test_add_and_lookup(self):
        diagram = VoronoiDiagram(DOMAIN)
        cell = VoronoiCell(1, Point(1, 1), ConvexPolygon.from_rect(Rect(0, 0, 2, 2)))
        diagram.add(cell)
        assert len(diagram) == 1
        assert diagram.cell_of(1) is cell
        assert list(diagram) == [cell]

    def test_duplicate_oid_rejected(self):
        diagram = VoronoiDiagram(DOMAIN)
        cell = VoronoiCell(1, Point(1, 1), ConvexPolygon.from_rect(Rect(0, 0, 2, 2)))
        diagram.add(cell)
        with pytest.raises(ValueError):
            diagram.add(cell)

    def test_locate_returns_nearest_site_cell(self):
        points = uniform_points(40, seed=61)
        diagram = brute_force_diagram(points, DOMAIN)
        probe = Point(1234.0, 4321.0)
        located = diagram.locate(probe)
        nearest = min(range(len(points)), key=lambda i: points[i].distance_to(probe))
        assert located.oid == nearest

    def test_locate_on_empty_diagram(self):
        assert VoronoiDiagram(DOMAIN).locate(Point(0, 0)) is None


class TestBruteForceDiagram:
    def test_cells_partition_domain(self):
        points = uniform_points(30, seed=62)
        diagram = brute_force_diagram(points, DOMAIN)
        assert diagram.total_area() == pytest.approx(DOMAIN.area(), rel=1e-6)

    def test_mismatched_oids_rejected(self):
        with pytest.raises(ValueError):
            brute_force_diagram([Point(0, 0)], DOMAIN, oids=[1, 2])

    def test_intersecting_pairs_symmetry(self):
        points_p = uniform_points(15, seed=63)
        points_q = uniform_points(12, seed=64)
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        diagram_q = brute_force_diagram(points_q, DOMAIN)
        forward = set(diagram_p.intersecting_pairs(diagram_q))
        backward = {(b, a) for a, b in diagram_q.intersecting_pairs(diagram_p)}
        assert forward == backward


class TestIndexDrivenDiagram:
    def test_batch_strategy_matches_brute_force(self):
        points = uniform_points(120, seed=65)
        _, tree = indexed(points)
        diagram = compute_voronoi_diagram(tree, DOMAIN, strategy="batch")
        oracle = brute_force_diagram(points, DOMAIN)
        assert len(diagram) == len(points)
        for oid in range(len(points)):
            assert diagram.cell_of(oid).area() == pytest.approx(
                oracle.cell_of(oid).area(), rel=1e-6, abs=1e-3
            )

    def test_iter_strategy_matches_batch_strategy(self):
        points = uniform_points(100, seed=66)
        _, tree = indexed(points)
        batch = compute_voronoi_diagram(tree, DOMAIN, strategy="batch")
        iters = compute_voronoi_diagram(tree, DOMAIN, strategy="iter")
        for oid in range(len(points)):
            assert batch.cell_of(oid).area() == pytest.approx(
                iters.cell_of(oid).area(), rel=1e-6, abs=1e-3
            )

    def test_diagram_covers_domain(self):
        points = uniform_points(80, seed=67)
        _, tree = indexed(points)
        diagram = compute_voronoi_diagram(tree, DOMAIN, strategy="batch")
        assert diagram.total_area() == pytest.approx(DOMAIN.area(), rel=1e-6)

    def test_unknown_strategy_rejected(self):
        points = uniform_points(20, seed=68)
        _, tree = indexed(points)
        with pytest.raises(ValueError):
            compute_voronoi_diagram(tree, DOMAIN, strategy="magic")
        with pytest.raises(ValueError):
            list(iter_diagram_cells(tree, DOMAIN, strategy="magic"))

    def test_streaming_cells_match_diagram(self):
        points = uniform_points(90, seed=69)
        _, tree = indexed(points)
        streamed = {cell.oid: cell for cell in iter_diagram_cells(tree, DOMAIN)}
        diagram = compute_voronoi_diagram(tree, DOMAIN)
        assert set(streamed) == set(diagram.cells)

    @pytest.mark.parametrize("strategy", ["batch", "iter"])
    def test_diagram_keeps_the_streamed_cells_and_order(self, strategy):
        """The diagram is built from the cell stream: same cells, same
        order, for both strategies."""
        points = uniform_points(90, seed=72)
        _, tree = indexed(points)
        streamed = list(iter_diagram_cells(tree, DOMAIN, strategy=strategy))
        diagram = compute_voronoi_diagram(tree, DOMAIN, strategy=strategy)
        assert [c.oid for c in diagram] == [c.oid for c in streamed]
        assert [c.polygon for c in diagram] == [c.polygon for c in streamed]

    def test_batch_io_close_to_lower_bound_with_buffer(self):
        """Figure 6a claim: with a reasonable buffer BATCH I/O approaches the
        cost of scanning the tree once (LB).  At this reduced scale a single
        leaf's neighbourhood spans a large fraction of the tiny tree, so the
        buffer has to be a larger *fraction* than the paper's 2% to play the
        same role it plays at 100K points (see DESIGN.md substitutions)."""
        points = uniform_points(600, seed=70)
        disk, tree = indexed(points)
        disk.resize_buffer(max(1, tree.node_count() // 2))
        disk.buffer.clear()
        disk.reset_counters()
        compute_voronoi_diagram(tree, DOMAIN, strategy="batch")
        lb = tree.node_count()
        assert disk.counters.reads <= 4 * lb

    def test_batch_io_beats_iter_with_small_buffer(self):
        """The motivation for Algorithm 2: with a small buffer, per-point
        cell computation re-reads the same neighbourhood over and over."""
        points = uniform_points(600, seed=71)
        disk, tree = indexed(points)
        reads = {}
        for strategy in ("batch", "iter"):
            disk.resize_buffer(max(1, tree.node_count() // 10))
            disk.buffer.clear()
            disk.reset_counters()
            compute_voronoi_diagram(tree, DOMAIN, strategy=strategy)
            reads[strategy] = disk.counters.reads
        assert reads["batch"] < reads["iter"]
