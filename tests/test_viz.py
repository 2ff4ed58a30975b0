"""Tests for the SVG visualisation helpers."""

import xml.etree.ElementTree as ET

import pytest

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from tests.oracles import brute_force_cij_pairs
from repro.viz.svg import SVGCanvas, render_cij, render_voronoi_diagram
from repro.voronoi.diagram import brute_force_diagram

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text: str):
    return ET.fromstring(svg_text)


class TestSVGCanvas:
    def test_invalid_canvas_size_rejected(self):
        with pytest.raises(ValueError):
            SVGCanvas(DOMAIN, width=10, height=10, margin=10)

    def test_transform_maps_domain_corners_inside_canvas(self):
        canvas = SVGCanvas(Rect(0, 0, 100, 100), width=200, height=200, margin=10)
        x0, y0 = canvas.transform(Point(0.0, 0.0))
        x1, y1 = canvas.transform(Point(100.0, 100.0))
        assert (x0, y0) == (10.0, 190.0)  # south-west corner maps to bottom-left
        assert (x1, y1) == (190.0, 10.0)  # north-east corner maps to top-right

    def test_document_is_well_formed_xml(self):
        canvas = SVGCanvas(DOMAIN)
        canvas.add_point(Point(5000.0, 5000.0))
        canvas.add_polygon(ConvexPolygon.from_rect(Rect(0, 0, 100, 100)))
        canvas.add_polygon(ConvexPolygon.from_rect(Rect(200, 200, 300, 300)))
        root = parse(canvas.to_svg())
        assert root.tag == f"{SVG_NS}svg"
        # The white background rectangle plus the three drawn elements.
        assert len(root) == 1 + 3

    def test_point_label_is_drawn_beside_the_point(self):
        canvas = SVGCanvas(DOMAIN)
        canvas.add_point(Point(1.0, 1.0), label="p1")
        root = parse(canvas.to_svg())
        assert len(root.findall(f"{SVG_NS}circle")) == 1
        assert [t.text for t in root.findall(f"{SVG_NS}text")] == ["p1"]

    def test_polygon_vertices_are_mapped_onto_the_canvas(self):
        canvas = SVGCanvas(Rect(0, 0, 100, 100), width=200, height=200, margin=10)
        canvas.add_polygon(ConvexPolygon.from_rect(Rect(0, 0, 100, 100)), fill="red")
        (polygon,) = parse(canvas.to_svg()).findall(f"{SVG_NS}polygon")
        corners = {tuple(float(v) for v in pair.split(",")) for pair in polygon.get("points").split()}
        assert corners == {(10.0, 190.0), (190.0, 190.0), (190.0, 10.0), (10.0, 10.0)}
        assert polygon.get("fill") == "red"

    def test_empty_polygon_is_skipped(self):
        canvas = SVGCanvas(DOMAIN)
        canvas.add_polygon(ConvexPolygon.empty())
        assert len(parse(canvas.to_svg())) == 1


class TestRenderers:
    def test_render_voronoi_diagram_draws_cells_and_sites(self):
        points = uniform_points(20, seed=303)
        diagram = brute_force_diagram(points, DOMAIN)
        root = parse(render_voronoi_diagram(diagram, label_sites=True))
        assert len(root.findall(f"{SVG_NS}polygon")) == 20
        assert len(root.findall(f"{SVG_NS}circle")) == 20
        assert len(root.findall(f"{SVG_NS}text")) == 20

    def test_render_voronoi_diagram_labels_are_optional(self):
        diagram = brute_force_diagram(uniform_points(8, seed=308), DOMAIN)
        root = parse(render_voronoi_diagram(diagram))
        assert root.findall(f"{SVG_NS}text") == []
        assert len(root.findall(f"{SVG_NS}circle")) == 8

    def test_render_cij_shades_a_region_per_pair(self):
        points_p = uniform_points(12, seed=304)
        points_q = uniform_points(10, seed=305)
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        diagram_q = brute_force_diagram(points_q, DOMAIN)
        pairs = sorted(brute_force_cij_pairs(points_p, points_q, DOMAIN))
        root = parse(render_cij(diagram_p, diagram_q, pairs))
        polygons = root.findall(f"{SVG_NS}polygon")
        # cells of P + cells of Q + one filled region per pair with interior overlap
        assert len(polygons) >= len(points_p) + len(points_q)
        filled = [p for p in polygons if p.get("fill") not in (None, "none")]
        assert 0 < len(filled) <= len(pairs)

    def test_render_cij_respects_max_regions(self):
        points_p = uniform_points(10, seed=306)
        points_q = uniform_points(10, seed=307)
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        diagram_q = brute_force_diagram(points_q, DOMAIN)
        pairs = sorted(brute_force_cij_pairs(points_p, points_q, DOMAIN))
        root = parse(render_cij(diagram_p, diagram_q, pairs, max_regions=3))
        filled = [
            p for p in root.findall(f"{SVG_NS}polygon") if p.get("fill") not in (None, "none")
        ]
        assert len(filled) <= 3
