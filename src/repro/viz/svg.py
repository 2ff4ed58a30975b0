"""Minimal SVG rendering for the spatial objects of this library.

Everything is plain string construction: the goal is quick visual inspection
of datasets, Voronoi diagrams and CIJ results (as in Figure 1 of the paper),
not a plotting framework.  Coordinates are mapped from the data domain to a
fixed-size canvas with the y-axis flipped so that north is up.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.voronoi.diagram import VoronoiDiagram


class SVGCanvas:
    """An SVG document with helpers for the shapes this library produces."""

    def __init__(self, domain: Rect, width: int = 640, height: int = 640, margin: int = 10):
        if width <= 2 * margin or height <= 2 * margin:
            raise ValueError("canvas must be larger than twice its margin")
        self.domain = domain
        self.width = width
        self.height = height
        self.margin = margin
        self._elements: List[str] = []

    # ------------------------------------------------------------------
    # coordinate mapping
    # ------------------------------------------------------------------
    def transform(self, point: Point) -> Tuple[float, float]:
        """Map a data-space point onto canvas pixels (y flipped)."""
        usable_w = self.width - 2 * self.margin
        usable_h = self.height - 2 * self.margin
        span_x = self.domain.width or 1.0
        span_y = self.domain.height or 1.0
        x = self.margin + (point.x - self.domain.xmin) / span_x * usable_w
        y = self.height - self.margin - (point.y - self.domain.ymin) / span_y * usable_h
        return round(x, 2), round(y, 2)

    # ------------------------------------------------------------------
    # drawing primitives
    # ------------------------------------------------------------------
    def add_point(self, point: Point, radius: float = 3.0, color: str = "black", label: Optional[str] = None) -> None:
        """Draw a filled circle (and an optional text label) at a point."""
        x, y = self.transform(point)
        self._elements.append(
            f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{color}" />'
        )
        if label is not None:
            self._elements.append(
                f'<text x="{x + radius + 1}" y="{y - radius - 1}" font-size="9" fill="{color}">{label}</text>'
            )

    def add_polygon(
        self,
        polygon: ConvexPolygon,
        stroke: str = "black",
        fill: str = "none",
        opacity: float = 1.0,
        stroke_width: float = 1.0,
    ) -> None:
        """Draw a convex polygon outline (optionally filled)."""
        if polygon.is_empty():
            return
        coords = " ".join(f"{x},{y}" for x, y in (self.transform(v) for v in polygon.vertices))
        self._elements.append(
            f'<polygon points="{coords}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}" />'
        )

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def to_svg(self) -> str:
        """The complete SVG document as a string."""
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        background = f'<rect width="{self.width}" height="{self.height}" fill="white" />'
        return "\n".join([header, background, *self._elements, "</svg>"])


def render_voronoi_diagram(
    diagram: VoronoiDiagram,
    width: int = 640,
    height: int = 640,
    cell_stroke: str = "#1f77b4",
    site_color: str = "black",
    label_sites: bool = False,
) -> str:
    """Render a Voronoi diagram: cell boundaries plus generator sites."""
    canvas = SVGCanvas(diagram.domain, width=width, height=height)
    for cell in diagram:
        canvas.add_polygon(cell.polygon, stroke=cell_stroke)
    for cell in diagram:
        canvas.add_point(cell.site, radius=2.5, color=site_color,
                         label=str(cell.oid) if label_sites else None)
    return canvas.to_svg()


def render_cij(
    diagram_p: VoronoiDiagram,
    diagram_q: VoronoiDiagram,
    pairs: Iterable[Tuple[int, int]],
    width: int = 640,
    height: int = 640,
    max_regions: Optional[int] = None,
) -> str:
    """Render two Voronoi diagrams and shade the common influence regions.

    This reproduces the style of Figure 1 of the paper: the cells of ``P``
    with solid strokes, the cells of ``Q`` with dashed strokes, and the
    region ``R(p, q)`` of every result pair filled in.
    """
    domain = diagram_p.domain.union(diagram_q.domain)
    canvas = SVGCanvas(domain, width=width, height=height)
    for cell in diagram_p:
        canvas.add_polygon(cell.polygon, stroke="#1f77b4", stroke_width=1.0)
    for cell in diagram_q:
        canvas.add_polygon(cell.polygon, stroke="#d62728", stroke_width=0.8)
    drawn = 0
    for p_oid, q_oid in pairs:
        if max_regions is not None and drawn >= max_regions:
            break
        region = diagram_p.cell_of(p_oid).common_region(diagram_q.cell_of(q_oid))
        if region.is_empty():
            continue
        canvas.add_polygon(region, stroke="none", fill="#2ca02c", opacity=0.25)
        drawn += 1
    for cell in diagram_p:
        canvas.add_point(cell.site, radius=2.5, color="#1f77b4")
    for cell in diagram_q:
        canvas.add_point(cell.site, radius=2.5, color="#d62728")
    return canvas.to_svg()
