"""Lightweight SVG visualisation of pointsets, Voronoi diagrams and CIJ results.

The paper illustrates the operator with diagrams like Figure 1 (two
overlapping Voronoi diagrams and the common influence regions of the result
pairs).  This subpackage renders the same pictures as standalone SVG files
with no third-party dependencies, which the examples use to make the join
output inspectable.
"""

from repro.viz.svg import SVGCanvas, render_cij, render_voronoi_diagram

__all__ = ["SVGCanvas", "render_voronoi_diagram", "render_cij"]
