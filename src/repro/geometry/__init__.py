"""Planar geometry substrate used by every CIJ algorithm.

The Common Influence Join operates on 2-D pointsets whose Voronoi cells are
convex polygons.  This subpackage provides the exact geometric machinery the
paper relies on:

* :class:`~repro.geometry.point.Point` and distance helpers,
* :class:`~repro.geometry.rect.Rect` minimum bounding rectangles with the
  ``mindist`` lower bounds used by best-first R-tree traversals,
* :class:`~repro.geometry.halfplane.Halfplane` and perpendicular-bisector
  halfplanes (Equation 1 of the paper),
* :class:`~repro.geometry.polygon.ConvexPolygon` with halfplane clipping —
  the representation of Voronoi cells (Equation 2),
* a Hilbert space-filling curve used to order leaves when bulk-loading the
  Voronoi R-trees of FM-CIJ / PM-CIJ.

The Φ(L, p) influence region of Equation 3 needs no module of its own: the
ConditionalFilter applies Lemma 3 in an equivalent per-vertex form, and the
literal per-side formulation is the test-suite's oracle (``tests/oracles.py``).
"""

from repro.geometry.point import Point, centroid, dist
from repro.geometry.rect import Rect
from repro.geometry.halfplane import Halfplane, bisector_halfplane
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.hilbert import hilbert_index

__all__ = [
    "Point",
    "Rect",
    "Halfplane",
    "ConvexPolygon",
    "dist",
    "centroid",
    "bisector_halfplane",
    "hilbert_index",
]
