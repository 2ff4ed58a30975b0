"""Halfplanes and perpendicular bisectors (Equation 1 of the paper).

A Voronoi cell is the intersection of halfplanes ``⊥(p_i, p_j)`` over all
other sites ``p_j`` (Equation 2); this module provides the halfplane
representation and the bisector constructor used by every cell-refinement
step in the paper's algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.geometry.point import Point
from repro.geometry.tolerance import BOUNDARY_EPS


@dataclass(frozen=True)
class Halfplane:
    """The closed halfplane ``a*x + b*y <= c``.

    The coefficient vector ``(a, b)`` points towards the *excluded* side,
    i.e. locations with ``a*x + b*y > c`` are outside the halfplane.
    """

    a: float
    b: float
    c: float

    __slots__ = ("a", "b", "c")

    def __reduce__(self):
        # Frozen dataclasses with __slots__ need an explicit pickle path
        # (the default slot-state restore setattrs on a frozen instance).
        return (Halfplane, (self.a, self.b, self.c))

    def value(self, p: Point) -> float:
        """Signed evaluation ``a*x + b*y - c`` (non-positive inside)."""
        return self.a * p.x + self.b * p.y - self.c

    def contains(self, p: Point, eps: float = BOUNDARY_EPS) -> bool:
        """Whether ``p`` lies in the closed halfplane (with tolerance).

        The tolerance is scaled exactly like the polygon clipping tolerance
        (``eps`` times the normal's norm, i.e. an ``eps`` distance to the
        boundary line), so a point near the boundary gets the same verdict
        here and from :meth:`ConvexPolygon.clip_halfplane` — the historic
        ``1e-9 * max(1, |c|)`` variant disagreed with clipping for points
        within ``[1e-9, 1e-7]`` of the line.  The degenerate zero-normal
        halfplane keeps the old coefficient-scaled fallback.
        """
        norm = math.sqrt(self.a * self.a + self.b * self.b)
        tol = eps * (norm if norm > 0.0 else max(1.0, abs(self.c)))
        return self.value(p) <= tol

    def boundary_points(self, span: float = 1.0) -> Tuple[Point, Point]:
        """Two distinct points on the boundary line, ``2*span`` apart.

        Useful for plotting and for tests that need explicit boundary
        geometry.
        """
        norm = math.hypot(self.a, self.b)
        if norm == 0.0:
            raise ValueError("degenerate halfplane with zero normal vector")
        # Foot of the perpendicular from the origin onto the boundary.
        fx = self.a * self.c / (norm * norm)
        fy = self.b * self.c / (norm * norm)
        # Unit direction along the boundary.
        ux = -self.b / norm
        uy = self.a / norm
        return (
            Point(fx - span * ux, fy - span * uy),
            Point(fx + span * ux, fy + span * uy),
        )


def bisector_halfplane(p: Point, q: Point) -> Halfplane:
    """The halfplane ``⊥_p(p, q)`` of locations closer to ``p`` than ``q``.

    This is Equation 1 of the paper.  The boundary is the perpendicular
    bisector of the segment ``pq``; ``p`` itself always satisfies the
    returned halfplane strictly (unless ``p == q``, which is rejected).

    Raises
    ------
    ValueError
        If ``p`` and ``q`` coincide, in which case no bisector exists.
    """
    if p.x == q.x and p.y == q.y:
        raise ValueError("cannot build a bisector halfplane for identical points")
    # dist(x, p) <= dist(x, q)  <=>  2*(q - p) . x <= |q|^2 - |p|^2
    a = 2.0 * (q.x - p.x)
    b = 2.0 * (q.y - p.y)
    c = (q.x * q.x + q.y * q.y) - (p.x * p.x + p.y * p.y)
    return Halfplane(a, b, c)


def perpendicular_bisector(p: Point, q: Point) -> Tuple[Point, Point]:
    """Two points spanning the perpendicular bisector line of ``pq``.

    Provided for visualisation and for the TP-VOR baseline, which needs the
    crossing parameter of a bisector with a query segment.
    """
    hp = bisector_halfplane(p, q)
    span = max(1.0, p.distance_to(q))
    return hp.boundary_points(span=span)
