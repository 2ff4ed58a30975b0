"""Hilbert space-filling curve index.

FM-CIJ and PM-CIJ bulk-load the Voronoi R-trees by visiting source leaves in
Hilbert order of their centroids (Section III-C, "Optimized construction of
R'_P and R'_Q"), so that consecutively packed leaf pages contain cells that
are close in space.  The same ordering is reused by the bulk-loading helper
for point R-trees.
"""

from __future__ import annotations

from typing import Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect

DEFAULT_ORDER = 16


def hilbert_index(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Map integer grid coordinates to their Hilbert-curve index.

    Parameters
    ----------
    x, y:
        Grid coordinates in ``[0, 2**order)``.
    order:
        Number of curve iterations (bits per coordinate).

    Returns
    -------
    int
        Position along the Hilbert curve, in ``[0, 4**order)``.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"coordinates ({x}, {y}) outside the order-{order} grid")
    rx = ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s >>= 1
    return d


def _rotate(s: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip the quadrant as required by the Hilbert recursion."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


def hilbert_value(point: Point, domain: Rect, order: int = DEFAULT_ORDER) -> int:
    """Hilbert index of a real-valued point, scaled to the given domain.

    Points outside ``domain`` are clamped onto its boundary so that slightly
    out-of-range centroids (possible after floating-point arithmetic on cell
    vertices) still receive a stable ordering value.
    """
    side = 1 << order
    width = domain.width or 1.0
    height = domain.height or 1.0
    gx = int((point.x - domain.xmin) / width * (side - 1))
    gy = int((point.y - domain.ymin) / height * (side - 1))
    gx = min(side - 1, max(0, gx))
    gy = min(side - 1, max(0, gy))
    return hilbert_index(gx, gy, order)
