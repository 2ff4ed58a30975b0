"""Points in the plane and elementary distance helpers.

All CIJ algorithms work on Euclidean distance in two dimensions, matching the
paper's setting.  Points are immutable so they can be used as dictionary keys
(e.g. the REUSE buffer of NM-CIJ keys cached Voronoi cells by their site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class Point:
    """An immutable 2-D point.

    Parameters
    ----------
    x, y:
        Cartesian coordinates.  The experiment harness normalises every
        dataset to the ``[0, 10000]`` domain used in the paper, but nothing
        in the geometry layer assumes a particular domain.
    """

    x: float
    y: float

    __slots__ = ("x", "y")

    def __reduce__(self):
        # A frozen dataclass with __slots__ cannot use pickle's default
        # slot-state path (it setattrs on a frozen instance); rebuilding
        # through the constructor keeps points picklable — the sharded
        # executor ships REUSE-buffer cells between worker processes.
        return (Point, (self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``.

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``:
        the formula is pinned so pairs and counters stay byte-identical to
        the committed baselines (hypot may differ from it by one ulp, which
        can flip a distance tie and with it a clip or prune decision).
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def as_tuple(self) -> tuple:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points (same formula as
    :meth:`Point.distance_to`; see there for why the formula is
    pinned)."""
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def dist_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of the segment ``ab``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def centroid(points: Sequence[Point] | Iterable[Point]) -> Point:
    """Arithmetic centroid of a non-empty collection of points.

    Used wherever the paper orders a traversal "by distance from the centroid
    of the group" (BatchVoronoi, BatchConditionalFilter).

    Raises
    ------
    ValueError
        If ``points`` is empty.
    """
    pts = list(points)
    if not pts:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))
