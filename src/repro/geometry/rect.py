"""Axis-aligned rectangles (minimum bounding rectangles).

R-tree entries carry an MBR; every pruning rule in the paper is expressed in
terms of ``mindist`` between an MBR and a point (Lemma 2, and the best-first
visit order of Algorithms 1, 2 and 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.geometry.point import Point


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __reduce__(self):
        # Frozen dataclasses with __slots__ need an explicit pickle path
        # (the default slot-state restore setattrs on a frozen instance).
        return (Rect, (self.xmin, self.ymin, self.xmax, self.ymax))

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate rectangle: ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(p: Point) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return Rect(p.x, p.y, p.x, p.y)

    @staticmethod
    def from_points(points: Sequence[Point] | Iterable[Point]) -> "Rect":
        """Tight bounding rectangle of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ValueError("Rect.from_points() requires at least one point")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @staticmethod
    def union_all(rects: Sequence["Rect"] | Iterable["Rect"]) -> "Rect":
        """Bounding rectangle of a non-empty collection of rectangles."""
        rs = list(rects)
        if not rs:
            raise ValueError("Rect.union_all() requires at least one rectangle")
        return Rect(
            min(r.xmin for r in rs),
            min(r.ymin for r in rs),
            max(r.xmax for r in rs),
            max(r.ymax for r in rs),
        )

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate point rectangles)."""
        return self.width * self.height

    def perimeter(self) -> float:
        """Perimeter; the quadratic-split heuristic minimises MBR enlargement."""
        return 2.0 * (self.width + self.height)

    def center(self) -> Point:
        """Geometric centre of the rectangle."""
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def corners(self) -> List[Point]:
        """The four corners in counter-clockwise order."""
        return [
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        ]

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point, eps: float = 0.0) -> bool:
        """Whether ``p`` lies inside the (closed) rectangle."""
        return (
            self.xmin - eps <= p.x <= self.xmax + eps
            and self.ymin - eps <= p.y <= self.ymax + eps
        )

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` is fully contained in this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.xmax >= other.xmax
            and self.ymax >= other.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two closed rectangles share at least one point."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common rectangle, or ``None`` when the rectangles are disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
        )

    # ------------------------------------------------------------------
    # combinations and metrics
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both rectangles."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to also cover ``other`` (Guttman's criterion)."""
        return self.union(other).area() - self.area()

    def mindist_point(self, p: Point) -> float:
        """Minimum distance from ``p`` to any location inside the rectangle.

        This is the classical ``mindist`` lower bound of best-first nearest
        neighbour search; it is zero when the point lies inside the MBR.
        """
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        # sqrt(dx*dx + dy*dy) rather than hypot: the formula is pinned so
        # pairs and counters stay byte-identical to the committed baselines
        # (hypot may differ from it by one ulp).
        return math.sqrt(dx * dx + dy * dy)

    def mindist_sq_point(self, p: Point) -> float:
        """Squared ``mindist`` to a point."""
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        return dx * dx + dy * dy

    def maxdist_point(self, p: Point) -> float:
        """Maximum distance from ``p`` to any location inside the rectangle."""
        dx = max(abs(p.x - self.xmin), abs(p.x - self.xmax))
        dy = max(abs(p.y - self.ymin), abs(p.y - self.ymax))
        return math.hypot(dx, dy)

    def mindist_rect(self, other: "Rect") -> float:
        """Minimum distance between any two locations of the two rectangles."""
        dx = max(self.xmin - other.xmax, 0.0, other.xmin - self.xmax)
        dy = max(self.ymin - other.ymax, 0.0, other.ymin - self.ymax)
        return math.hypot(dx, dy)

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side."""
        return Rect(
            self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin
        )

    def sample_grid(self, per_side: int) -> List[Point]:
        """A ``per_side x per_side`` grid of points covering the rectangle.

        Convenience helper used by tests and examples to probe regions.
        """
        if per_side < 2:
            return [self.center()]
        xs = [self.xmin + self.width * i / (per_side - 1) for i in range(per_side)]
        ys = [self.ymin + self.height * i / (per_side - 1) for i in range(per_side)]
        return [Point(x, y) for x in xs for y in ys]
