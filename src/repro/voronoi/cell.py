"""The Voronoi-cell record shared by every algorithm in the library."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class VoronoiCell:
    """A Voronoi cell: the generator site, its identifier and the polygon.

    The polygon is always clipped to the space domain ``U`` used by the
    computation, so every cell is a bounded convex polygon — which is what
    the R-trees of FM-CIJ/PM-CIJ index and what the join predicate tests.
    """

    oid: int
    site: Point
    polygon: ConvexPolygon

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the cell polygon."""
        return self.polygon.bounding_rect()

    def area(self) -> float:
        """Area of the cell."""
        return self.polygon.area()

    def contains(self, location: Point) -> bool:
        """Whether ``location`` lies in this cell (closer to the site than
        to any other site of the generating pointset, up to boundary ties)."""
        return self.polygon.contains_point(location)

    def intersects(self, other: "VoronoiCell") -> bool:
        """The CIJ predicate: do the two influence regions properly overlap?

        Boundary-tie convention (shared by the brute-force oracle and by
        FM/PM/NM alike): the pair joins only when the common influence
        region has positive area.  Cells that touch in a zero-area contact
        — an edge segment or a single vertex, as happens when bisectors of
        the two pointsets fall exactly colinear — are *excluded*, matching
        the epsilon-guarded polygon predicates the algorithms already used.
        """
        return self.polygon.intersects_interior(other.polygon)

    def common_region(self, other: "VoronoiCell") -> ConvexPolygon:
        """The common influence region ``R(p, q)`` (possibly empty)."""
        return self.polygon.intersection(other.polygon)

    def vertex_count(self) -> int:
        """Number of polygon vertices (drives the entry size on disk)."""
        return len(self.polygon)
