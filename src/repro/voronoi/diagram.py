"""Voronoi diagrams: index-driven builders and a brute-force oracle.

FM-CIJ and PM-CIJ materialise complete Voronoi diagrams by visiting the leaf
nodes of the source R-tree and computing the cells of each leaf's points.
Two strategies are exposed, matching Section V-A of the paper:

* **ITER** — one :func:`~repro.voronoi.single.compute_voronoi_cell` call per
  point (Algorithm 1 per point),
* **BATCH** — one :func:`~repro.voronoi.batch.compute_voronoi_cells` call
  per leaf node (Algorithm 2), the method the CIJ algorithms use.

The brute-force builder clips the domain with every bisector and serves as
the ground-truth oracle for the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.voronoi.batch import compute_cells_for_leaf
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats, compute_voronoi_cell


@dataclass
class VoronoiDiagram:
    """A complete Voronoi diagram: one bounded cell per generator point."""

    domain: Rect
    cells: Dict[int, VoronoiCell] = field(default_factory=dict)

    def add(self, cell: VoronoiCell) -> None:
        """Insert a cell, rejecting duplicate generator identifiers."""
        if cell.oid in self.cells:
            raise ValueError(f"duplicate Voronoi cell for oid {cell.oid}")
        self.cells[cell.oid] = cell

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[VoronoiCell]:
        return iter(self.cells.values())

    def cell_of(self, oid: int) -> VoronoiCell:
        """The cell of a given generator identifier."""
        return self.cells[oid]

    def locate(self, location: Point) -> Optional[VoronoiCell]:
        """The cell containing ``location`` (ties broken arbitrarily).

        Linear in the number of cells; intended for examples and tests, not
        for the join algorithms (which never need point location).
        """
        best: Optional[VoronoiCell] = None
        best_dist = float("inf")
        for cell in self.cells.values():
            d = cell.site.distance_to(location)
            if d < best_dist:
                best, best_dist = cell, d
        return best

    def total_area(self) -> float:
        """Sum of cell areas; equals the domain area for an exact diagram."""
        return sum(cell.area() for cell in self.cells.values())

    def intersecting_pairs(self, other: "VoronoiDiagram") -> List[Tuple[int, int]]:
        """All pairs of cell oids whose polygons properly overlap (nested
        loops over :meth:`VoronoiCell.intersects`, which excludes zero-area
        boundary contact).

        This is the brute-force CIJ used as a correctness oracle; it shares
        the tie convention with FM/PM/NM by construction.
        """
        pairs: List[Tuple[int, int]] = []
        for cell_a in self.cells.values():
            for cell_b in other.cells.values():
                if cell_a.intersects(cell_b):
                    pairs.append((cell_a.oid, cell_b.oid))
        return pairs


def compute_voronoi_diagram(
    tree: RTree,
    domain: Rect,
    strategy: str = "batch",
    stats: Optional[CellComputationStats] = None,
) -> VoronoiDiagram:
    """Build the full Voronoi diagram of an R-tree-indexed pointset.

    Parameters
    ----------
    tree:
        The source R-tree.
    domain:
        Space domain bounding every cell.
    strategy:
        ``"batch"`` (Algorithm 2 per leaf) or ``"iter"`` (Algorithm 1 per
        point), matching the ITER/BATCH comparison of Figure 6.
    stats:
        Optional shared work counters.
    """
    diagram = VoronoiDiagram(domain)
    for cell in iter_diagram_cells(tree, domain, strategy=strategy, stats=stats):
        diagram.add(cell)
    return diagram


def iter_diagram_cells(
    tree: RTree,
    domain: Rect,
    strategy: str = "batch",
    stats: Optional[CellComputationStats] = None,
) -> Iterator[VoronoiCell]:
    """Stream the cells of the diagram leaf-group by leaf-group.

    Source leaves are visited in Hilbert order, which keeps consecutive
    groups spatially close.  FM-CIJ and PM-CIJ consume the cells in this
    order and pack them straight into the bulk loader, so the full diagram
    never needs to be held in memory at once.
    """
    if strategy not in ("batch", "iter"):
        raise ValueError(f"unknown diagram strategy: {strategy!r}")
    stats = stats if stats is not None else CellComputationStats()
    for leaf in tree.iter_leaf_nodes():
        if strategy == "batch":
            yield from compute_cells_for_leaf(
                tree, leaf.entries, domain, stats=stats
            ).values()
        else:
            for entry in leaf.entries:
                yield compute_voronoi_cell(
                    tree, entry.payload, domain, site_oid=entry.oid, stats=stats
                )


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------
def brute_force_cell(
    site: Point,
    points: Iterable[Point],
    domain: Rect,
    oid: int = -1,
) -> VoronoiCell:
    """Exact cell of ``site`` by clipping the domain with every bisector.

    Quadratic in the dataset when used for every point; this is the
    definitional computation (Equation 2) used as ground truth.
    """
    polygon = ConvexPolygon.from_rect(domain)
    for other in points:
        if other.x == site.x and other.y == site.y:
            continue
        polygon = polygon.clip_halfplane(bisector_halfplane(site, other))
        if polygon.is_empty():
            break
    return VoronoiCell(oid, site, polygon)


def brute_force_diagram(
    points: Sequence[Point],
    domain: Rect,
    oids: Optional[Sequence[int]] = None,
) -> VoronoiDiagram:
    """Ground-truth Voronoi diagram computed directly from Equation 2."""
    if oids is None:
        oids = list(range(len(points)))
    if len(oids) != len(points):
        raise ValueError("oids and points must have the same length")
    diagram = VoronoiDiagram(domain)
    for oid, site in zip(oids, points):
        diagram.add(brute_force_cell(site, points, domain, oid=oid))
    return diagram
