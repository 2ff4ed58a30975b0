"""Materialisation of Voronoi R-trees (shared by FM-CIJ and PM-CIJ).

Section III-C: the Voronoi diagram of a source tree is computed leaf by leaf
(in Hilbert order of the leaves) and the resulting cells are packed
sequentially into the pages of a new bulk-loaded R-tree.  Construction never
splits nodes, so its I/O cost is exactly the cost of writing the new tree's
pages, plus the reads performed by the batch cell computations.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geometry.rect import Rect
from repro.index.bulkload import StreamingBulkLoader
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.voronoi.diagram import iter_diagram_cells
from repro.voronoi.single import CellComputationStats


def materialize_voronoi_rtree(
    source_tree: RTree,
    domain: Rect,
    tag: str,
    stats: Optional[CellComputationStats] = None,
) -> Tuple[RTree, int]:
    """Compute the Voronoi diagram of ``source_tree`` and index it.

    Parameters
    ----------
    source_tree:
        R-tree over the pointset whose diagram is materialised.
    domain:
        Space domain bounding every cell.
    tag:
        Page tag of the new tree (e.g. ``"RP_vor"``), used by experiments to
        attribute materialisation I/O.
    stats:
        Optional cell-computation work counters.

    Returns
    -------
    ``(tree, cell_count)``
        The bulk-loaded Voronoi R-tree and the number of cells it stores.
    """
    voronoi_tree = RTree(source_tree.disk, tag, page_size=source_tree.page_size)
    loader = StreamingBulkLoader(voronoi_tree)
    count = 0
    for cell in iter_diagram_cells(source_tree, domain, stats=stats):
        loader.append(
            LeafEntry.for_cell(cell.oid, cell.mbr(), cell, cell.vertex_count())
        )
        count += 1
    loader.finish()
    return voronoi_tree, count


def cells_intersect_entry(entry_a: LeafEntry, entry_b: LeafEntry) -> bool:
    """Exact refinement predicate for two Voronoi-cell leaf entries."""
    return entry_a.payload.intersects(entry_b.payload)
