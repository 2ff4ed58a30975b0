"""Hierarchical spatial access methods (R-trees).

Both CIJ inputs are "pointsets indexed by hierarchical multi-dimensional
indexes, like the R-tree"; FM-CIJ and PM-CIJ additionally build bulk-loaded
R-trees over Voronoi cells.  This subpackage provides:

* :class:`~repro.index.rtree.RTree` — a Guttman R-tree with quadratic node
  splitting, stored through the simulated :class:`~repro.storage.disk.DiskManager`
  so that every node access is charged as a page access,
* :mod:`~repro.index.bulkload` — Hilbert-ordered bottom-up packing used to
  build the Voronoi R-trees ``R'_P`` / ``R'_Q`` without node splits, plus a
  streaming loader that packs variable-size cell records into fixed pages,
* entry/node primitives shared by the query and join layers.
"""

from repro.index.entries import BranchEntry, LeafEntry, Node
from repro.index.rtree import RTree, capacities_for_page
from repro.index.bulkload import StreamingBulkLoader, bulk_load_points

__all__ = [
    "RTree",
    "LeafEntry",
    "BranchEntry",
    "Node",
    "capacities_for_page",
    "bulk_load_points",
    "StreamingBulkLoader",
]
