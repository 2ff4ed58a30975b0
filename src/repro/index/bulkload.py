"""Bottom-up bulk loading of R-trees.

Two flavours are provided:

* :func:`bulk_load_points` — Hilbert-sort-and-pack loading for point
  datasets, used when an experiment wants a well-clustered source tree
  without paying Guttman insertion writes.
* :class:`StreamingBulkLoader` — the
  "optimized construction of R'_P and R'_Q" of Section III-C: records
  (Voronoi cells) arrive in Hilbert order of their generators and are packed
  sequentially into fixed-size leaf pages; upper levels are then packed from
  the leaf MBRs.  Node splits never happen, disk space is fully utilised and
  the construction I/O cost is exactly the cost of writing the new tree's
  pages.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.hilbert import hilbert_value
from repro.index.entries import BranchEntry, LeafEntry, Node
from repro.index.rtree import RTree
from repro.storage.disk import DiskManager


def bulk_load_points(
    disk: DiskManager,
    tag: str,
    points: Sequence[Point],
    oids: Optional[Sequence[int]] = None,
    domain: Optional[Rect] = None,
    page_size: Optional[int] = None,
) -> RTree:
    """Build a packed R-tree over ``points`` using Hilbert ordering.

    Parameters
    ----------
    disk, tag, page_size:
        Storage parameters, as for :class:`~repro.index.rtree.RTree`.
    points:
        The dataset; must be non-empty.
    oids:
        Object identifiers; defaults to positional indices.
    domain:
        Domain rectangle for the Hilbert mapping; defaults to the tight MBR
        of the dataset.
    """
    if not points:
        raise ValueError("cannot bulk load an empty pointset")
    if oids is None:
        oids = list(range(len(points)))
    if len(oids) != len(points):
        raise ValueError("oids and points must have the same length")
    if domain is None:
        domain = Rect.from_points(points)
    tree = RTree(disk, tag, page_size=page_size)
    order = sorted(range(len(points)), key=lambda i: hilbert_value(points[i], domain))
    loader = StreamingBulkLoader(tree)
    for i in order:
        loader.append(LeafEntry.for_point(oids[i], points[i]))
    loader.finish()
    return tree


class StreamingBulkLoader:
    """Pack leaf entries into pages as they arrive, then build upper levels.

    The loader mirrors the construction used by FM-CIJ and PM-CIJ: computed
    Voronoi cells are appended in (roughly) Hilbert order, each full leaf
    page is written out immediately, and when :meth:`finish` is called the
    internal levels are packed bottom-up from the leaf MBRs.  Every page
    written is charged to the disk manager, so the materialisation cost of
    the resulting tree is exactly its page count.
    """

    def __init__(self, tree: RTree):
        self.tree = tree
        self._pending: List[LeafEntry] = []
        self._pending_bytes = 0
        self._leaf_branches: List[BranchEntry] = []
        self._total = 0
        self._finished = False

    def append(self, entry: LeafEntry) -> None:
        """Add one leaf entry, flushing the current page when it fills up."""
        if self._finished:
            raise RuntimeError("cannot append to a finished bulk loader")
        overflows = (
            len(self._pending) >= self.tree.leaf_capacity
            or self._pending_bytes + entry.size_bytes > self.tree.page_size
        )
        if self._pending and overflows:
            self._flush_leaf()
        self._pending.append(entry)
        self._pending_bytes += entry.size_bytes
        self._total += 1

    def finish(self) -> RTree:
        """Flush the last leaf page and pack the internal levels."""
        if self._finished:
            return self.tree
        if self._pending:
            self._flush_leaf()
        self._finished = True
        if not self._leaf_branches:
            return self.tree
        level = 1
        branches = self._leaf_branches
        while len(branches) > 1:
            branches = self._pack_level(branches, level)
            level += 1
        # A single branch remains: its child is the root... unless the tree
        # has exactly one leaf page, in which case that leaf is the root.
        self.tree.root_page = branches[0].child_page
        self.tree.height = level
        self.tree.size = self._total
        return self.tree

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush_leaf(self) -> None:
        node = Node(0, self._pending)
        page_id = self.tree.disk.allocate(self.tree.tag, node)
        self._leaf_branches.append(BranchEntry(node.mbr(), page_id))
        self._pending = []
        self._pending_bytes = 0

    def _pack_level(self, branches: List[BranchEntry], level: int) -> List[BranchEntry]:
        capacity = self.tree.branch_capacity
        parents: List[BranchEntry] = []
        for start in range(0, len(branches), capacity):
            group = branches[start : start + capacity]
            node = Node(level, list(group))
            page_id = self.tree.disk.allocate(self.tree.tag, node)
            parents.append(BranchEntry(node.mbr(), page_id))
        return parents
