"""Best-first nearest-neighbour search over R-trees.

The incremental algorithm of Hjaltason & Samet keeps a min-heap of tree
entries keyed by ``mindist`` to the query point and deheaps them in
ascending order; points therefore come out in exact distance order.  The
same visit order is reused by BF-VOR (Algorithm 1) to "discover early points
near p_i that refine V_c(p_i)".
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.geometry.point import Point
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree


def incremental_nearest(tree: RTree, query: Point) -> Iterator[Tuple[float, LeafEntry]]:
    """Yield ``(distance, leaf_entry)`` in ascending distance from ``query``.

    The generator reads tree nodes lazily, so consuming only the first few
    results costs only the node accesses needed for them.
    """
    if tree.is_empty():
        return
    counter = itertools.count()
    heap: List[Tuple[float, int, int, object]] = []
    root = tree.read_node(tree.root_page)
    _push_node_entries(heap, counter, root, query)
    while heap:
        dist, _, kind, item = heapq.heappop(heap)
        if kind == _KIND_POINT:
            yield dist, item
        else:
            node = tree.read_node(item)
            _push_node_entries(heap, counter, node, query)


def nearest_neighbor(tree: RTree, query: Point) -> Optional[Tuple[float, LeafEntry]]:
    """The single nearest entry to ``query``, or ``None`` for an empty tree."""
    for result in incremental_nearest(tree, query):
        return result
    return None


_KIND_POINT = 0
_KIND_NODE = 1


def _push_node_entries(heap, counter, node, query: Point) -> None:
    if node.is_leaf:
        for entry in node.entries:
            dist = entry.mbr.mindist_point(query)
            heapq.heappush(heap, (dist, next(counter), _KIND_POINT, entry))
    else:
        for entry in node.entries:
            dist = entry.mbr.mindist_point(query)
            heapq.heappush(heap, (dist, next(counter), _KIND_NODE, entry.child_page))
