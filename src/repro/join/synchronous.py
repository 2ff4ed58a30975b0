"""Synchronous-traversal spatial intersection join (Brinkhoff et al. [9]).

FM-CIJ joins the two materialised Voronoi R-trees with this algorithm: both
trees are descended concurrently, following only pairs of entries whose MBRs
intersect.  At the leaf level an exact refinement predicate (convex polygon
intersection for Voronoi cells) decides whether a pair is reported.

The implementation also handles trees of different heights (the shorter
subtree is held fixed while the taller one is descended), which occurs when
the two Voronoi R-trees have different page counts.

The traversal is exposed in *partitioned* form, which every FM-CIJ run
uses, serial or sharded: the join decomposes into one independent
depth-first traversal per top-level entry of ``tree_a``
(:func:`partitioned_join_seeds`), each seeded with that entry's MBR-pruned
fan-in of top-level ``tree_b`` entries and replayed by
:func:`join_from_seeds`.  The partitions are ordered so that concatenating
their outputs reproduces the pair sequence — and the page-access sequence —
of the classic single-stack traversal (:func:`join_from_seeds` seeded with
the root pair) byte for byte, which is what lets a parallel FM-CIJ merge
shard results into the exact serial answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.index.entries import LeafEntry
from repro.index.rtree import RTree

RefinePredicate = Callable[[LeafEntry, LeafEntry], bool]


@dataclass(frozen=True)
class JoinPartition:
    """One independent slice of the synchronous join.

    ``seeds`` is the initial traversal stack (bottom to top): pairs of page
    ids whose subtrees are joined depth-first.  Partitions produced by
    :func:`partitioned_join_seeds` correspond to top-level entries of the
    first tree, in the order the single-stack traversal would have explored
    them.
    """

    seeds: Tuple[Tuple[int, int], ...]


def join_from_seeds(
    tree_a: RTree,
    tree_b: RTree,
    seeds: Tuple[Tuple[int, int], ...],
    refine: Optional[RefinePredicate] = None,
) -> Iterator[Tuple[LeafEntry, LeafEntry]]:
    """Depth-first synchronous join started from an explicit seed stack."""
    stack: List[Tuple[int, int]] = list(seeds)
    while stack:
        page_a, page_b = stack.pop()
        node_a = tree_a.read_node(page_a)
        node_b = tree_b.read_node(page_b)
        if node_a.is_leaf and node_b.is_leaf:
            for entry_a in node_a.entries:
                for entry_b in node_b.entries:
                    if not entry_a.mbr.intersects(entry_b.mbr):
                        continue
                    if refine is None or refine(entry_a, entry_b):
                        yield entry_a, entry_b
        elif node_a.is_leaf:
            node_mbr = node_a.mbr()
            for entry_b in node_b.entries:
                if node_mbr.intersects(entry_b.mbr):
                    stack.append((page_a, entry_b.child_page))
        elif node_b.is_leaf:
            node_mbr = node_b.mbr()
            for entry_a in node_a.entries:
                if entry_a.mbr.intersects(node_mbr):
                    stack.append((entry_a.child_page, page_b))
        else:
            for entry_a in node_a.entries:
                for entry_b in node_b.entries:
                    if entry_a.mbr.intersects(entry_b.mbr):
                        stack.append((entry_a.child_page, entry_b.child_page))


def partitioned_join_seeds(tree_a: RTree, tree_b: RTree) -> List[JoinPartition]:
    """Split the synchronous join by the top-level entries of ``tree_a``.

    Reads each root once (charged like the traversal's own first step) and
    returns independent partitions whose concatenated depth-first outputs
    equal the single-stack traversal's sequence exactly:

    * the single-stack traversal pushes the root fan-out in entry order and
      pops it LIFO, fully exploring each seed's subtree before the next —
      so partitions are emitted in *reversed* top-entry order, and each
      partition's seed stack keeps the original push order;
    * a top-level ``tree_a`` entry intersecting nothing contributes no seed
      pair (and no partition), exactly as the classic traversal never
      pushes it.

    When the root of ``tree_a`` is a leaf the traversal has no top level
    to split on and a single partition seeded with the root pairing is
    returned — decided from the tree's ``height`` attribute, without
    pre-reading either root, so the access sequence again matches the
    classic traversal (whose first pop performs those root reads).  A leaf
    root of ``tree_b`` under a taller ``tree_a`` still splits normally:
    both roots are read here and each intersecting top-level ``tree_a``
    entry becomes a partition seeded against ``tree_b``'s root page.
    """
    if tree_a.is_empty() or tree_b.is_empty():
        return []
    root_pair = (tree_a.root_page, tree_b.root_page)
    if tree_a.height <= 1:
        # The root of tree_a is a leaf: no top level to split on.  The
        # height attribute avoids a root read the classic traversal would
        # not have charged here (its first pop reads the roots instead).
        return [JoinPartition(seeds=(root_pair,))]
    node_a = tree_a.read_node(tree_a.root_page)
    node_b = tree_b.read_node(tree_b.root_page)
    partitions: List[JoinPartition] = []
    if node_b.is_leaf:
        mbr_b = node_b.mbr()
        for entry_a in reversed(node_a.entries):
            if entry_a.mbr.intersects(mbr_b):
                partitions.append(
                    JoinPartition(seeds=((entry_a.child_page, tree_b.root_page),))
                )
        return partitions
    for entry_a in reversed(node_a.entries):
        seeds = tuple(
            (entry_a.child_page, entry_b.child_page)
            for entry_b in node_b.entries
            if entry_a.mbr.intersects(entry_b.mbr)
        )
        if seeds:
            partitions.append(JoinPartition(seeds=seeds))
    return partitions
