"""A disk-backed Guttman R-tree with quadratic node splitting.

The tree stores its nodes as pages of a shared
:class:`~repro.storage.disk.DiskManager`; every node read or write goes
through the simulated buffer and is charged as a page access, which is the
metric of all experiments in the paper.

The class supports the operations the CIJ algorithms need:

* incremental insertion (to build the source point trees ``R_P`` / ``R_Q``),
* incremental deletion with Guttman's condense-tree (underflowing nodes are
  dissolved and their entries reinserted; ancestor MBRs are tightened all
  the way to the root), which is what the dynamic-workload maintenance
  layer (:mod:`repro.dynamic`) uses to keep the source trees current,
* rectangle range search (PM-CIJ probes ``R'_P`` with batch range queries),
* Hilbert-ordered leaf iteration (Algorithms 3, 4 and 6 visit the leaves
  of a source tree in Hilbert order of their centroids),
* raw node access for the best-first traversals in :mod:`repro.query` and
  :mod:`repro.voronoi`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.hilbert import hilbert_value
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.entries import (
    BRANCH_ENTRY_BYTES,
    POINT_ENTRY_BYTES,
    BranchEntry,
    LeafEntry,
    Node,
)
from repro.storage.disk import DiskManager


def capacities_for_page(
    page_size: int,
    leaf_entry_bytes: int = POINT_ENTRY_BYTES,
    branch_entry_bytes: int = BRANCH_ENTRY_BYTES,
) -> Tuple[int, int]:
    """Leaf and branch fanouts implied by a page size and entry sizes."""
    leaf_capacity = max(2, page_size // leaf_entry_bytes)
    branch_capacity = max(2, page_size // branch_entry_bytes)
    return leaf_capacity, branch_capacity


class RTree:
    """A two-dimensional R-tree stored through a simulated disk manager.

    Parameters
    ----------
    disk:
        Shared page store; node accesses are charged against its counters.
    tag:
        Label attached to this tree's pages so experiments can attribute
        I/O (e.g. ``"RP"``, ``"RQ"``, ``"RP_voronoi"``).
    page_size:
        Page size in bytes; defaults to the disk manager's page size.
    leaf_capacity, branch_capacity:
        Maximum entries per node; derived from the page size when omitted.
    """

    def __init__(
        self,
        disk: DiskManager,
        tag: str,
        page_size: Optional[int] = None,
        leaf_capacity: Optional[int] = None,
        branch_capacity: Optional[int] = None,
    ):
        self.disk = disk
        self.tag = tag
        self.page_size = page_size if page_size is not None else disk.page_size
        default_leaf, default_branch = capacities_for_page(self.page_size)
        self.leaf_capacity = leaf_capacity if leaf_capacity is not None else default_leaf
        self.branch_capacity = (
            branch_capacity if branch_capacity is not None else default_branch
        )
        if self.leaf_capacity < 2 or self.branch_capacity < 2:
            raise ValueError("node capacities must be at least 2")
        self.root_page: Optional[int] = None
        self.height = 0
        self.size = 0

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    def read_node(self, page_id: int) -> Node:
        """Read a node, charging a page access on a buffer miss."""
        return self.disk.read(page_id)

    def peek_node(self, page_id: int) -> Node:
        """Read a node without charging I/O (oracle/maintenance access)."""
        return self.disk.peek(page_id)

    def domain(self) -> Rect:
        """MBR of the whole tree (root MBR), without charging I/O."""
        if self.root_page is None:
            raise ValueError("the tree is empty")
        return self.peek_node(self.root_page).mbr()

    def is_empty(self) -> bool:
        return self.root_page is None

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert_point(self, oid: int, point: Point) -> None:
        """Insert a data point."""
        self.insert_entry(LeafEntry.for_point(oid, point))

    def insert_entry(self, entry: LeafEntry) -> None:
        """Insert a prepared leaf entry (points or arbitrary records)."""
        if self.root_page is None:
            root = Node(0, [entry])
            self.root_page = self.disk.allocate(self.tag, root)
            self.height = 1
            self.size = 1
            return
        split = self._insert_recursive(self.root_page, entry, self.height - 1)
        if split is not None:
            self._grow_root(split)
        self.size += 1

    # ------------------------------------------------------------------
    # deletion (condense-tree)
    # ------------------------------------------------------------------
    def delete_point(self, oid: int, point: Point) -> bool:
        """Delete the data point ``(oid, point)``; returns ``False`` if absent."""
        return self.delete_entry(oid, Rect.from_point(point))

    def delete_entry(self, oid: int, mbr: Rect) -> bool:
        """Delete the leaf entry matching ``oid`` and ``mbr`` exactly.

        Guttman's condense-tree: the entry is removed from its leaf, every
        ancestor MBR is tightened to exactly cover its child again, nodes
        that underflow below the minimum fill are dissolved (their pages
        freed) and their leaf entries reinserted, and a root left with a
        single child is replaced by that child.  Returns whether a matching
        entry was found.
        """
        if self.root_page is None:
            return False
        orphans: List[LeafEntry] = []
        if not self._delete_recursive(self.root_page, oid, mbr, orphans):
            return False
        self.size -= 1
        self._shrink_root()
        for entry in orphans:
            # Orphans were already counted in ``size``; reinsertion goes
            # through the one true insert path and compensates the bump.
            self.insert_entry(entry)
            self.size -= 1
        return True

    def _delete_recursive(
        self, page_id: int, oid: int, mbr: Rect, orphans: List[LeafEntry]
    ) -> bool:
        """Remove the entry from the subtree at ``page_id``; condense upward."""
        node = self.peek_node(page_id)
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.oid == oid and entry.mbr == mbr:
                    del node.entries[i]
                    self.disk.write(page_id, node)
                    return True
            return False
        for branch in node.entries:
            if not branch.mbr.contains_rect(mbr):
                continue
            if not self._delete_recursive(branch.child_page, oid, mbr, orphans):
                continue
            child = self.peek_node(branch.child_page)
            if len(child.entries) < self._min_fill(child):
                node.entries.remove(branch)
                self._dissolve_subtree(branch.child_page, orphans)
            else:
                branch.mbr = child.mbr()
            self.disk.write(page_id, node)
            return True
        return False

    def _dissolve_subtree(self, page_id: int, orphans: List[LeafEntry]) -> None:
        """Free every page of a subtree, collecting its leaf entries."""
        node = self.peek_node(page_id)
        if node.is_leaf:
            orphans.extend(node.entries)
        else:
            for entry in node.entries:
                self._dissolve_subtree(entry.child_page, orphans)
        self.disk.free(page_id)

    def _shrink_root(self) -> None:
        """Collapse degenerate roots left behind by the condense pass."""
        while self.root_page is not None:
            root = self.peek_node(self.root_page)
            if not root.entries:
                self.disk.free(self.root_page)
                self.root_page = None
                self.height = 0
                return
            if root.is_leaf or len(root.entries) > 1:
                return
            child_page = root.entries[0].child_page
            self.disk.free(self.root_page)
            self.root_page = child_page
            self.height -= 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_search(self, region: Rect) -> List[LeafEntry]:
        """All leaf entries whose MBR intersects ``region``."""
        results: List[LeafEntry] = []
        if self.root_page is None:
            return results
        stack = [self.root_page]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                results.extend(e for e in node.entries if region.intersects(e.mbr))
            else:
                stack.extend(
                    e.child_page for e in node.entries if region.intersects(e.mbr)
                )
        return results

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def iter_leaf_nodes(self) -> Iterator[Node]:
        """Yield leaf nodes in Hilbert order, charging I/O per node visited.

        Children are visited in Hilbert order of their MBR centres, the
        order the CIJ algorithms use so that consecutive leaves are
        spatially close and the LRU buffer is effective.
        """
        for _, node in self.iter_leaf_nodes_with_pages():
            yield node

    def iter_leaf_nodes_with_pages(self) -> Iterator[Tuple[int, Node]]:
        """Yield ``(page_id, leaf node)`` pairs, charging I/O per node.

        The same charged traversal as :meth:`iter_leaf_nodes`; the page id
        lets a caller name a leaf as a serializable work-unit payload (the
        engine's :class:`~repro.engine.units.WorkUnit` plane) and re-open
        it later through :meth:`peek_node` without charging it twice.
        """
        if self.root_page is None:
            return
        domain = self.domain()
        stack: List[int] = [self.root_page]
        while stack:
            page_id = stack.pop()
            node = self.read_node(page_id)
            if node.is_leaf:
                yield page_id, node
                continue
            children = sorted(
                node.entries,
                key=lambda e: hilbert_value(e.mbr.center(), domain),
                reverse=True,
            )
            stack.extend(e.child_page for e in children)

    def all_leaf_entries(self) -> List[LeafEntry]:
        """Every leaf entry, *without* charging I/O (used by oracles/tests)."""
        results: List[LeafEntry] = []
        if self.root_page is None:
            return results
        stack = [self.root_page]
        while stack:
            node = self.peek_node(stack.pop())
            if node.is_leaf:
                results.extend(node.entries)
            else:
                stack.extend(e.child_page for e in node.entries)
        return results

    def node_count(self) -> int:
        """Total number of nodes (pages) in the tree, without charging I/O."""
        if self.root_page is None:
            return 0
        count = 0
        stack = [self.root_page]
        while stack:
            node = self.peek_node(stack.pop())
            count += 1
            if not node.is_leaf:
                stack.extend(e.child_page for e in node.entries)
        return count

    def leaf_count(self) -> int:
        """Number of leaf nodes, without charging I/O."""
        if self.root_page is None:
            return 0
        count = 0
        stack = [self.root_page]
        while stack:
            node = self.peek_node(stack.pop())
            if node.is_leaf:
                count += 1
            else:
                stack.extend(e.child_page for e in node.entries)
        return count

    def check_invariants(self, enforce_min_fill: bool = False) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Always checked, after any insert/delete stream:

        * every branch entry's MBR is *exactly* the MBR of its child node
          (not merely a superset — deletion must tighten ancestors),
        * node levels decrease by one towards the leaves and all leaf
          entries sit at the same depth,
        * fanout stays within bounds: no node exceeds its capacity (or, for
          multi-entry leaves, the page size) and no non-root node is empty,
        * ``size`` equals the number of stored leaf entries.

        ``enforce_min_fill`` additionally asserts Guttman's lower fanout
        bound (the quadratic split's ``2/5`` minimum fill) for every
        non-root node.  That bound holds for trees grown by insertion and
        maintained by :meth:`delete_entry`'s condense pass, but not for
        bulk-loaded trees, whose trailing page per level may be underfull
        by construction.
        """
        if self.root_page is None:
            assert self.size == 0, "an empty tree must report size 0"
            assert self.height == 0, "an empty tree must report height 0"
            return
        expected_leaf_depth = self.height - 1
        leaf_entries = 0

        def _recurse(page_id: int, depth: int) -> None:
            nonlocal leaf_entries
            node = self.peek_node(page_id)
            is_root = page_id == self.root_page
            assert node.entries, "a stored node must not be empty"
            assert len(node.entries) <= self._capacity(node) and (
                not node.is_leaf
                or len(node.entries) == 1
                or node.byte_size() <= self.page_size
            ), "node fanout must stay within capacity"
            if enforce_min_fill and not is_root:
                assert len(node.entries) >= self._min_fill(node), (
                    "non-root node below the minimum fill"
                )
            assert node.level == expected_leaf_depth - depth, (
                "node level must match its depth"
            )
            if node.is_leaf:
                assert depth == expected_leaf_depth, "leaves must share a common depth"
                leaf_entries += len(node.entries)
                return
            for entry in node.entries:
                child = self.peek_node(entry.child_page)
                assert entry.mbr == child.mbr(), (
                    "branch entry MBR must exactly cover its child"
                )
                _recurse(entry.child_page, depth + 1)

        _recurse(self.root_page, 0)
        assert leaf_entries == self.size, "size must count the stored leaf entries"

    # ------------------------------------------------------------------
    # internals: insertion
    # ------------------------------------------------------------------
    def _capacity(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.branch_capacity

    def _min_fill(self, node: Node) -> int:
        """Guttman's lower fanout bound (shared by split and condense)."""
        return max(1, self._capacity(node) * 2 // 5)

    def _insert_recursive(
        self, page_id: int, entry: LeafEntry, level_from_leaf: int
    ) -> Optional[BranchEntry]:
        """Insert into the subtree rooted at ``page_id``.

        Returns a new sibling branch entry when the node was split, or
        ``None`` otherwise.  The caller is responsible for updating its own
        entry MBR for ``page_id``.
        """
        node = self.peek_node(page_id)
        if node.is_leaf:
            node.entries.append(entry)
        else:
            best = self._choose_subtree(node, entry.mbr)
            split = self._insert_recursive(best.child_page, entry, level_from_leaf - 1)
            best.mbr = self.peek_node(best.child_page).mbr()
            if split is not None:
                node.entries.append(split)
        if len(node.entries) > self._capacity(node) or (
            node.is_leaf and node.byte_size() > self.page_size
        ):
            sibling = self._split_node(node)
            sibling_page = self.disk.allocate(self.tag, sibling)
            self.disk.write(page_id, node)
            return BranchEntry(sibling.mbr(), sibling_page)
        self.disk.write(page_id, node)
        return None

    def _grow_root(self, sibling: BranchEntry) -> None:
        old_root = self.peek_node(self.root_page)
        left = BranchEntry(old_root.mbr(), self.root_page)
        new_root = Node(old_root.level + 1, [left, sibling])
        self.root_page = self.disk.allocate(self.tag, new_root)
        self.height += 1

    @staticmethod
    def _choose_subtree(node: Node, mbr: Rect) -> BranchEntry:
        """Guttman's criterion: least enlargement, ties by smallest area."""
        best = None
        best_key = None
        for entry in node.entries:
            key = (entry.mbr.enlargement(mbr), entry.mbr.area())
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def _split_node(self, node: Node) -> Node:
        """Quadratic split; ``node`` keeps one group, the other is returned."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a].mbr
        mbr_b = entries[seed_b].mbr
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        min_fill = self._min_fill(node)
        while remaining:
            if len(group_a) + len(remaining) <= min_fill:
                group_a.extend(remaining)
                mbr_a = Rect.union_all([mbr_a] + [e.mbr for e in remaining])
                remaining = []
                break
            if len(group_b) + len(remaining) <= min_fill:
                group_b.extend(remaining)
                mbr_b = Rect.union_all([mbr_b] + [e.mbr for e in remaining])
                remaining = []
                break
            index, prefer_a = self._pick_next(remaining, mbr_a, mbr_b)
            entry = remaining.pop(index)
            if prefer_a:
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.mbr)
        node.entries = group_a
        return Node(node.level, group_b)

    @staticmethod
    def _pick_seeds(entries: Sequence[Any]) -> Tuple[int, int]:
        """The pair of entries with the largest dead space when combined."""
        worst_pair = (0, 1)
        worst_waste = float("-inf")
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i].mbr.union(entries[j].mbr)
                waste = combined.area() - entries[i].mbr.area() - entries[j].mbr.area()
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    @staticmethod
    def _pick_next(remaining: Sequence[Any], mbr_a: Rect, mbr_b: Rect) -> Tuple[int, bool]:
        """The entry with the strongest group preference, and that preference."""
        best_index = 0
        best_diff = -1.0
        prefer_a = True
        for i, entry in enumerate(remaining):
            enlarge_a = mbr_a.enlargement(entry.mbr)
            enlarge_b = mbr_b.enlargement(entry.mbr)
            diff = abs(enlarge_a - enlarge_b)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                if enlarge_a != enlarge_b:
                    prefer_a = enlarge_a < enlarge_b
                else:
                    prefer_a = mbr_a.area() <= mbr_b.area()
        return best_index, prefer_a
