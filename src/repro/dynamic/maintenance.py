"""Incremental CIJ maintenance under point insertions and deletions.

The paper's algorithms assume static pointsets; a production system serving
live traffic sees a stream of updates.  Rebuilding both Voronoi diagrams
and re-running the join for every batch costs ``Θ(|P| + |Q|)`` exact cell
computations; the :class:`DynamicJoinSession` keeps the join answer current
at a cost proportional to the *influence* of the batch instead:

1. **Invalidation** — a maintained cell ``V(t)`` can change only when a
   changed site ``s`` of the same side interacts with it.  For an insert,
   Lemma 1 gives the exact test: ``s`` clips ``V(t)`` iff ``s`` beats some
   vertex ``γ`` of the current cell (``dist(s, γ) < dist(γ, t)``).  For a
   delete, ``V(t)`` can only grow, and only if the bisector with ``s``
   contributed an edge — whose endpoints are equidistant, so the same
   vertex test with a tie tolerance is conservative-complete.  Both tests
   are guarded by the Lemma-1 influence radius (twice the largest
   vertex-to-site distance): any ``s`` farther than that from ``t`` cannot
   beat a vertex, by the triangle inequality.
2. **Recomputation** — the invalidated cells (plus the cells of inserted
   points) are recomputed exactly, in one BatchVoronoi pass against the
   already-updated source tree.
3. **Delta join** — only pairs incident to a dirty cell are re-evaluated.
   Deleted sites retract their recorded pairs outright.  For each dirty
   site the candidate partners are found with the paper's
   ConditionalFilter against the opposite source tree (complete: every
   point whose exact cell intersects the target polygon is admitted), and
   the recorded partner set is diffed against the fresh one.

A pair's membership depends only on its two cells, and every cell that can
change is invalidated, so the maintained pair set after ``apply_updates``
equals a from-scratch join over the updated pointsets — the differential
harness in ``tests/dynamic/`` replays exactly that equivalence, and the
update-phase work is accounted in :class:`~repro.dynamic.updates.UpdateStats`
(``cells_invalidated`` vs the ``|P| + |Q|`` a rebuild would pay).

Tree maintenance and cell recomputation run with the disk's I/O accounting
suspended: the paper's counters measure join executions, and keeping them
untouched lets a session interleave with measured `engine.run` rebuilds
(which is what the differential tests do).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dynamic.updates import PairDelta, Update, UpdateBatch, UpdateStats
from repro.engine.config import EngineConfig
from repro.geometry.point import Point, dist
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import TIE_SLACK
from repro.index.rtree import RTree
from repro.join.conditional_filter import FilterStats, batch_conditional_filter
from repro.voronoi.batch import compute_cells_for_leaf, compute_voronoi_cells
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats

#: Tie tolerance of the delete-side invalidation test.  A bisector that
#: contributes an edge makes the edge's endpoints exactly equidistant from
#: the two sites; the slack only ever *adds* cells to the dirty set, which
#: recomputation then proves unchanged, so correctness never depends on it.
_TIE_TOLERANCE = TIE_SLACK


class DynamicJoinSession:
    """A maintained CIJ answer that absorbs insert/delete batches.

    Build one through :meth:`repro.engine.JoinEngine.open_dynamic` (or
    directly); the session materialises both Voronoi diagrams once, derives
    the initial pair set from them, and then keeps both current under
    :meth:`apply_updates` without full recomputation.

    Attributes
    ----------
    pairs:
        The maintained join answer (a set of ``(p_oid, q_oid)`` tuples).
    stats:
        Accumulated :class:`UpdateStats` over every applied batch.
    cell_stats, filter_stats:
        Voronoi/filter work counters of the maintenance work, kept separate
        from any measured engine run.
    """

    def __init__(
        self,
        tree_p: RTree,
        tree_q: RTree,
        domain: Optional[Rect] = None,
        config: Optional[EngineConfig] = None,
    ):
        if tree_p.disk is not tree_q.disk:
            raise ValueError("both input trees must share one DiskManager")
        self.tree_p = tree_p
        self.tree_q = tree_q
        self._closed = False
        self.config = config if config is not None else EngineConfig()
        if self.config.executor != "serial":
            raise ValueError(
                "dynamic maintenance requires the serial executor; shard "
                "workers cannot mutate the shared source trees"
            )
        if domain is None:
            domain = tree_p.domain().union(tree_q.domain())
        self.domain = domain
        self.stats = UpdateStats()
        self.cell_stats = CellComputationStats()
        self.filter_stats = FilterStats()
        self.cells_p: Dict[int, VoronoiCell] = {}
        self.cells_q: Dict[int, VoronoiCell] = {}
        #: Cached Lemma-1 influence radius per maintained cell, so the
        #: invalidation scan costs one distance test per (cell, changed
        #: site) instead of rebuilding every cell's vertex distances.
        self._reaches: Dict[str, Dict[int, float]] = {"P": {}, "Q": {}}
        self._partners_p: Dict[int, Set[int]] = {}
        self._partners_q: Dict[int, Set[int]] = {}
        self.pairs: Set[Tuple[int, int]] = set()
        self._bootstrap()

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Materialise both diagrams and derive the initial pair set.

        Partner discovery goes through :meth:`_partners_for_group`, one
        group per ``R_P`` leaf — NM-CIJ's amortisation: each leaf batch
        costs a single pruned ``R_Q`` descent instead of one per cell.
        """
        with self.tree_p.disk.suspend_io_accounting():
            leaf_groups: List[List[VoronoiCell]] = []
            if not self.tree_p.is_empty():
                for leaf in self.tree_p.iter_leaf_nodes():
                    computed = compute_cells_for_leaf(
                        self.tree_p, leaf.entries, self.domain, stats=self.cell_stats
                    )
                    self.cells_p.update(computed)
                    leaf_groups.append(list(computed.values()))
            self.cells_q = self._compute_all_cells(self.tree_q)
            for group in leaf_groups:
                for p_oid, partners in self._partners_for_group(group, "P").items():
                    self._partners_p[p_oid] = partners
                    for q_oid in partners:
                        self._partners_q.setdefault(q_oid, set()).add(p_oid)
                        self.pairs.add((p_oid, q_oid))
            for q_oid in self.cells_q:
                self._partners_q.setdefault(q_oid, set())
            for side, cells in (("P", self.cells_p), ("Q", self.cells_q)):
                self._reaches[side] = {
                    oid: self._cell_reach(cell) for oid, cell in cells.items()
                }

    def _compute_all_cells(self, tree: RTree) -> Dict[int, VoronoiCell]:
        """Exact cells of every stored point, one BatchVoronoi pass per leaf."""
        cells: Dict[int, VoronoiCell] = {}
        if tree.is_empty():
            return cells
        for leaf in tree.iter_leaf_nodes():
            cells.update(
                compute_cells_for_leaf(
                    tree, leaf.entries, self.domain, stats=self.cell_stats
                )
            )
        return cells

    @staticmethod
    def _cell_reach(cell: VoronoiCell) -> float:
        """Twice the largest vertex-to-site distance (the Lemma-1 radius)."""
        xs, ys = cell.polygon.ring()
        if not xs:
            return 0.0
        # Transient Points: reading .vertices would cache them on every cell.
        return 2.0 * max(map(cell.site.distance_to, map(Point, xs, ys)))

    # ------------------------------------------------------------------
    # update application
    # ------------------------------------------------------------------
    def apply_updates(self, batch: UpdateBatch) -> PairDelta:
        """Apply one batch and return the exact change to the join answer."""
        if self._closed:
            raise ValueError("the dynamic session is closed")
        if isinstance(batch, Update):
            batch = UpdateBatch([batch])
        batch_stats = UpdateStats(batches_applied=1, updates_applied=len(batch))
        self._validate(batch)
        with self.tree_p.disk.suspend_io_accounting():
            dirty_p = self._apply_side(batch.by_side("P"), "P", batch_stats)
            dirty_q = self._apply_side(batch.by_side("Q"), "Q", batch_stats)
            added, removed = self._delta_join(batch, dirty_p, dirty_q, batch_stats)
        self.stats.accumulate(batch_stats)
        return PairDelta(
            added=tuple(sorted(added)),
            removed=tuple(sorted(removed)),
            stats=batch_stats,
        )

    def _validate(self, batch: UpdateBatch) -> None:
        """Reject a batch that cannot apply cleanly, before touching state.

        Deletes are validated (and their coordinates released) first,
        mirroring the application order of :meth:`_apply_side`, so a batch
        may legally re-insert a new point at a location it deletes.  Insert
        locations are then checked against the remaining sites *and* the
        batch's own earlier inserts: coincident sites have no well-defined
        Voronoi cells, whether the twin is stored or pending.
        """
        coords = {
            side: {(c.site.x, c.site.y) for c in self._side(side)[0].values()}
            for side in ("P", "Q")
        }
        for update in batch:
            if update.op != "delete":
                continue
            cells, _ = self._side(update.side)
            stored = cells.get(update.oid)
            if stored is None:
                raise ValueError(
                    f"cannot delete {update.side} oid {update.oid}: "
                    "no such point is stored"
                )
            if update.point is not None and update.point != stored.site:
                raise ValueError(
                    f"cannot delete {update.side} oid {update.oid}: the given "
                    f"point {update.point.as_tuple()} does not match the "
                    f"stored {stored.site.as_tuple()}"
                )
            coords[update.side].discard((stored.site.x, stored.site.y))
        for update in batch:
            if update.op != "insert":
                continue
            cells, _ = self._side(update.side)
            if update.oid in cells:
                raise ValueError(
                    f"cannot insert {update.side} oid {update.oid}: "
                    "the id is already stored"
                )
            location = (update.point.x, update.point.y)
            if location in coords[update.side]:
                raise ValueError(
                    f"cannot insert {update.side} oid {update.oid}: a point "
                    f"already exists at {update.point.as_tuple()}"
                )
            coords[update.side].add(location)

    def _side(self, side: str) -> Tuple[Dict[int, VoronoiCell], RTree]:
        return (self.cells_p, self.tree_p) if side == "P" else (self.cells_q, self.tree_q)

    def _apply_side(
        self, updates: List[Update], side: str, batch_stats: UpdateStats
    ) -> Set[int]:
        """Apply one side's updates to its tree and diagram.

        Returns the oids whose cells were recomputed (inserted points
        included); deleted oids are dropped from the maintained diagram.
        """
        if not updates:
            return set()
        cells, tree = self._side(side)
        reaches = self._reaches[side]
        inserted = [u for u in updates if u.op == "insert"]
        deleted = [u for u in updates if u.op == "delete"]
        deleted_sites = [cells[u.oid].site for u in deleted]
        deleted_oids = {u.oid for u in deleted}

        # (1) Influence-bounded invalidation against the *current* diagram.
        dirty = self._invalidate(
            side, [u.point for u in inserted], deleted_sites, deleted_oids
        )

        # (2) Structural maintenance of the source tree.
        for update in deleted:
            tree.delete_point(update.oid, cells.pop(update.oid).site)
            reaches.pop(update.oid, None)
        for update in inserted:
            tree.insert_point(update.oid, update.point)

        # (3) Exact recomputation of every dirty + inserted cell.
        to_compute: List[Tuple[int, Point]] = [
            (oid, cells[oid].site) for oid in sorted(dirty)
        ]
        to_compute.extend((u.oid, u.point) for u in inserted)
        if to_compute:
            computed = compute_voronoi_cells(
                tree, to_compute, self.domain, stats=self.cell_stats
            )
            cells.update(computed)
            for oid, cell in computed.items():
                reaches[oid] = self._cell_reach(cell)
        batch_stats.cells_invalidated += len(to_compute)
        return dirty | {u.oid for u in inserted}

    def _invalidate(
        self,
        side: str,
        inserted_points: Sequence[Point],
        deleted_sites: Sequence[Point],
        deleted_oids: Set[int],
    ) -> Set[int]:
        """Maintained cells whose region can change under the batch.

        The cached influence radius rejects most (cell, changed site)
        combinations with a single distance test; the exact vertex tests
        run only for cells with some changed site inside their radius.
        """
        cells, _ = self._side(side)
        reaches = self._reaches[side]
        changed_sites = list(inserted_points) + list(deleted_sites)
        dirty: Set[int] = set()
        for oid, cell in cells.items():
            if oid in deleted_oids:
                continue
            site = cell.site
            reach = reaches[oid]
            if reach <= 0.0:
                dirty.add(oid)  # a degenerate cell is always recomputed
                continue
            if all(
                site.distance_to(s) > reach + _TIE_TOLERANCE for s in changed_sites
            ):
                continue
            vertex_dists = [(v, dist(v, site)) for v in cell.polygon.vertices]
            affected = any(
                site.distance_to(s) <= reach
                and any(dist(s, v) < d for v, d in vertex_dists)
                for s in inserted_points
            ) or any(
                site.distance_to(s) <= reach + _TIE_TOLERANCE
                and any(dist(s, v) <= d + _TIE_TOLERANCE for v, d in vertex_dists)
                for s in deleted_sites
            )
            if affected:
                dirty.add(oid)
        return dirty

    # ------------------------------------------------------------------
    # delta join
    # ------------------------------------------------------------------
    def _delta_join(
        self,
        batch: UpdateBatch,
        dirty_p: Set[int],
        dirty_q: Set[int],
        batch_stats: UpdateStats,
    ) -> Tuple[Set[Tuple[int, int]], Set[Tuple[int, int]]]:
        """Re-evaluate only pairs incident to dirty cells."""
        added: Set[Tuple[int, int]] = set()
        removed: Set[Tuple[int, int]] = set()

        # Deleted sites retract every recorded pair outright.
        for update in batch:
            if update.op != "delete":
                continue
            if update.side == "P":
                for q_oid in self._partners_p.pop(update.oid, set()):
                    self._partners_q[q_oid].discard(update.oid)
                    self._drop_pair((update.oid, q_oid), added, removed)
            else:
                for p_oid in self._partners_q.pop(update.oid, set()):
                    self._partners_p[p_oid].discard(update.oid)
                    self._drop_pair((p_oid, update.oid), added, removed)

        # Dirty cells re-derive their partner sets against the (now fully
        # current) opposite diagram — one grouped filter descent per side —
        # and both orientations agree on shared pairs because they test the
        # same two cells.
        fresh_p = self._partners_for_group(
            [self.cells_p[oid] for oid in sorted(dirty_p)], "P"
        )
        for p_oid in sorted(dirty_p):
            fresh = fresh_p[p_oid]
            stale = self._partners_p.get(p_oid, set())
            for q_oid in fresh - stale:
                self._partners_q.setdefault(q_oid, set()).add(p_oid)
                self._add_pair((p_oid, q_oid), added, removed)
            for q_oid in stale - fresh:
                self._partners_q[q_oid].discard(p_oid)
                self._drop_pair((p_oid, q_oid), added, removed)
            self._partners_p[p_oid] = fresh
        fresh_q = self._partners_for_group(
            [self.cells_q[oid] for oid in sorted(dirty_q)], "Q"
        )
        for q_oid in sorted(dirty_q):
            fresh = fresh_q[q_oid]
            stale = self._partners_q.get(q_oid, set())
            for p_oid in fresh - stale:
                self._partners_p.setdefault(p_oid, set()).add(q_oid)
                self._add_pair((p_oid, q_oid), added, removed)
            for p_oid in stale - fresh:
                self._partners_p[p_oid].discard(q_oid)
                self._drop_pair((p_oid, q_oid), added, removed)
            self._partners_q[q_oid] = fresh

        batch_stats.pairs_emitted += len(added)
        batch_stats.pairs_retracted += len(removed)
        return added, removed

    def _partners_for_group(
        self, group: Sequence[VoronoiCell], side: str
    ) -> Dict[int, Set[int]]:
        """Opposite-side partners of each cell in ``group``, per oid.

        The whole group shares one ConditionalFilter descent of the
        opposite tree (the filter is complete per target: every opposite
        point whose exact cell intersects some group polygon is admitted),
        and each cell then tests only the admitted candidates.
        """
        result: Dict[int, Set[int]] = {cell.oid: set() for cell in group}
        opposite_cells, opposite_tree = self._side("Q" if side == "P" else "P")
        if not group or not opposite_cells:
            return result
        candidates = batch_conditional_filter(
            [cell.polygon for cell in group],
            opposite_tree,
            self.domain,
            use_phi_pruning=self.config.use_phi_pruning,
            stats=self.filter_stats,
        )
        candidate_cells = [
            (oid, opposite_cells[oid], opposite_cells[oid].mbr())
            for oid, _ in candidates
        ]
        for cell in group:
            mbr = cell.mbr()
            result[cell.oid] = {
                oid
                for oid, other, other_mbr in candidate_cells
                if mbr.intersects(other_mbr) and cell.intersects(other)
            }
        return result

    def _add_pair(self, pair, added, removed) -> None:
        if pair not in self.pairs:
            self.pairs.add(pair)
            removed.discard(pair)
            added.add(pair)

    def _drop_pair(self, pair, added, removed) -> None:
        if pair in self.pairs:
            self.pairs.discard(pair)
            added.discard(pair)
            removed.add(pair)

    # ------------------------------------------------------------------
    # windowed queries
    # ------------------------------------------------------------------
    def window_pairs(self, window: Rect) -> Set[Tuple[int, int]]:
        """The join restricted to a window: pairs whose common influence
        region meets ``window`` with positive area.

        Candidates come from one ConditionalFilter sub-rectangle descent of
        ``R_P`` with the window as the target polygon — complete, because a
        qualifying pair's common region is contained in ``V(p)``, so
        ``V(p)`` intersects the window and ``p`` is admitted.  Each
        candidate then tests only its maintained partners.  Zero-area
        contact with the window is excluded (open-set SAT), matching the
        library-wide boundary-tie convention.
        """
        if self._closed:
            raise ValueError("the dynamic session is closed")
        result: Set[Tuple[int, int]] = set()
        if not self.pairs or self.tree_p.is_empty():
            return result
        window_poly = ConvexPolygon.from_rect(window)
        if window_poly.is_empty():
            return result
        with self.tree_p.disk.suspend_io_accounting():
            candidates = batch_conditional_filter(
                [window_poly],
                self.tree_p,
                self.domain,
                use_phi_pruning=self.config.use_phi_pruning,
                stats=self.filter_stats,
            )
        for p_oid, _ in candidates:
            partners = self._partners_p.get(p_oid)
            if not partners:
                continue
            cell_p = self.cells_p[p_oid]
            for q_oid in partners:
                region = cell_p.common_region(self.cells_q[q_oid])
                if not region.is_empty() and region.intersects_interior(window_poly):
                    result.add((p_oid, q_oid))
        return result

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the maintained state.

        The trees' DiskManager stays open: it belongs to whoever built the
        workload, who closes it after the session (as the join service
        does).  Closing is idempotent; a closed session rejects further
        :meth:`apply_updates`/:meth:`window_pairs`.
        """
        if self._closed:
            return
        self._closed = True
        self.cells_p.clear()
        self.cells_q.clear()
        self._partners_p.clear()
        self._partners_q.clear()
        self._reaches = {"P": {}, "Q": {}}
        self.pairs.clear()

    def __enter__(self) -> "DynamicJoinSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pair_set(self) -> Set[Tuple[int, int]]:
        """A copy of the maintained join answer."""
        return set(self.pairs)

    def point_count(self, side: str) -> int:
        """Stored points on one side (``"P"`` or ``"Q"``)."""
        cells, _ = self._side(side)
        return len(cells)

    def check_consistency(self) -> None:
        """Assert internal bookkeeping invariants (used by the test-suite)."""
        assert set(self._partners_p) == set(self.cells_p)
        assert set(self._partners_q) == set(self.cells_q)
        assert set(self._reaches["P"]) == set(self.cells_p)
        assert set(self._reaches["Q"]) == set(self.cells_q)
        from_p = {
            (p, q) for p, partners in self._partners_p.items() for q in partners
        }
        from_q = {
            (p, q) for q, partners in self._partners_q.items() for p in partners
        }
        assert from_p == from_q == self.pairs
        assert len(self.tree_p) == len(self.cells_p)
        assert len(self.tree_q) == len(self.cells_q)
        self.tree_p.check_invariants()
        self.tree_q.check_invariants()
