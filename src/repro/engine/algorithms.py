"""The algorithm adapters the engine dispatches to.

Each CIJ variant (and the brute-force baseline) is wrapped in a small
:class:`JoinAlgorithm` object exposing up to four phases:

* :meth:`JoinAlgorithm.prepare` — the materialisation (MAT) phase; a no-op
  for non-blocking algorithms.  Runs once, always in the parent process.
* :meth:`JoinAlgorithm.shard_units` — the ordered work units the sharded
  executor distributes: Hilbert-ordered ``R_Q`` leaves for the leaf-shaped
  algorithms (NM, PM), top-level ``R'_P`` join partitions for FM.
* :meth:`JoinAlgorithm.process_units` — the join pipeline over a
  subsequence of units (a shard, or all of them).
* :meth:`JoinAlgorithm.run_join` — the whole join phase under serial
  semantics; the default streams every Hilbert-ordered leaf through
  :meth:`process_units` lazily (the paper's interleaving of leaf I/O and
  output); FM overrides it to walk its partitions in order, and the
  brute-force oracle overrides it entirely.

Algorithms with ``supports_handoff`` additionally carry state across shard
boundaries through :attr:`JoinContext.carry`: NM-CIJ publishes its final
REUSE buffer there so the next shard can reuse the ``P``-cells the serial
run would have carried over instead of recomputing them.

The heavy lifting stays in :mod:`repro.join`; these classes only adapt it
to the engine's context/executor plumbing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats
from repro.storage.counters import IOCounters
from repro.storage.prefetch import PrefetchScheduler
from repro.voronoi.single import CellComputationStats

from repro.engine.config import EngineConfig
from repro.engine.units import WorkUnit

#: Candidate-page budget of one unit's prefetch plan (the nearest target
#: leaves an NM/PM batch is likely to open first).
PREFETCH_PAGES_PER_UNIT = 8


def nearest_leaf_pages(tree: RTree, rect: Optional[Rect], budget: int) -> List[int]:
    """Leaf page ids of ``tree`` in mindist order from ``rect``, uncounted.

    The descent peeks only *internal* nodes (a handful per plan) and never
    touches the LRU buffer or the I/O counters, so planning what to
    prefetch cannot perturb the paper's cost model.  Leaf page ids are
    returned without being read — fetching them is the prefetcher's job.
    """
    if rect is None or tree.is_empty() or budget <= 0:
        return []
    order = 0
    heap: List[Tuple[float, int, int, bool]] = [
        (0.0, order, tree.root_page, tree.height <= 1)
    ]
    pages: List[int] = []
    while heap and len(pages) < budget:
        _, _, page_id, is_leaf = heapq.heappop(heap)
        if is_leaf:
            pages.append(page_id)
            continue
        node = tree.peek_node(page_id)
        children_are_leaves = node.level == 1
        for entry in node.entries:
            order += 1
            heapq.heappush(
                heap,
                (
                    rect.mindist_rect(entry.mbr),
                    order,
                    entry.child_page,
                    children_are_leaves,
                ),
            )
    return pages


def prefetcher_for(ctx: "JoinContext", mode: str) -> Optional[PrefetchScheduler]:
    """The disk's scheduler, when the run's prefetch mode is ``mode``."""
    if ctx.config.prefetch != mode:
        return None
    return ctx.disk.prefetcher


@dataclass
class JoinContext:
    """Everything one join execution carries between engine, algorithm and
    executor: the inputs, the resolved configuration and the shared
    statistics records the phases accumulate into."""

    tree_p: RTree
    tree_q: RTree
    domain: Rect
    config: EngineConfig
    stats: JoinStats
    cell_stats: CellComputationStats
    filter_stats: FilterStats
    start_counters: IOCounters
    #: Artefacts built by ``prepare`` (e.g. materialised Voronoi R-trees).
    prepared: Dict[str, object] = field(default_factory=dict)
    #: Shard-boundary carry state (``supports_handoff`` algorithms only):
    #: the executor seeds it with the previous shard's outbound state and
    #: the algorithm replaces it with its own when the shard completes.
    carry: Optional[object] = None
    #: Per-node read-only P-cell cache (``EngineConfig.cell_cache``): maps
    #: ``oid -> VoronoiCell`` so units executing on the same node skip
    #: recomputing cells an earlier unit already derived.  ``None`` when
    #: the cache is disabled (the default — cached runs trade the paper's
    #: exact recomputation counters for fewer cell derivations, so the
    #: equivalence pins all run without it).  Pairs must stay identical;
    #: the saving shows up as ``JoinStats.cells_cached_p``.
    cell_cache: Optional[Dict[int, object]] = None

    @property
    def disk(self):
        """The shared disk manager both source trees live on."""
        return self.tree_p.disk


class JoinAlgorithm:
    """Base class for engine algorithms; see the module docstring."""

    #: Registry key (``engine.run("nm", ...)``).
    name: str = ""
    #: Label recorded in :attr:`JoinStats.algorithm`.
    display_name: str = ""
    #: Whether ``prepare`` performs a materialisation (MAT) phase.
    materialises: bool = False
    #: Whether ``process_units`` may be run on disjoint unit shards.
    supports_sharding: bool = False
    #: Whether the algorithm carries shard-boundary state (``ctx.carry``).
    supports_handoff: bool = False

    def prepare(self, ctx: JoinContext) -> None:
        """The MAT phase; the default is the non-blocking no-op."""

    def shard_units(self, ctx: JoinContext) -> List[object]:
        """The ordered work units a sharded execution distributes.

        The default is the Hilbert-ordered ``R_Q`` leaf sequence.
        Enumeration cost is charged to the caller (the parent process),
        once, before any worker starts.
        """
        return list(ctx.tree_q.iter_leaf_nodes(order="hilbert"))

    def work_units(self, ctx: JoinContext) -> List[WorkUnit]:
        """The serializable :class:`WorkUnit` descriptors of the join.

        Same enumeration (and the same charged traversal) as
        :meth:`shard_units`, but each unit is named by its page-range
        payload instead of a materialised object, so the coordinator can
        hand it to any worker — a forked pool member or a node
        subprocess — over the wire.  Order is the serial traversal order.
        """
        return [
            WorkUnit(
                algorithm=self.name,
                index=index,
                payload=(page_id,),
                needs_carry=self.supports_handoff,
            )
            for index, (page_id, _node) in enumerate(
                ctx.tree_q.iter_leaf_nodes_with_pages(order="hilbert")
            )
        ]

    def resolve_unit(self, ctx: JoinContext, unit: WorkUnit) -> object:
        """Materialise a :class:`WorkUnit` back into a runnable object.

        Uncounted (:meth:`~repro.index.rtree.RTree.peek_node`): the
        dispatching process already charged the enumeration read in
        :meth:`work_units`, exactly as the old fork path inherited the
        already-read node objects for free.
        """
        return ctx.tree_q.peek_node(unit.payload[0])

    def _materialised(self, ctx: JoinContext, unit: object) -> object:
        """``unit`` as a runnable object, whichever plane it came from."""
        if isinstance(unit, WorkUnit):
            return self.resolve_unit(ctx, unit)
        return unit

    def run_join(self, ctx: JoinContext) -> List[Tuple[int, int]]:
        """The complete join phase under serial semantics.

        The default streams the lazy Hilbert-ordered leaf iterator through
        :meth:`process_units`, preserving the paper's interleaving of leaf
        I/O and result output.  With ``prefetch="next_batch"`` the stream
        additionally issues each upcoming leaf's candidate pages ahead of
        time — through an *uncounted* twin of the leaf iterator, so the
        charged access sequence (and with it every logical counter) stays
        exactly the serial one.
        """
        leaves: Iterable[object] = ctx.tree_q.iter_leaf_nodes(order="hilbert")
        prefetcher = prefetcher_for(ctx, "next_batch")
        if prefetcher is not None:
            leaves = self._prefetched_leaf_stream(ctx, leaves, prefetcher)
        return self.process_units(ctx, leaves)

    def process_units(
        self, ctx: JoinContext, units: Iterable[object]
    ) -> List[Tuple[int, int]]:
        """Join a subsequence of shard units (a shard, or all of them)."""
        raise NotImplementedError(
            f"{self.display_name or type(self).__name__} has no unit pipeline"
        )

    # ------------------------------------------------------------------
    # prefetch planning (advisory; never touches buffer or counters)
    # ------------------------------------------------------------------
    def unit_plan(self, ctx: JoinContext, rect: Optional[Rect]) -> List[int]:
        """Candidate pages a unit with this MBR will likely read first."""
        return []

    def unit_pages(self, ctx: JoinContext, unit: object) -> List[int]:
        """Candidate pages for one materialised shard unit."""
        return []

    def prefetch_pages(self, ctx: JoinContext, units: Sequence[object]) -> List[int]:
        """The opening page set of a shard over ``units`` (``next_shard``).

        Plans the first ``prefetch_depth`` units — staging a whole shard
        would balloon the staging area without helping, since the overlap
        window only covers the shard's opening reads anyway.
        """
        pages: List[int] = []
        seen = set()
        for unit in list(units)[: ctx.config.prefetch_depth]:
            for page_id in self.unit_pages(ctx, unit):
                if page_id not in seen:
                    seen.add(page_id)
                    pages.append(page_id)
        return pages

    def _prefetched_unit_sequence(
        self,
        ctx: JoinContext,
        units: Sequence[object],
        prefetcher: PrefetchScheduler,
    ) -> Iterator[object]:
        """Yield materialised units, planning ``prefetch_depth`` ahead."""
        depth = ctx.config.prefetch_depth
        issued = 0
        for index, unit in enumerate(units):
            target = min(len(units), index + 1 + depth)
            if issued < index + 1:
                issued = index + 1
            while issued < target:
                pages = self.unit_pages(ctx, units[issued])
                if pages:
                    prefetcher.request(pages)
                issued += 1
            yield unit

    def _maybe_prefetch_units(
        self, ctx: JoinContext, units: Iterable[object]
    ) -> Iterable[object]:
        """Wrap a materialised unit list in the ``next_batch`` lookahead.

        Lazy streams pass through untouched: the serial path wires its own
        uncounted-twin lookahead in :meth:`run_join`, and pulling units
        early through a *charged* iterator would reorder the LRU hit/miss
        sequence.
        """
        prefetcher = prefetcher_for(ctx, "next_batch")
        if prefetcher is None or not isinstance(units, (list, tuple)):
            return units
        return self._prefetched_unit_sequence(ctx, units, prefetcher)

    def _prefetched_leaf_stream(
        self,
        ctx: JoinContext,
        leaves: Iterable[object],
        prefetcher: PrefetchScheduler,
    ) -> Iterator[object]:
        """The serial ``next_batch`` pipeline over the lazy leaf iterator.

        An uncounted plan twin (:meth:`~repro.index.rtree.RTree.plan_leaf_pages`)
        walks ahead of the charged iterator: while leaf *i* computes its
        Voronoi batch, the pages of leaves *i+1 … i+depth* — each leaf's
        own page plus its MBR-pruned candidate set — are already being
        fetched on the backend's worker thread.

        The candidate set is speculative (the filter may prune some of
        it), which is harmless mid-traversal: the next batch's plan
        re-requests whatever is still useful, so unread speculation is
        consumed eventually.  The *final* planned batch has no successor
        to reclaim it, so its plan issues only the leaf's own page — the
        one page the charged iterator is certain to read — keeping
        ``prefetch_wasted`` at zero instead of stranding pruned
        candidates in the staging area until drain.
        """
        depth = ctx.config.prefetch_depth
        plans = ctx.tree_q.plan_leaf_pages(order="hilbert")
        upcoming = next(plans, None)
        issued = 0
        consumed = 0
        for leaf in leaves:
            consumed += 1
            while upcoming is not None and issued < consumed:
                # skip plans up to the current (already charged) leaf
                upcoming = next(plans, None)
                issued += 1
            while upcoming is not None and issued < consumed + depth:
                page_id, mbr = upcoming
                upcoming = next(plans, None)
                issued += 1
                if upcoming is None:
                    prefetcher.request([page_id])
                else:
                    prefetcher.request([page_id] + self.unit_plan(ctx, mbr))
            yield leaf


class NMJoin(JoinAlgorithm):
    """Algorithm 6 — non-blocking, no materialisation."""

    name = "nm"
    display_name = "NM-CIJ"
    supports_sharding = True
    supports_handoff = True

    def unit_plan(self, ctx, rect):
        # The filter phase opens R_P leaves nearest the batch first.
        return nearest_leaf_pages(ctx.tree_p, rect, PREFETCH_PAGES_PER_UNIT)

    def unit_pages(self, ctx, unit):
        unit = self._materialised(ctx, unit)
        return self.unit_plan(ctx, unit.mbr() if unit.entries else None)

    def process_units(self, ctx, units):
        from repro.join.nm_cij import process_q_leaves

        units = self._maybe_prefetch_units(ctx, units)
        pairs, final_buffer = process_q_leaves(
            ctx.tree_p,
            ctx.tree_q,
            units,
            ctx.domain,
            ctx.stats,
            ctx.cell_stats,
            ctx.filter_stats,
            ctx.start_counters,
            reuse_cells=ctx.config.reuse_cells,
            use_phi_pruning=ctx.config.use_phi_pruning,
            initial_reuse=ctx.carry,
            cell_cache=ctx.cell_cache,
        )
        ctx.carry = final_buffer if ctx.config.reuse_cells else None
        return pairs


class PMJoin(JoinAlgorithm):
    """Algorithm 4 — partial materialisation (``R'_P`` only)."""

    name = "pm"
    display_name = "PM-CIJ"
    materialises = True
    supports_sharding = True

    def prepare(self, ctx):
        from repro.join.materialize import materialize_voronoi_rtree

        voronoi_p, count_p = materialize_voronoi_rtree(
            ctx.tree_p,
            ctx.domain,
            tag=f"{ctx.tree_p.tag}_vor",
            stats=ctx.cell_stats,
        )
        ctx.stats.cells_computed_p = count_p
        ctx.prepared["voronoi_p"] = voronoi_p

    def unit_plan(self, ctx, rect):
        # The probe phase range-queries R'_P around the batch's cells.
        voronoi_p = ctx.prepared.get("voronoi_p")
        if voronoi_p is None:
            return []
        return nearest_leaf_pages(voronoi_p, rect, PREFETCH_PAGES_PER_UNIT)

    def unit_pages(self, ctx, unit):
        unit = self._materialised(ctx, unit)
        return self.unit_plan(ctx, unit.mbr() if unit.entries else None)

    def process_units(self, ctx, units):
        from repro.join.pm_cij import probe_q_leaves

        units = self._maybe_prefetch_units(ctx, units)
        return probe_q_leaves(
            ctx.prepared["voronoi_p"],
            ctx.tree_q,
            units,
            ctx.domain,
            ctx.stats,
            ctx.cell_stats,
            ctx.start_counters,
        )


class FMJoin(JoinAlgorithm):
    """Algorithm 3 — full materialisation plus synchronous-traversal join.

    The join phase is the partitioned synchronous traversal: one
    independent depth-first walk per top-level ``R'_P`` entry, each seeded
    with the MBR-pruned fan-in of top-level ``R'_Q`` entries.  Walking the
    partitions in order *is* the classic coupled traversal (byte-identical
    pairs and page accesses), which is what makes FM shardable.
    """

    name = "fm"
    display_name = "FM-CIJ"
    materialises = True
    supports_sharding = True

    def prepare(self, ctx):
        from repro.join.materialize import materialize_voronoi_rtree

        voronoi_p, count_p = materialize_voronoi_rtree(
            ctx.tree_p,
            ctx.domain,
            tag=f"{ctx.tree_p.tag}_vor",
            stats=ctx.cell_stats,
        )
        voronoi_q, count_q = materialize_voronoi_rtree(
            ctx.tree_q,
            ctx.domain,
            tag=f"{ctx.tree_q.tag}_vor",
            stats=ctx.cell_stats,
        )
        ctx.stats.cells_computed_p = count_p
        ctx.stats.cells_computed_q = count_q
        ctx.prepared["voronoi_p"] = voronoi_p
        ctx.prepared["voronoi_q"] = voronoi_q

    def shard_units(self, ctx):
        from repro.join.fm_cij import fm_join_partitions

        return fm_join_partitions(
            ctx.prepared["voronoi_p"], ctx.prepared["voronoi_q"]
        )

    def work_units(self, ctx):
        # One unit per top-level R'_P partition; the payload is the seed
        # page-id pairs the partition's synchronous traversal starts from.
        return [
            WorkUnit(algorithm=self.name, index=index, payload=partition.seeds)
            for index, partition in enumerate(self.shard_units(ctx))
        ]

    def resolve_unit(self, ctx, unit):
        from repro.join.synchronous import JoinPartition

        return JoinPartition(seeds=unit.payload)

    def unit_pages(self, ctx, unit):
        unit = self._materialised(ctx, unit)
        # A partition's seed stack names exactly the pages its depth-first
        # traversal opens first.
        pages: List[int] = []
        seen = set()
        for page_a, page_b in unit.seeds:
            for page_id in (page_a, page_b):
                if page_id not in seen:
                    seen.add(page_id)
                    pages.append(page_id)
        return pages

    def run_join(self, ctx):
        return self.process_units(ctx, self.shard_units(ctx))

    def process_units(self, ctx, units):
        from repro.join.fm_cij import join_partitions

        units = self._maybe_prefetch_units(ctx, units)
        return join_partitions(
            ctx.prepared["voronoi_p"],
            ctx.prepared["voronoi_q"],
            units,
            ctx.stats,
            ctx.start_counters,
            progress_interval=ctx.config.progress_interval,
        )


class BruteForceJoin(JoinAlgorithm):
    """The quadratic, index-free oracle behind the same entry point.

    Points are pulled from the source trees without charging I/O (the
    oracle's cost model is not the paper's), and pairs are produced in the
    deterministic nested-loop order of the brute-force diagram.
    """

    name = "brute"
    display_name = "BRUTE"

    def run_join(self, ctx):
        from repro.join.baseline import brute_force_cij

        entries_p = sorted(ctx.tree_p.all_leaf_entries(), key=lambda e: e.oid)
        entries_q = sorted(ctx.tree_q.all_leaf_entries(), key=lambda e: e.oid)
        with ctx.disk.suspend_io_accounting():
            result = brute_force_cij(
                [e.payload for e in entries_p],
                [e.payload for e in entries_q],
                ctx.domain,
                oids_p=[e.oid for e in entries_p],
                oids_q=[e.oid for e in entries_q],
            )
        return result.pairs


def default_algorithms() -> List[JoinAlgorithm]:
    """The stock algorithm set every :class:`JoinEngine` starts with."""
    return [NMJoin(), PMJoin(), FMJoin(), BruteForceJoin()]
