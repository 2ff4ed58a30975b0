"""The algorithm adapters the engine dispatches to.

Each CIJ variant (and the brute-force baseline) is wrapped in a small
:class:`JoinAlgorithm` object exposing up to four phases:

* :meth:`JoinAlgorithm.prepare` — the materialisation (MAT) phase; a no-op
  for non-blocking algorithms.  Runs once, always in the parent process.
* :meth:`JoinAlgorithm.work_units` — the ordered
  :class:`~repro.engine.units.WorkUnit` descriptors the sharded and
  distributed executors hand out: Hilbert-ordered ``R_Q`` leaves for the
  leaf-shaped algorithms (NM, PM), top-level ``R'_P`` join partitions for
  FM; :meth:`JoinAlgorithm.resolve_unit` turns one back into a runnable
  object.
* :meth:`JoinAlgorithm.process_units` — the join pipeline over a
  subsequence of units (one unit, or all of them).
* :meth:`JoinAlgorithm.run_join` — the whole join phase under serial
  semantics; the default streams every Hilbert-ordered leaf through
  :meth:`process_units` lazily (the paper's interleaving of leaf I/O and
  output); FM overrides it to walk its partitions in order, and the
  brute-force oracle overrides it entirely.

Algorithms with ``supports_handoff`` additionally carry state across unit
boundaries through :attr:`JoinContext.carry`: NM-CIJ publishes its final
REUSE buffer there so the next unit can reuse the ``P``-cells the serial
run would have carried over instead of recomputing them, whenever the
executor chains its units.

The heavy lifting stays in :mod:`repro.join`; these classes only adapt it
to the engine's context/executor plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats
from repro.storage.counters import IOCounters
from repro.voronoi.single import CellComputationStats

from repro.engine.config import EngineConfig
from repro.engine.units import WorkUnit

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
    #: the executor seeds it with the previous shard's outbound state (a
    #: node seeds a callable that fetches it when first needed) and the
    #: algorithm replaces it with its own when the shard completes.
    carry: Optional[object] = None

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

    def work_units(self, ctx: JoinContext) -> List[WorkUnit]:
        """The serializable :class:`WorkUnit` descriptors of the join.

        The default is the Hilbert-ordered ``R_Q`` leaf sequence, each
        leaf named by its page id instead of a materialised object, so the
        coordinator can hand it to any worker — a forked pool member or a
        node subprocess — over the wire.  Order is the serial traversal
        order.  The traversal is charged to the caller (the dispatching
        process), once, before any worker starts.
        """
        return [
            WorkUnit(algorithm=self.name, index=index, payload=(page_id,))
            for index, (page_id, _node) in enumerate(
                ctx.tree_q.iter_leaf_nodes_with_pages()
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

    def run_join(self, ctx: JoinContext) -> List[Tuple[int, int]]:
        """The complete join phase under serial semantics.

        The default streams the lazy Hilbert-ordered leaf iterator through
        :meth:`process_units`, preserving the paper's interleaving of leaf
        I/O and result output.
        """
        return self.process_units(ctx, ctx.tree_q.iter_leaf_nodes())

    def process_units(
        self, ctx: JoinContext, units: Iterable[object]
    ) -> List[Tuple[int, int]]:
        """Join a subsequence of units (one unit, or all of them)."""
        raise NotImplementedError(
            f"{self.display_name or type(self).__name__} has no unit pipeline"
        )

class NMJoin(JoinAlgorithm):
    """Algorithm 6 — non-blocking, no materialisation."""

    name = "nm"
    display_name = "NM-CIJ"
    supports_sharding = True
    supports_handoff = True

    def process_units(self, ctx, units):
        from repro.join.nm_cij import process_q_leaves

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

    def process_units(self, ctx, units):
        from repro.join.pm_cij import probe_q_leaves

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

    def _partitions(self, ctx):
        from repro.join.fm_cij import fm_join_partitions

        return fm_join_partitions(
            ctx.prepared["voronoi_p"], ctx.prepared["voronoi_q"]
        )

    def work_units(self, ctx):
        # One unit per top-level R'_P partition; the payload is the seed
        # page-id pairs the partition's synchronous traversal starts from.
        return [
            WorkUnit(algorithm=self.name, index=index, payload=partition.seeds)
            for index, partition in enumerate(self._partitions(ctx))
        ]

    def resolve_unit(self, ctx, unit):
        from repro.join.synchronous import JoinPartition

        return JoinPartition(seeds=unit.payload)

    def run_join(self, ctx):
        return self.process_units(ctx, self._partitions(ctx))

    def process_units(self, ctx, units):
        from repro.join.fm_cij import join_partitions

        return join_partitions(
            ctx.prepared["voronoi_p"],
            ctx.prepared["voronoi_q"],
            units,
            ctx.stats,
            ctx.start_counters,
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
