"""The JoinEngine: one entry point for every CIJ variant and baseline.

``engine.run(algorithm, tree_p, tree_q, config)`` unifies what used to be
four standalone functions with duplicated counter/timing plumbing.  The
engine owns the run lifecycle:

1. resolve the algorithm and the effective :class:`EngineConfig`,
2. validate that both trees share one disk manager, that a parallel
   executor gets an algorithm with work units, and resolve the domain,
3. snapshot the I/O counters and time the MAT phase (``prepare``),
4. hand the join phase to the configured executor (serial or sharded),
5. finalise the :class:`JoinStats` breakdown and return a
   :class:`CIJResult` that also carries the Voronoi and filter work
   counters.

The classic entry points (:func:`repro.join.nm_cij.nm_cij` and friends)
are thin wrappers over :func:`default_engine`, so every experiment driver,
example and test runs through this one code path.  The engine's algorithm
set is fixed (NM, PM, FM and the brute-force baseline).  Dynamic
maintenance is not an engine run: callers build a
:class:`~repro.dynamic.DynamicJoinSession` on the trees directly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Union

from repro.index.rtree import RTree
from repro.join.conditional_filter import FilterStats
from repro.join.result import CIJResult, JoinStats
from repro.voronoi.single import CellComputationStats

from repro.engine.algorithms import JoinAlgorithm, JoinContext, default_algorithms
from repro.engine.config import EngineConfig, resolve_config
from repro.engine.executors import executor_for


class JoinEngine:
    """The stock join algorithms plus the shared execution plumbing."""

    def __init__(self):
        self._algorithms: Dict[str, JoinAlgorithm] = {
            a.name: a for a in default_algorithms()
        }
        #: The executor instance of the most recent :meth:`run` — a
        #: diagnostics hook: the sharded/distributed executors record
        #: their pull-scheduling trace on ``last_assignments``, which the
        #: skew tests read here.  Overwritten by every run, so only
        #: meaningful immediately after a run on a single-threaded engine.
        self.last_executor = None

    def algorithm_names(self) -> List[str]:
        """The algorithm identifiers, sorted."""
        return sorted(self._algorithms)

    def run(
        self,
        algorithm: Union[str, JoinAlgorithm],
        tree_p: RTree,
        tree_q: RTree,
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> CIJResult:
        """Execute one join end to end and return pairs plus statistics.

        Parameters
        ----------
        algorithm:
            An algorithm identifier (``"nm"``, ``"pm"``, ``"fm"``,
            ``"brute"``) or a :class:`JoinAlgorithm` instance.
        tree_p, tree_q:
            Source R-trees sharing one :class:`~repro.storage.disk.DiskManager`.
        config:
            Base configuration; defaults to ``EngineConfig()``.
        **overrides:
            Individual :class:`EngineConfig` fields to replace for this run
            (``executor="sharded"``, ``workers=4``, ``domain=...``, ...).
            ``None`` values are ignored so callers can pass optional
            arguments straight through.
        """
        algo = self._resolve(algorithm)
        effective = resolve_config(config, overrides)
        if tree_p.disk is not tree_q.disk:
            raise ValueError("both input trees must share one DiskManager")
        if effective.executor != "serial" and not algo.supports_sharding:
            raise ValueError(
                f"{algo.display_name} does not support {effective.executor} "
                "execution; its join phase has no shard units"
            )
        executor = executor_for(effective)
        self.last_executor = executor
        domain = effective.domain
        if domain is None:
            domain = tree_p.domain().union(tree_q.domain())

        disk = tree_p.disk
        stats = JoinStats(algorithm=algo.display_name)
        ctx = JoinContext(
            tree_p=tree_p,
            tree_q=tree_q,
            domain=domain,
            config=effective,
            stats=stats,
            cell_stats=CellComputationStats(),
            filter_stats=FilterStats(),
            start_counters=disk.counters.snapshot(),
        )

        # --- MAT phase -------------------------------------------------
        mat_start = time.perf_counter()
        algo.prepare(ctx)
        if algo.materialises:
            stats.mat_cpu_seconds = time.perf_counter() - mat_start
            stats.mat_page_accesses = disk.counters.diff(
                ctx.start_counters
            ).page_accesses
            stats.record_progress(stats.mat_page_accesses, 0)

        # --- JOIN phase ------------------------------------------------
        join_start = time.perf_counter()
        pairs = executor.execute(algo, ctx)
        stats.join_cpu_seconds = time.perf_counter() - join_start
        total_accesses = disk.counters.diff(ctx.start_counters).page_accesses
        stats.join_page_accesses = total_accesses - stats.mat_page_accesses
        stats.record_progress(stats.total_page_accesses, len(pairs))
        return CIJResult(
            pairs=pairs,
            stats=stats,
            cell_stats=ctx.cell_stats,
            filter_stats=ctx.filter_stats,
            storage=disk.storage_stats(),
        )

    # ------------------------------------------------------------------
    def _resolve(self, algorithm: Union[str, JoinAlgorithm]) -> JoinAlgorithm:
        if isinstance(algorithm, JoinAlgorithm):
            return algorithm
        try:
            return self._algorithms[algorithm.lower()]
        except KeyError:
            known = ", ".join(self.algorithm_names())
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {known}"
            ) from None


_DEFAULT_ENGINE: Optional[JoinEngine] = None


def default_engine() -> JoinEngine:
    """The process-wide engine the classic entry points delegate to."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = JoinEngine()
    return _DEFAULT_ENGINE
