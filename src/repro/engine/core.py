"""The JoinEngine: one entry point for every CIJ variant and baseline.

``engine.run(algorithm, tree_p, tree_q, config)`` unifies what used to be
four standalone functions with duplicated counter/timing plumbing.  The
engine owns the run lifecycle:

1. resolve the algorithm and the effective :class:`EngineConfig`,
2. validate that both trees share one disk manager and resolve the domain,
3. snapshot the I/O counters and time the MAT phase (``prepare``),
4. hand the join phase to the configured executor (serial or sharded),
5. finalise the :class:`JoinStats` breakdown and return a
   :class:`CIJResult` that also carries the Voronoi and filter work
   counters.

The classic entry points (:func:`repro.join.nm_cij.nm_cij` and friends)
are thin wrappers over :func:`default_engine`, so every experiment driver,
example and test runs through this one code path.
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
    """Registry of join algorithms plus the shared execution plumbing."""

    def __init__(self, algorithms: Optional[List[JoinAlgorithm]] = None):
        stock = algorithms if algorithms is not None else default_algorithms()
        self._algorithms: Dict[str, JoinAlgorithm] = {a.name: a for a in stock}
        #: The currently open dynamic session (see :meth:`open_dynamic`).
        self._session = None
        #: The executor instance of the most recent :meth:`run` — a
        #: diagnostics hook: the sharded/distributed executors record
        #: their pull-scheduling trace on ``last_assignments``, which the
        #: skew tests read here.  Overwritten by every run, so only
        #: meaningful immediately after a run on a single-threaded engine.
        self.last_executor = None

    def algorithm_names(self) -> List[str]:
        """The registered algorithm identifiers, sorted."""
        return sorted(self._algorithms)

    def register(self, algorithm: JoinAlgorithm) -> None:
        """Add (or replace) an algorithm under its ``name``."""
        if not algorithm.name:
            raise ValueError("algorithm must define a non-empty name")
        self._algorithms[algorithm.name] = algorithm

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
            A registered identifier (``"nm"``, ``"pm"``, ``"fm"``,
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
    # dynamic workloads
    # ------------------------------------------------------------------
    def open_dynamic(
        self,
        tree_p: RTree,
        tree_q: RTree,
        config: Optional[EngineConfig] = None,
        owns_disk: bool = False,
        **overrides,
    ):
        """Open a :class:`~repro.dynamic.DynamicJoinSession` on two trees.

        The session materialises both Voronoi diagrams, derives the current
        pair set, and then absorbs insert/delete batches incrementally
        (:meth:`apply_updates`).  ``config``/``overrides`` follow the same
        semantics as :meth:`run`; the session requires the serial executor.

        The engine keeps the session open (and its trees and diagrams
        alive) until the next :meth:`open_dynamic` or an explicit
        :meth:`close_dynamic` — on the shared :func:`default_engine` only
        one session is current at a time (latest wins, and the replaced
        session is closed), so a caller juggling several sessions should
        call ``session.apply_updates`` on the objects directly.

        ``owns_disk=True`` transfers ownership of the trees' DiskManager
        to the session: closing the session then also closes the backend
        handles — what a long-running server wants when it builds the
        workload solely for the session.
        """
        from repro.dynamic.maintenance import DynamicJoinSession

        effective = resolve_config(config, overrides)
        session = DynamicJoinSession(
            tree_p,
            tree_q,
            domain=effective.domain,
            config=effective,
            owns_disk=owns_disk,
        )
        previous, self._session = self._session, session
        if previous is not None and previous is not session:
            previous.close()
        return session

    def apply_updates(self, batch):
        """Apply an update batch to the engine's open dynamic session.

        Returns the :class:`~repro.dynamic.PairDelta` of the batch.  A
        session must have been opened with :meth:`open_dynamic` (and not
        yet replaced or closed); see there for the single-session caveat.
        """
        if self._session is None:
            raise ValueError(
                "no dynamic session is open; call "
                "engine.open_dynamic(tree_p, tree_q) before apply_updates"
            )
        return self._session.apply_updates(batch)

    def close_dynamic(self) -> None:
        """Close and forget the open dynamic session.

        The session's maintained state is released immediately (and, if it
        owns its disk, the backend handles with it) rather than waiting
        for GC.  A no-op when no session is open.
        """
        session, self._session = self._session, None
        if session is not None:
            session.close()

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
