"""Engine configuration: one record that drives every join execution.

The :class:`EngineConfig` collects the knobs that used to be scattered over
the standalone algorithm functions (``reuse_cells``, ``use_phi_pruning``,
``progress_interval``) together with the execution strategy introduced by
the engine (``executor``, ``workers``, ``pool``).  It is a frozen dataclass
so a config can be shared between runs and safely inherited by forked
workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.geometry.rect import Rect
from repro.storage.backends import canonical_backend

#: Executor identifiers accepted by :attr:`EngineConfig.executor`.
EXECUTORS = ("serial", "sharded", "distributed")

#: Worker-pool strategies accepted by :attr:`EngineConfig.pool`.
POOLS = ("auto", "fork", "inline")

#: Shard-boundary REUSE handoff modes accepted by
#: :attr:`EngineConfig.reuse_handoff`.
HANDOFF_MODES = ("auto", "always", "never")

#: Candidate-discovery strategies of the dynamic delta join
#: (:attr:`EngineConfig.delta_candidates`).
DELTA_CANDIDATES = ("filter", "scan")

#: Prefetch pipeline modes accepted by :attr:`EngineConfig.prefetch`.
PREFETCH_MODES = ("off", "next_batch", "next_shard")


@dataclass(frozen=True)
class DistributedConfig:
    """The distributed tier's knobs, in one place.

    These used to sprawl over :class:`EngineConfig` as six flat fields
    (``nodes``, ``node_timeout``, ``node_retries``, ``node_min_ready``,
    ``fault_plan``, ``cell_cache``); they still exist there as deprecation
    shims — every legacy kwarg and CLI flag keeps working, and the two
    views are kept in sync by ``EngineConfig.__post_init__`` — but new code
    reads ``config.distributed.*``.

    Attributes
    ----------
    nodes, node_timeout, node_retries, min_ready, fault_plan, cell_cache:
        See the corresponding :class:`EngineConfig` attributes
        (``min_ready`` is the nested name of ``node_min_ready``).
    stage_hints:
        Whether the coordinator piggybacks its ``peek_pending()`` lookahead
        on unit assignments so nodes stage upcoming units' opening pages
        (one batched ``fetch_async`` overlapping the current unit's
        computation).  ``None`` (default) auto-enables exactly when the
        store is remote — that is where a round trip is worth hiding —
        and stays off for local file/sqlite nodes.  Logical counters are
        unaffected either way; staging shows up only in the node's
        transport stats (``pages_prefetched`` etc. in the run report).
    """

    nodes: int = 2
    node_timeout: float = 60.0
    node_retries: int = 2
    min_ready: Optional[int] = None
    fault_plan: Optional[str] = None
    cell_cache: bool = False
    stage_hints: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be at least 1")
        if self.node_timeout <= 0:
            raise ValueError("node_timeout must be positive")
        if self.node_retries < 0:
            raise ValueError("node_retries must be >= 0")
        if self.min_ready is not None and self.min_ready < 1:
            raise ValueError("node_min_ready must be at least 1")


#: EngineConfig's legacy flat distributed fields → their DistributedConfig
#: names, with the flat defaults (the shim-sync logic needs both).
_DISTRIBUTED_SHIMS = {
    "nodes": ("nodes", 2),
    "node_timeout": ("node_timeout", 60.0),
    "node_retries": ("node_retries", 2),
    "node_min_ready": ("min_ready", None),
    "fault_plan": ("fault_plan", None),
    "cell_cache": ("cell_cache", False),
}


@dataclass(frozen=True)
class EngineConfig:
    """Execution parameters for one :class:`repro.engine.JoinEngine` run.

    Attributes
    ----------
    executor:
        ``"serial"`` preserves the paper's single-threaded semantics;
        ``"sharded"`` schedules the algorithm's work units — Hilbert-
        ordered ``R_Q`` leaves for NM-CIJ/PM-CIJ, top-level ``R'_P`` join
        partitions for FM-CIJ — across local workers through the pull-based
        coordinator; ``"distributed"`` runs the same coordinator over
        ``nodes`` worker subprocesses that reopen the shared file/sqlite
        backend read-only and speak the NDJSON unit protocol
        (:mod:`repro.engine.node`).  Merged pairs and deterministic
        counters are byte-identical to serial for every executor.
    workers:
        Number of local worker processes for the sharded executor.
    distributed:
        The distributed tier's knobs as one nested
        :class:`DistributedConfig`.  ``None`` (default) derives it from
        the flat shim fields below, which keep working as deprecation
        shims; passing both a nested value and a conflicting flat kwarg is
        an error.  New code reads ``config.distributed.*``.
    nodes:
        Number of worker subprocesses for the distributed executor.  Each
        node is a separate interpreter (``python -m repro.engine.node``)
        with its own read-only handle on the shared backend, so the tier
        needs an on-disk store (``file`` or ``sqlite``; ``memory`` is
        rejected at execution time).
    node_timeout:
        Seconds of per-request *silence* (no reply, no heartbeat) after
        which the distributed executor declares a node hung, quarantines
        it and releases its leased unit back to the queue.  Heartbeats
        count as liveness, so a slow-but-alive unit computation does not
        trip the timeout.
    node_retries:
        How many times one unit may be re-leased to another node after
        its worker failed (crash, hang, protocol error).  ``0`` restores
        the pre-fault-tolerance behaviour: the first node failure aborts
        the run.  A unit that fails on ``node_retries + 1`` workers is
        treated as poisoned and aborts the run loudly.
    node_min_ready:
        Readiness quorum that opens the distributed drive phase.  ``None``
        (default) waits for every spawned node — the original all-nodes
        barrier, which keeps unit pulls balanced.  A smaller value starts
        the run as soon as that many nodes are up; slower nodes join the
        pull loop mid-run (elastic late join).
    fault_plan:
        Deterministic fault-injection spec for the distributed tier
        (:mod:`repro.engine.faults`), e.g.
        ``"crash@node-1:after=2;ready_delay@node-0:seconds=0.2"``.
        Testing/chaos knob: merged pairs and deterministic counters must
        stay byte-identical to serial no matter which faults fire.  Only
        meaningful with ``executor="distributed"``.
    pool:
        ``"fork"`` runs shards in forked ``multiprocessing`` workers,
        ``"inline"`` runs them sequentially in-process (same shard/merge
        path, useful for tests and platforms without ``fork``), ``"auto"``
        tries ``fork`` and falls back to ``inline``.
    reuse_handoff:
        Whether a sharded NM-CIJ carries the REUSE buffer across shard
        boundaries, so the ``P``-cells computed for shard *k*'s last leaf
        are visible to shard *k+1* instead of recomputed.  ``"always"``
        chains the handoff in every pool (under ``fork`` the shards then
        run as a pipeline: work-optimal — recomputation drops to exactly
        serial levels — but not wall-clock-optimal); ``"never"`` keeps
        every shard independent (maximum parallelism, boundary cells
        recomputed); ``"auto"`` (default) enables the handoff only when
        ``pool="inline"`` is configured, where the shards run sequentially
        anyway and the handoff costs nothing.
    reuse_cells:
        NM-CIJ's REUSE buffer (Section IV-B).
    use_phi_pruning:
        NM-CIJ's Lemma-3 non-leaf pruning rule.
    progress_interval:
        Granularity (in produced pairs) of FM-CIJ's progressiveness samples.
    domain:
        Space domain ``U``; defaults to the union of the two tree MBRs.
    storage:
        Page-store backend the run's workload lives on
        (``"memory" | "file" | "sqlite" | "remote"``; the remote backend
        also accepts ``remote+file`` / ``remote+sqlite`` to pick the
        spawned page server's backing).  ``None`` accepts whatever the
        trees were built on; a concrete value makes the engine verify the
        trees' disk really uses that backend, so a config and a workload
        built from different sources cannot silently disagree.  The
        workload builders (:func:`repro.datasets.workload.build_workload`,
        :func:`repro.common_influence_join`, the CLI and the experiment
        drivers) use the same names to construct the disk.
    storage_path:
        Backing path for the serializing backends (``None`` = an owned
        temporary file).  Like ``storage``, a concrete value is verified
        against the trees' page store at run time; the workload builders
        use it to place the store.
    delta_candidates:
        How a :class:`~repro.dynamic.DynamicJoinSession` finds the
        candidate partners of a dirty cell during incremental maintenance:
        ``"filter"`` (default) probes the opposite source tree with the
        paper's ConditionalFilter, ``"scan"`` MBR-scans the maintained
        opposite diagram (an independent path the differential tests use
        to cross-check the filter).
    prefetch:
        Overlapped-I/O mode of the run (:mod:`repro.storage.prefetch`).
        ``"off"`` (default) keeps every page fetch synchronous, as in the
        paper's cost model.  ``"next_batch"`` issues the MBR-pruned
        candidate pages of upcoming units (``R_Q`` leaf batches for NM/PM,
        synchronous-traversal partitions for FM) while the current batch
        computes its Voronoi cells.  ``"next_shard"`` additionally makes
        the sharded executor stage the next shard's opening pages while
        the current shard runs; it requires the sharded executor and runs
        the shards through the inline pool (staged pages live in the
        dispatching process, so ``pool="fork"`` is rejected and ``"auto"``
        resolves to inline — the overlap comes from the backend's async
        reader thread, not from forked workers).
        Whatever the mode, the emitted pairs and the logical hit/miss
        counters are byte-identical to ``"off"``; only the physical
        stall/overlap accounting in ``disk.storage_stats()`` changes.
    prefetch_depth:
        How many units ahead the ``next_batch``/``next_shard`` pipelines
        plan (also the number of opening units staged per shard).
    cell_cache:
        Opt-in per-node cache of exact ``P`` Voronoi cells that outlives
        NM-CIJ's per-leaf REUSE buffer, deduping recomputation across the
        work units a node executes.  A cell depends only on ``P`` and the
        domain, so pairs are unchanged; the recomputation counters
        (``cells_computed_p`` and ``tree_p`` accesses) drop below the
        paper's cost model, which is why this is off by default and the
        saving is reported separately as ``JoinStats.cells_cached_p``.
    """

    executor: str = "serial"
    workers: int = 2
    nodes: int = 2
    node_timeout: float = 60.0
    node_retries: int = 2
    node_min_ready: Optional[int] = None
    fault_plan: Optional[str] = None
    distributed: Optional[DistributedConfig] = None
    pool: str = "auto"
    reuse_handoff: str = "auto"
    reuse_cells: bool = True
    use_phi_pruning: bool = True
    progress_interval: int = 1000
    domain: Optional[Rect] = None
    storage: Optional[str] = None
    storage_path: Optional[str] = None
    delta_candidates: str = "filter"
    prefetch: str = "off"
    prefetch_depth: int = 2
    cell_cache: bool = False

    def __post_init__(self) -> None:
        self._sync_distributed()
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.pool not in POOLS:
            raise ValueError(f"unknown pool {self.pool!r}; expected one of {POOLS}")
        if self.reuse_handoff not in HANDOFF_MODES:
            raise ValueError(
                f"unknown reuse_handoff {self.reuse_handoff!r}; "
                f"expected one of {HANDOFF_MODES}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.fault_plan is not None:
            if self.executor != "distributed":
                raise ValueError(
                    "fault_plan injects node faults and requires "
                    "executor='distributed'"
                )
            from repro.engine.faults import FaultPlan

            FaultPlan.from_spec(self.fault_plan)  # fail fast on a bad spec
        if self.executor == "distributed" and self.prefetch != "off":
            raise ValueError(
                "prefetch is not available with executor='distributed': "
                "staged pages live in the coordinating process, which node "
                "subprocesses (their own handles, their own address space) "
                "would never see"
            )
        if self.storage is not None:
            canonical_backend(self.storage)  # fail fast on an unknown spec
        if self.delta_candidates not in DELTA_CANDIDATES:
            raise ValueError(
                f"unknown delta_candidates {self.delta_candidates!r}; "
                f"expected one of {DELTA_CANDIDATES}"
            )
        if self.prefetch not in PREFETCH_MODES:
            raise ValueError(
                f"unknown prefetch mode {self.prefetch!r}; "
                f"expected one of {PREFETCH_MODES}"
            )
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")
        if self.prefetch == "next_shard" and self.executor != "sharded":
            raise ValueError(
                "prefetch='next_shard' overlaps shard boundaries and requires "
                "executor='sharded'; use prefetch='next_batch' with the serial "
                "executor"
            )
        if self.prefetch == "next_shard" and self.pool == "fork":
            raise ValueError(
                "prefetch='next_shard' stages pages in the dispatching "
                "process, which forked workers (their own handles, their own "
                "address space) would never see; use pool='inline' (or "
                "'auto', which then runs the shards inline) or "
                "prefetch='next_batch'"
            )

    def _sync_distributed(self) -> None:
        """Keep the nested ``distributed`` block and the flat shims equal.

        Built without ``distributed``, the nested block is derived from the
        flat fields (every legacy kwarg keeps working).  Built *with* it,
        the nested block is authoritative and the flat shims are synced
        from it — unless a flat kwarg was also set to a conflicting
        non-default value, which is a contradiction reported loudly rather
        than silently resolved.
        """
        if self.distributed is None:
            object.__setattr__(
                self,
                "distributed",
                DistributedConfig(
                    **{
                        nested: getattr(self, flat)
                        for flat, (nested, _) in _DISTRIBUTED_SHIMS.items()
                    }
                ),
            )
            return
        for flat, (nested, default) in _DISTRIBUTED_SHIMS.items():
            flat_value = getattr(self, flat)
            nested_value = getattr(self.distributed, nested)
            if flat_value != default and flat_value != nested_value:
                raise ValueError(
                    f"conflicting distributed settings: {flat}={flat_value!r} "
                    f"(legacy kwarg) vs distributed.{nested}={nested_value!r}; "
                    "set the value in one place only"
                )
            object.__setattr__(self, flat, nested_value)

    def replace(self, **overrides) -> "EngineConfig":
        """A copy of this config with the given fields replaced.

        The flat distributed shims and the nested block stay coherent:
        overriding a flat field (``nodes=4``) rebuilds the nested block
        from the updated flat fields, while overriding ``distributed``
        resets any flat shim *not* explicitly overridden alongside it, so
        the nested value wins instead of colliding with a stale shim.
        """
        if "distributed" not in overrides and any(
            flat in overrides for flat in _DISTRIBUTED_SHIMS
        ):
            # Rebuild the nested block from the overridden flat fields,
            # carrying over what has no flat twin (stage_hints).
            overrides["distributed"] = DistributedConfig(
                stage_hints=self.distributed.stage_hints,
                **{
                    nested: overrides.get(flat, getattr(self.distributed, nested))
                    for flat, (nested, _) in _DISTRIBUTED_SHIMS.items()
                },
            )
        elif overrides.get("distributed") is not None:
            for flat, (_, default) in _DISTRIBUTED_SHIMS.items():
                overrides.setdefault(flat, default)
        return dataclasses.replace(self, **overrides)
