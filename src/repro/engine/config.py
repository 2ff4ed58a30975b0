"""Engine configuration: one record that drives every join execution.

The :class:`EngineConfig` collects the knobs that used to be scattered over
the standalone algorithm functions (``reuse_cells``, ``use_phi_pruning``,
``progress_interval``) together with the execution strategy introduced by
the engine (``executor``, ``workers``, ``nodes``, ...).  It is one flat,
frozen dataclass: every execution knob lives here exactly once, so a config
can be shared between runs, copied with :func:`dataclasses.replace` and
safely inherited by forked workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.rect import Rect
from repro.storage.backends import canonical_backend

#: Executor identifiers accepted by :attr:`EngineConfig.executor`.
EXECUTORS = ("serial", "sharded", "distributed")

#: Shard-boundary REUSE handoff modes accepted by
#: :attr:`EngineConfig.reuse_handoff`.
HANDOFF_MODES = ("auto", "always", "never")

#: Candidate-discovery strategies of the dynamic delta join
#: (:attr:`EngineConfig.delta_candidates`).
DELTA_CANDIDATES = ("filter", "scan")


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
        ``1`` runs the units sequentially in this process (same unit/merge
        path); more fork ``min(workers, units)`` processes, falling back
        to in-process execution when a fork pool cannot be created.
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
    reuse_handoff:
        Whether a sharded NM-CIJ carries the REUSE buffer across shard
        boundaries, so the ``P``-cells computed for shard *k*'s last leaf
        are visible to shard *k+1* instead of recomputed.  ``"always"``
        chains the handoff for any worker count (forked shards then run as
        a pipeline: work-optimal — recomputation drops to exactly serial
        levels — but not wall-clock-optimal); ``"never"`` keeps every
        shard independent (maximum parallelism, boundary cells
        recomputed); ``"auto"`` (default) enables the handoff exactly when
        ``workers == 1``, where the shards run sequentially anyway and the
        handoff costs nothing.  The distributed executor's ``"auto"``
        always chains (see :class:`~repro.engine.executors.DistributedExecutor`).
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
    reuse_handoff: str = "auto"
    reuse_cells: bool = True
    use_phi_pruning: bool = True
    progress_interval: int = 1000
    domain: Optional[Rect] = None
    storage: Optional[str] = None
    storage_path: Optional[str] = None
    delta_candidates: str = "filter"
    cell_cache: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.reuse_handoff not in HANDOFF_MODES:
            raise ValueError(
                f"unknown reuse_handoff {self.reuse_handoff!r}; "
                f"expected one of {HANDOFF_MODES}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.nodes < 1:
            raise ValueError("nodes must be at least 1")
        if self.node_timeout <= 0:
            raise ValueError("node_timeout must be positive")
        if self.node_retries < 0:
            raise ValueError("node_retries must be >= 0")
        if self.node_min_ready is not None and self.node_min_ready < 1:
            raise ValueError("node_min_ready must be at least 1")
        if self.fault_plan is not None:
            if self.executor != "distributed":
                raise ValueError(
                    "fault_plan injects node faults and requires "
                    "executor='distributed'"
                )
            from repro.engine.faults import FaultPlan

            FaultPlan.from_spec(self.fault_plan)  # fail fast on a bad spec
        if self.storage is not None:
            canonical_backend(self.storage)  # fail fast on an unknown spec
        if self.delta_candidates not in DELTA_CANDIDATES:
            raise ValueError(
                f"unknown delta_candidates {self.delta_candidates!r}; "
                f"expected one of {DELTA_CANDIDATES}"
            )
