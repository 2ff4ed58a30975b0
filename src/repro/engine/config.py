"""Engine configuration: one record that drives every join execution.

The :class:`EngineConfig` collects what a run varies: the algorithm knobs
(``reuse_cells``, ``use_phi_pruning``), the domain and the execution
strategy (``executor``, ``workers``, ``nodes``, ...).  It is one flat,
frozen dataclass: every execution knob has its one default and its one
range check here, and the executors are built from the config they serve.
A config can be shared between runs, copied with
:func:`dataclasses.replace` (which re-runs the checks) and safely inherited
by forked workers.  Where the pages live is not a run knob: the trees'
:class:`~repro.storage.disk.DiskManager` is the one record of the backend.
Nor is how a dynamic session finds the partners of a dirty cell: it always
probes the opposite tree with the paper's ConditionalFilter.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.geometry.rect import Rect

#: Executor identifiers accepted by :attr:`EngineConfig.executor`.
EXECUTORS = ("serial", "sharded", "distributed")


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
        ``nodes`` worker subprocesses that reopen the shared file, sqlite
        or remote backend read-only and speak the NDJSON unit protocol
        (:mod:`repro.engine.node`).  Merged pairs and deterministic
        counters are byte-identical to serial for every executor.
    workers:
        Number of local worker processes for the sharded executor.
        ``1`` is the serial run; more fork ``min(workers, units)``
        processes running independent units (NM-CIJ's REUSE buffer does
        not cross a unit boundary).  A platform without the ``fork`` start
        method rejects more than one worker.
    nodes:
        Number of worker subprocesses for the distributed executor.  Each
        node is a separate interpreter (``python -m repro.engine.node``)
        with its own read-only handle on the shared backend, so the tier
        needs a store a subprocess can reopen (``file``, ``sqlite`` or
        ``remote``; ``memory`` is rejected at execution time).  The run starts once every node still
        alive is ready.  A distributed NM-CIJ always chains its REUSE
        buffer across units.
    node_timeout:
        Seconds of per-request *silence* (no reply, no heartbeat) after
        which the distributed executor declares a node hung, quarantines
        it and releases its leased unit back to the queue.  Heartbeats
        count as liveness, so a slow-but-alive unit computation does not
        trip the timeout.  Must be finite: an infinite deadline overflows
        the pipe wait and a NaN one never fires.
    node_retries:
        How many times one unit may be re-leased to another node after
        its worker failed (crash, hang, protocol error).  ``0`` restores
        the pre-fault-tolerance behaviour: the first node failure aborts
        the run.  A unit that fails on ``node_retries + 1`` workers is
        treated as poisoned and aborts the run loudly.
    fault_plan:
        Deterministic fault-injection spec for the distributed tier
        (:mod:`repro.engine.faults`), e.g.
        ``"crash@node-1:after=2;ready_delay@node-0:seconds=0.2"``.
        Testing/chaos knob: merged pairs and deterministic counters must
        stay byte-identical to serial no matter which faults fire.  Only
        meaningful with ``executor="distributed"``.
    reuse_cells:
        NM-CIJ's REUSE buffer (Section IV-B).
    use_phi_pruning:
        NM-CIJ's Lemma-3 non-leaf pruning rule.
    domain:
        Space domain ``U``; defaults to the union of the two tree MBRs.
    """

    executor: str = "serial"
    workers: int = 2
    nodes: int = 2
    node_timeout: float = 60.0
    node_retries: int = 2
    fault_plan: Optional[str] = None
    reuse_cells: bool = True
    use_phi_pruning: bool = True
    domain: Optional[Rect] = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.nodes < 1:
            raise ValueError("nodes must be at least 1")
        if not 0 < self.node_timeout < math.inf:
            raise ValueError("node_timeout must be positive and finite")
        if self.node_retries < 0:
            raise ValueError("node_retries must be >= 0")
        if self.fault_plan is not None:
            if self.executor != "distributed":
                raise ValueError(
                    "fault_plan injects node faults and requires "
                    "executor='distributed'"
                )
            from repro.engine.faults import FaultPlan

            try:
                FaultPlan.from_spec(self.fault_plan)  # fail fast on a bad spec
            except ValueError as error:
                raise ValueError(f"fault_plan: {error}") from None


def resolve_config(
    config: Optional[EngineConfig], overrides: Dict[str, Any]
) -> EngineConfig:
    """``config`` (default ``EngineConfig()``) with ``overrides`` applied.

    ``None`` values are ignored so callers can pass optional arguments
    straight through; an unknown field raises ``TypeError`` and a bad value
    the field's ``ValueError``.
    """
    base = config if config is not None else EngineConfig()
    updates = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(base, **updates) if updates else base
