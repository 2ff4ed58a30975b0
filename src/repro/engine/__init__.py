"""repro.engine — the pluggable join-execution subsystem.

One entry point for every CIJ variant and the brute-force baseline::

    from repro.engine import JoinEngine, EngineConfig

    engine = JoinEngine()
    result = engine.run("nm", tree_p, tree_q)                      # serial
    result = engine.run("nm", tree_p, tree_q,
                        executor="sharded", workers=4)             # parallel

The serial executor preserves the paper's single-threaded semantics.  The
sharded and distributed executors enumerate the algorithm's
:class:`~repro.engine.units.WorkUnit` descriptors — ``R_Q``'s
Hilbert-ordered leaves for NM/PM, top-level ``R'_P`` partitions of the
synchronous traversal for FM — and run them on a local fork pool
(``"sharded"``) or on node subprocesses speaking the NDJSON unit protocol
over a shared on-disk backend (``"distributed"``, :mod:`repro.engine.node`).
The :class:`~repro.engine.coordinator.UnitCoordinator` merges the results
in unit index order, so pairs and statistics are deterministic and
byte-identical to serial whatever the assignment (see
:mod:`repro.engine.executors` for the correctness argument).  A sharded
run with ``workers=1`` is the serial run.  A distributed NM-CIJ hands its
REUSE buffer across unit boundaries, restoring the serial cell-reuse
chain; a fork pool's units stay independent.  Every page fetch, whatever
the executor, is the page store's synchronous read — the paper's cost
model.  :func:`default_engine` is the shared process-wide engine.
"""

from repro.engine.algorithms import (
    BruteForceJoin,
    FMJoin,
    JoinAlgorithm,
    JoinContext,
    NMJoin,
    PMJoin,
    default_algorithms,
)
from repro.engine.config import EngineConfig
from repro.engine.coordinator import Assignment, UnitCoordinator
from repro.engine.core import JoinEngine, default_engine
from repro.engine.executors import (
    DistributedExecutor,
    SerialExecutor,
    ShardedExecutor,
    ShardResult,
    executor_for,
)
from repro.engine.faults import Fault, FaultPlan
from repro.engine.units import WorkUnit

#: Node failure taxonomy, exported lazily: only the distributed executor
#: loads :mod:`repro.engine.node` and its subprocess and pipe plumbing.
_NODE_EXPORTS = (
    "NodeFailure",
    "NodeCrashed",
    "NodeTimeout",
    "NodeError",
    "NodeProtocolError",
)


def __getattr__(name):
    if name in _NODE_EXPORTS:
        from repro.engine import node

        return getattr(node, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EngineConfig",
    "JoinEngine",
    "JoinAlgorithm",
    "JoinContext",
    "NMJoin",
    "PMJoin",
    "FMJoin",
    "BruteForceJoin",
    "SerialExecutor",
    "ShardedExecutor",
    "DistributedExecutor",
    "ShardResult",
    "WorkUnit",
    "UnitCoordinator",
    "Assignment",
    "Fault",
    "FaultPlan",
    "NodeFailure",
    "NodeCrashed",
    "NodeTimeout",
    "NodeError",
    "NodeProtocolError",
    "default_algorithms",
    "default_engine",
    "executor_for",
]
