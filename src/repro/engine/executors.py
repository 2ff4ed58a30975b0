"""Executors: how the engine drives an algorithm's join phase.

* :class:`SerialExecutor` calls the algorithm's ``run_join`` directly and
  reproduces the paper's single-threaded semantics bit for bit.
* :class:`ShardedExecutor` enumerates the algorithm's ordered
  :class:`~repro.engine.units.WorkUnit` descriptors — Hilbert-ordered
  ``R_Q`` leaves for NM-CIJ/PM-CIJ, top-level ``R'_P`` join partitions for
  FM-CIJ — and schedules them through a pull-based
  :class:`~repro.engine.coordinator.UnitCoordinator` over
  ``min(workers, units)`` local ``fork`` workers — or in this process,
  sequentially, through the very same unit/merge path when ``workers`` is
  1, there is one unit, or the platform cannot fork.  Each unit runs
  against its own counter snapshot and the dispatch-time buffer state;
  the coordinator merges result pairs and every statistics record
  deterministically, in unit order, so the merged pair list is
  byte-identical to the serial one and the merged counters are the exact
  sum of the per-unit deltas.
* :class:`DistributedExecutor` runs the same coordinator over ``nodes``
  worker *subprocesses* (:mod:`repro.engine.node`) that reopen the shared
  file, sqlite or remote backend read-only and exchange units and results
  over an NDJSON pipe protocol — the process-simulated form of an elastic
  worker tier over shared storage.

Parallel-correctness argument: the pairs a unit reports depend only on the
unit itself, the two source trees and the domain — never on buffer state,
the REUSE carry-over or the work of other units — so unit results merged
in unit order compose exactly like the serial loop, *whatever* the dynamic
assignment of units to workers was.  What *can* differ is cost: NM-CIJ's
REUSE buffer crosses a unit boundary only when the coordinator chains the
units, seeding each with its predecessor's final buffer
(``JoinContext.carry``), so recomputation drops to exactly serial levels.
Where the units run decides it: the sharded executor chains exactly when
``workers == 1`` (its units then run one after another in this process
anyway), and a fork pool's units are independent; the distributed
executor always chains, and a node waits for the carry only where NM
reads it (see :class:`DistributedExecutor`).  The cost is reported
honestly through the merged statistics either way.

In-process (inline) execution also isolates the shared LRU buffer: every
unit starts from the dispatch-time buffer state a forked worker would
inherit, and the parent's buffer is rewound afterwards — so inline, forked
and node-based executions produce identical counters, not just identical
pairs.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats
from repro.storage.counters import IOCounters
from repro.voronoi.single import CellComputationStats

from repro.engine.algorithms import JoinAlgorithm, JoinContext
from repro.engine.config import EngineConfig
from repro.engine.coordinator import UnitCoordinator
from repro.engine.units import WorkUnit


@dataclass
class ShardResult:
    """Everything one work unit sends back to the merging coordinator."""

    index: int
    pairs: List[Tuple[int, int]]
    stats: JoinStats
    cell_stats: CellComputationStats
    filter_stats: FilterStats
    #: Page-traffic delta accumulated by this unit (its own snapshot diff).
    counters: IOCounters
    #: Bytes the unit's store handle moved (its ``bytes_read`` and
    #: ``bytes_written`` delta), added to the parent's store at merge.
    bytes_read: int = 0
    bytes_written: int = 0
    #: Outbound carry state (``supports_handoff`` algorithms).  Inside one
    #: process this is the live REUSE buffer; crossing the node protocol it
    #: is the buffer's JSON wire form, which the coordinator forwards
    #: opaquely to whichever node draws the next chained unit.
    carry: Optional[object] = None


class SerialExecutor:
    """Run the join phase exactly as the standalone functions used to."""

    name = "serial"

    def execute(self, algorithm: JoinAlgorithm, ctx: JoinContext) -> List[Tuple[int, int]]:
        return algorithm.run_join(ctx)


#: Worker-process state installed by the pool initializer (inherited cheaply
#: through ``fork``; only unit indices and results cross the pipe).
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(algorithm, ctx, units) -> None:
    _WORKER_STATE["algorithm"] = algorithm
    _WORKER_STATE["ctx"] = ctx
    _WORKER_STATE["units"] = units
    # The worker's forked buffer copy *is* the parent's dispatch-time
    # state; capture it so every unit this worker picks up starts from
    # it, even when the pool hands one worker many units.
    _WORKER_STATE["dispatch_buffer"] = ctx.disk.buffer_state()
    # The page dict / decoded cache arrive through fork copy-on-write, but
    # file descriptors and database connections must not be shared with the
    # parent: swap in this worker's own read-only backend handles.
    ctx.disk.reopen_for_worker()


def _worker_run_shard(index: int) -> ShardResult:
    algorithm = _WORKER_STATE["algorithm"]
    ctx = _WORKER_STATE["ctx"]
    units = _WORKER_STATE["units"]
    # Rewind to the dispatch-time buffer before every unit: a worker that
    # wins the queue race for another unit must not leak the previous
    # unit's warm pages into it (inline execution rewinds identically,
    # keeping counters byte-equal across worker planes).
    ctx.disk.restore_buffer_state(_WORKER_STATE["dispatch_buffer"])
    result = _execute_shard(algorithm, ctx, units[index], index)
    # Forked units are never chained: keep the (potentially large) REUSE
    # buffer nobody consumes off the result pipe.
    result.carry = None
    return result


def _execute_shard(
    algorithm: JoinAlgorithm,
    parent_ctx: JoinContext,
    unit: WorkUnit,
    index: int,
    carry: Optional[object] = None,
) -> ShardResult:
    """Process one unit with isolated statistics and a fresh counter base.

    In a forked worker or a node subprocess the disk object is the
    worker's own copy, so the snapshot/diff pair measures exactly this
    unit's traffic; inline, the same snapshot/diff isolates the delta on
    the shared counters.  The store's byte counters are diffed the same
    way.  ``carry`` seeds the inbound boundary state (the
    previous unit's REUSE buffer) when the units are chained.  The
    :class:`~repro.engine.units.WorkUnit` descriptor is resolved back to a
    runnable object without charging I/O (the dispatcher already charged
    the enumeration).
    """
    runnable = algorithm.resolve_unit(parent_ctx, unit)
    disk = parent_ctx.disk
    store = disk.store
    snapshot = disk.counters.snapshot()
    bytes_read, bytes_written = store.bytes_read, store.bytes_written
    stats = JoinStats(algorithm=algorithm.display_name)
    cell_stats = CellComputationStats()
    filter_stats = FilterStats()
    shard_ctx = JoinContext(
        tree_p=parent_ctx.tree_p,
        tree_q=parent_ctx.tree_q,
        domain=parent_ctx.domain,
        config=parent_ctx.config,
        stats=stats,
        cell_stats=cell_stats,
        filter_stats=filter_stats,
        start_counters=snapshot,
        prepared=parent_ctx.prepared,
        carry=carry,
    )
    pairs = algorithm.process_units(shard_ctx, [runnable])
    return ShardResult(
        index=index,
        pairs=pairs,
        stats=stats,
        cell_stats=cell_stats,
        filter_stats=filter_stats,
        counters=disk.counters.diff(snapshot),
        bytes_read=store.bytes_read - bytes_read,
        bytes_written=store.bytes_written - bytes_written,
        carry=shard_ctx.carry,
    )


class ShardedExecutor:
    """Schedule the algorithm's work units across local workers and merge.

    Built from the :class:`EngineConfig` it serves: ``workers`` is read
    from there (and range-checked there), and NM's REUSE carry is chained
    exactly when it is 1 — a rule on the configuration, never on the
    runtime fork fallback, so counters stay machine-independent.
    """

    name = "sharded"

    def __init__(self, config: EngineConfig):
        self.config = config
        #: Scheduling trace of the most recent run (worker id -> unit
        #: indices, in pull order); inspection hook for the skew tests.
        self.last_assignments: Optional[Dict[str, List[int]]] = None

    def execute(self, algorithm: JoinAlgorithm, ctx: JoinContext) -> List[Tuple[int, int]]:
        # Enumerating the units is part of the join and is charged to the
        # parent, once, before any worker starts.
        units = algorithm.work_units(ctx)
        if not units:
            return []
        chained = algorithm.supports_handoff and self.config.workers == 1
        coordinator = UnitCoordinator(units, chained=chained)
        base_accesses = ctx.disk.counters.diff(ctx.start_counters).page_accesses
        forked = False
        if self.config.workers > 1 and len(units) > 1:
            forked = self._run_units_fork(algorithm, ctx, coordinator, units)
        if not forked:
            self._run_units_inline(algorithm, ctx, coordinator, len(units))
        self.last_assignments = dict(coordinator.assignments)
        return coordinator.merge(ctx, base_accesses, absorb_counters=forked)

    def _run_units_fork(
        self,
        algorithm: JoinAlgorithm,
        ctx: JoinContext,
        coordinator: UnitCoordinator,
        units: Sequence[WorkUnit],
    ) -> bool:
        """Drain the coordinator through a fork pool; False = unavailable.

        One dispatcher thread per pool worker pulls assignments and blocks
        in ``pool.apply`` while its unit runs, so a worker stuck on an
        expensive unit stops pulling and the others drain the queue — the
        pull scheduling is identical to the inline and node planes.  Only
        pool *creation* falls back to inline; an error raised by the join
        itself inside a worker propagates unchanged.
        """
        size = min(self.config.workers, len(units))
        pool = self._make_fork_pool(algorithm, ctx, units, size)
        if pool is None:
            return False
        errors: List[BaseException] = []

        def drive(worker_id: str) -> None:
            while True:
                assignment = coordinator.next_assignment(worker_id)
                if assignment is None:
                    return
                try:
                    result = pool.apply(_worker_run_shard, (assignment.index,))
                except BaseException as error:  # noqa: BLE001 - reraised below
                    errors.append(error)
                    coordinator.abort(error)
                    return
                coordinator.record_result(assignment.index, result)

        with pool:
            threads = [
                threading.Thread(target=drive, args=(f"fork-{i}",))
                for i in range(size)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return True

    def _run_units_inline(
        self,
        algorithm: JoinAlgorithm,
        ctx: JoinContext,
        coordinator: UnitCoordinator,
        unit_count: int,
    ) -> None:
        """Sequential in-process drain through the same unit/merge path.

        Every unit is rewound to the dispatch-time buffer state a forked
        worker would inherit, so inline and forked runs charge identical
        counters; the parent's buffer is likewise rewound afterwards (a
        fork parent's buffer never sees the workers' traffic either).
        """
        isolate = unit_count > 1
        dispatch_state = ctx.disk.buffer_state() if isolate else None
        first = True
        try:
            while True:
                assignment = coordinator.next_assignment("inline-0")
                if assignment is None:
                    return
                if dispatch_state is not None and not first:
                    ctx.disk.restore_buffer_state(dispatch_state)
                first = False
                try:
                    result = _execute_shard(
                        algorithm,
                        ctx,
                        assignment.unit,
                        assignment.index,
                        carry=assignment.carry,
                    )
                except BaseException as error:  # noqa: BLE001 - reraised
                    coordinator.abort(error)
                    raise
                coordinator.record_result(assignment.index, result)
        finally:
            # Rewind even when a unit raises: a follow-up run on the same
            # disk then starts from the dispatch-time buffer, not a
            # half-executed unit's.
            if dispatch_state is not None:
                ctx.disk.restore_buffer_state(dispatch_state)

    def _make_fork_pool(
        self,
        algorithm: JoinAlgorithm,
        ctx: JoinContext,
        units: Sequence[WorkUnit],
        size: int,
    ):
        """A fork worker pool, or ``None`` when the platform cannot fork."""
        try:
            context = multiprocessing.get_context("fork")
            return context.Pool(
                size,
                initializer=_worker_init,
                initargs=(algorithm, ctx, list(units)),
            )
        except (OSError, ValueError, ImportError):
            return None


class DistributedExecutor:
    """Run the coordinator over node subprocesses on a shared backend.

    Each node is a separate interpreter (``python -m repro.engine.node``)
    that reopens the run's file, sqlite or remote store read-only, rebuilds
    the dispatch-time buffer state, and executes whatever units it pulls
    from the coordinator over an NDJSON pipe protocol
    (:mod:`repro.engine.node`).  Results merge in unit order, so pairs,
    statistics and deterministic counters are byte-identical to the serial
    run no matter how units were assigned.

    NM-CIJ's REUSE carry is always chained here (the sharded executor
    chains it only at ``workers == 1``): a distributed run's output must
    match serial counters exactly, and the chain is what restores the
    serial recomputation counts.  The chain still runs the nodes in
    parallel: a free node leases the next unit while its predecessor runs
    elsewhere, computes the unit's leaf cells and ConditionalFilter, and
    receives the carry as its own message once the predecessor's result
    is recorded — only NM's candidate cells and pair report wait for it.  If that
    predecessor goes back to the queue, the waiting node drops its unit
    (a give-way, not a retry) and is free to run the predecessor.

    Fault tolerance: a node failure (crash, silence past ``node_timeout``,
    protocol garbage, error reply) quarantines *that node* — killed,
    reaped, recorded in :attr:`quarantined` — and releases its leased unit
    back to the coordinator for any live node; a unit may be retried up to
    ``node_retries`` times before the run aborts.  Startup is one barrier:
    the drive phase opens once every node still alive reports ready (a
    node that fails during start-up stops counting), so all nodes start
    pulling together.  The run degrades gracefully down to one survivor;
    only zero live workers with work still outstanding aborts loudly.

    Every knob above is read from the :class:`EngineConfig` the executor
    is built from, which also range-checks it.  ``node_delays`` is a test
    hook: artificial seconds each node sleeps per unit, indexed by node
    ordinal, used to force distinguishable pull interleavings in the
    skew/steal tests.
    """

    name = "distributed"

    #: Base sleep (seconds) before re-running a released unit; it doubles
    #: per attempt so a transiently sick tier is not hammered.
    RETRY_BACKOFF = 0.05
    #: Exponential retry backoff cap (seconds).
    MAX_BACKOFF = 1.0

    def __init__(
        self, config: EngineConfig, node_delays: Optional[Sequence[float]] = None
    ):
        from repro.engine.faults import FaultPlan

        self.config = config
        self.node_delays = node_delays
        #: The config's fault-plan spec, parsed (``None`` = no faults).
        self.fault_plan = (
            FaultPlan.from_spec(config.fault_plan) if config.fault_plan else None
        )
        #: Scheduling trace of the most recent run (node id -> unit
        #: indices, in pull order); inspection hook for the skew tests.
        self.last_assignments: Optional[Dict[str, List[int]]] = None
        #: node id -> failure description for nodes quarantined last run.
        self.quarantined: Dict[str, str] = {}
        #: unit index -> times its lease was released back (last run).
        self.retries: Dict[int, int] = {}
        #: node id -> subprocess pid (last run) — the reap tests poll these.
        self.node_pids: Dict[str, int] = {}
        #: Fault-injection + failure summary of the last run.
        self.last_run_report: Optional[Dict[str, object]] = None

    def execute(self, algorithm: JoinAlgorithm, ctx: JoinContext) -> List[Tuple[int, int]]:
        from repro.engine import node as node_plane

        store = ctx.disk.store
        if not store.supports_worker_reopen or store.location is None:
            raise ValueError(
                "executor='distributed' needs a shared backend that node "
                "subprocesses can reopen read-only; use storage='file', "
                f"'sqlite' or 'remote' (the {store.name!r} store lives only "
                "in this process)"
            )
        units = algorithm.work_units(ctx)
        if not units:
            return []
        config = self.config
        coordinator = UnitCoordinator(
            units,
            chained=algorithm.supports_handoff,
            max_attempts=config.node_retries + 1,
        )
        base_accesses = ctx.disk.counters.diff(ctx.start_counters).page_accesses
        spec = node_plane.node_init_spec(algorithm, ctx)
        count = min(config.nodes, len(units))

        self.quarantined = {}
        self.node_pids = {}
        nodes: List[node_plane.NodeProcess] = []
        registry_lock = threading.Lock()
        state_lock = threading.Lock()
        state = {"ready": 0, "live": count}
        start_gate = threading.Event()
        errors: List[BaseException] = []

        def reevaluate_gate_locked() -> None:
            # Failed nodes leave the barrier: a run must not wait forever
            # for readiness that can no longer arrive.
            if state["ready"] >= state["live"]:
                start_gate.set()

        def mark_failed(
            worker_id: str,
            node: Optional["node_plane.NodeProcess"],
            error: BaseException,
        ) -> None:
            self.quarantined[worker_id] = f"{type(error).__name__}: {error}"
            if node is not None:
                node.quarantine()
            with state_lock:
                state["live"] -= 1
                if state["live"] == 0 and not coordinator.done:
                    exhausted = RuntimeError(
                        f"all {count} distributed nodes failed; last: "
                        f"{type(error).__name__}: {error}"
                    )
                    exhausted.__cause__ = error
                    coordinator.abort(exhausted)
                reevaluate_gate_locked()

        def run_node(ordinal: int) -> None:
            worker_id = f"node-{ordinal}"
            node: Optional[node_plane.NodeProcess] = None
            try:
                delay = 0.0
                if self.node_delays is not None and ordinal < len(self.node_delays):
                    delay = float(self.node_delays[ordinal])
                faults = (
                    self.fault_plan.for_node(worker_id) if self.fault_plan else None
                )
                node = node_plane.NodeProcess(
                    worker_id=worker_id,
                    spec=spec,
                    unit_delay=delay,
                    faults=faults,
                )
                with registry_lock:
                    nodes.append(node)
                    self.node_pids[worker_id] = node.process.pid
                node.wait_ready(timeout=config.node_timeout)
            except node_plane.NodeFailure as error:
                mark_failed(worker_id, node, error)
                return
            except BaseException as error:  # noqa: BLE001 - reraised below
                errors.append(error)
                coordinator.abort(error)
                start_gate.set()
                return
            with state_lock:
                state["ready"] += 1
                reevaluate_gate_locked()
            start_gate.wait()
            while True:
                assignment = coordinator.next_assignment(worker_id)
                if assignment is None:
                    # Retire the node now, while siblings may still run
                    # their last units (shutdown is idempotent).
                    node.shutdown()
                    return
                if assignment.attempt > 1:
                    time.sleep(
                        min(
                            self.RETRY_BACKOFF * 2 ** (assignment.attempt - 2),
                            self.MAX_BACKOFF,
                        )
                    )
                try:
                    result = node.run_unit(
                        assignment,
                        timeout=config.node_timeout,
                        await_carry=coordinator.await_carry,
                    )
                except node_plane.NodeFailure as error:
                    # Lease back to the queue first, then retire the node:
                    # a sibling can pick the unit up immediately.
                    coordinator.release(assignment.index, error=error)
                    mark_failed(worker_id, node, error)
                    return
                except BaseException as error:  # noqa: BLE001 - reraised below
                    errors.append(error)
                    coordinator.abort(error)
                    return
                if result is None:
                    continue  # gave way to a released predecessor
                coordinator.record_result(assignment.index, result)

        try:
            threads = [
                threading.Thread(
                    target=run_node, args=(ordinal,), name=f"drive-node-{ordinal}"
                )
                for ordinal in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            with registry_lock:
                survivors = [
                    node
                    for node in nodes
                    if node.worker_id not in self.quarantined
                ]
            for node in survivors:
                node.shutdown()
        self.retries = dict(coordinator.reassignments)
        self.last_assignments = dict(coordinator.assignments)
        self.last_run_report = {
            "nodes": count,
            "quarantined": dict(self.quarantined),
            "retries": dict(self.retries),
            "gave_way": dict(coordinator.gave_way),
            "faults_planned": (
                self.fault_plan.to_spec() if self.fault_plan else None
            ),
        }
        if errors:
            raise errors[0]
        if coordinator.error is not None:
            raise coordinator.error
        return coordinator.merge(ctx, base_accesses, absorb_counters=True)


def executor_for(config: EngineConfig):
    """Instantiate the executor a config asks for, built from that config."""
    if config.executor == "sharded":
        return ShardedExecutor(config)
    if config.executor == "distributed":
        return DistributedExecutor(config)
    return SerialExecutor()
