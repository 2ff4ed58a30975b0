"""The coordinator: pull-based unit scheduling + deterministic merge.

The sharded executor used to split the unit sequence into ``workers``
contiguous chunks up front.  Static chunking is fragile under skew — one
dense cluster of ``R_Q`` leaves makes one chunk arbitrarily more expensive
than the rest and every other worker goes idle.  The
:class:`UnitCoordinator` replaces it with *pull* scheduling: workers ask
for the next unit when they finish the previous one, so a worker stuck on
an expensive unit simply stops pulling while the others drain the queue —
which is work stealing without a stealing protocol.

Assignment is *lease*-based, not consuming: a pulled unit stays owned by
the queue until its result is recorded.  When a worker dies mid-unit the
executor releases the lease and the unit returns to the queue for any
live worker — safe because every unit is a pure function of the shared
read-only backend, so re-execution yields byte-identical results and the
only cost of a failure is one unit's recomputation.  Releases are
bounded: a unit handed out ``max_attempts`` times without a result aborts
the run loudly instead of cycling forever through a poisoned unit.

Determinism is preserved by separating *assignment* from *merge order*:
whichever worker (or retry) produced a unit's result, results are folded
back in unit index order, so the merged pair list and every merged
statistic are byte-identical to the serial traversal (and to any other
assignment).  Duplicate results for one unit — a slow worker finishing a
unit the queue already reassigned — are idempotently ignored: the first
recorded result wins, and since units are pure the loser was identical
anyway.

For carry-chained algorithms (NM-CIJ with the REUSE handoff) unit ``k``'s
inbound carry is unit ``k-1``'s outbound REUSE buffer, so the carry is
decoupled from the lease.  Units are still leased in index order, one per
pulling worker, but a chained unit may be leased while its predecessor
still runs: the worker starts the carry-free part of the unit (NM's leaf
cells and ConditionalFilter) and calls :meth:`UnitCoordinator.await_carry`
only when it needs the carry, which blocks until unit ``k-1``'s result is
recorded.  The carry is always read from the *recorded* predecessor
result, so a retried unit gets exactly the inbound state the failed worker
got, and every unit does the same work from the same carry as in the
serial reuse chain — only the overlap differs.  Outstanding units are
bounded by the live workers, since a worker holds one lease at a time.

Waiting cannot deadlock.  When a lease is released, its unit goes back to
the queue; a worker waiting for that unit's carry then *gives way*: its
own unit returns to the queue as well (without using up an attempt) and
the worker is free to pull the released predecessor, lowest index first.
So the lowest unrecorded unit is always either running or next in line,
down to a single live worker.

The same coordinator instance serves every worker plane: the inline loop,
fork-pool dispatcher threads, and the per-node driver threads of the
distributed executor all call :meth:`next_assignment` /
:meth:`record_result` / :meth:`release` under one lock.
"""

from __future__ import annotations

import threading
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.algorithms import JoinContext
from repro.engine.units import WorkUnit


#: What :meth:`UnitCoordinator.await_carry` returns instead of a carry when
#: the lease gave way (or the run aborted): drop the unit and pull again.
GIVE_WAY = object()


@dataclass(frozen=True)
class Assignment:
    """One unit handed to one worker, with its inbound carry (if chained)."""

    index: int
    unit: WorkUnit
    #: The inbound carry, if already recorded at lease time (otherwise
    #: :meth:`UnitCoordinator.await_carry` waits for it).
    carry: Optional[object] = None
    #: 1 for the first handout of the unit, 2 for its first retry, ...
    attempt: int = 1


class UnitCoordinator:
    """Owns the unit queue, leases work on demand, merges in order.

    Thread-safe; one instance per join execution.  ``chained`` makes each
    unit's inbound carry its predecessor's recorded outbound carry (see
    :meth:`await_carry`).  ``max_attempts`` bounds how many times one unit
    may be leased before the run aborts (1 = no retries, the
    pre-fault-tolerance behaviour).
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        chained: bool = False,
        max_attempts: int = 1,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._units: List[WorkUnit] = list(units)
        self._chained = chained
        self._max_attempts = max_attempts
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: Unit indices awaiting (re)assignment, ascending.
        self._pending: List[int] = list(range(len(self._units)))
        #: Outstanding leases: unit index -> worker id.
        self._leases: Dict[int, str] = {}
        #: Times each unit has been handed out (give-ways excluded).
        self._attempts: Dict[int, int] = {}
        self._results: Dict[int, object] = {}
        self._error: Optional[BaseException] = None
        #: worker id -> unit indices handed to it, in pull order.  This is
        #: the scheduling trace the skew tests inspect: under skew the
        #: per-worker counts stay balanced, and across runs the traces may
        #: differ while the merged output does not.
        self.assignments: Dict[str, List[int]] = {}
        #: unit index -> times its lease was released back to the queue
        #: (the retry trace the fault-tolerance tests inspect).
        self.reassignments: Dict[int, int] = {}
        #: unit index -> times its lease gave way to a released predecessor.
        self.gave_way: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # worker-facing pull API
    # ------------------------------------------------------------------
    def next_assignment(self, worker_id: str) -> Optional[Assignment]:
        """The next unit for ``worker_id``; ``None`` when the run is done.

        Blocks while the queue is momentarily empty but leases are still
        outstanding — a leased unit may return to the queue if its worker
        dies.  A chained unit is leased even while its predecessor runs;
        its carry then arrives through :meth:`await_carry`.  A recorded
        abort unblocks every waiter with ``None``.
        """
        with self._ready:
            while True:
                if self._error is not None or self._done_locked():
                    return None
                if not self._pending:
                    self._ready.wait()
                    continue
                index = self._pending.pop(0)
                self._attempts[index] = self._attempts.get(index, 0) + 1
                self._leases[index] = worker_id
                self.assignments.setdefault(worker_id, []).append(index)
                predecessor = self._results.get(index - 1) if self._chained else None
                return Assignment(
                    index=index,
                    unit=self._units[index],
                    carry=predecessor.carry if predecessor is not None else None,
                    attempt=self._attempts[index],
                )

    def await_carry(self, assignment: Assignment) -> object:
        """The inbound carry of a leased unit, or :data:`GIVE_WAY`.

        Returns at once for an unchained run, the first unit, or a
        recorded predecessor.  Otherwise blocks until the predecessor's
        result is recorded and returns its carry.  If the predecessor goes back to the queue meanwhile (its
        worker failed), this lease gives way: the unit returns to the
        queue without using up an attempt, so the caller's worker can run
        the predecessor instead.  An abort also returns :data:`GIVE_WAY`.
        """
        index = assignment.index
        if not self._chained or index == 0:
            return None
        with self._ready:
            while True:
                if self._error is not None:
                    return GIVE_WAY
                predecessor = self._results.get(index - 1)
                if predecessor is not None:
                    return predecessor.carry
                if index - 1 in self._pending:
                    self._leases.pop(index, None)
                    self._attempts[index] -= 1
                    insort(self._pending, index)
                    self.gave_way[index] = self.gave_way.get(index, 0) + 1
                    self._ready.notify_all()
                    return GIVE_WAY
                self._ready.wait()

    def record_result(self, index: int, result) -> None:
        """Store one unit's :class:`ShardResult`; wakes carry waiters.

        Idempotent: a duplicate result for an already-recorded unit (a
        worker finishing after its lease was reassigned and completed
        elsewhere) is dropped — units are pure, so it was identical.
        """
        with self._ready:
            self._leases.pop(index, None)
            if index not in self._results:
                self._results[index] = result
            self._ready.notify_all()

    def release(self, index: int, error: Optional[BaseException] = None) -> None:
        """Return a leased unit to the queue after its worker failed.

        The unit becomes available to any live worker, lowest index first,
        and a worker waiting for its carry gives way (see
        :meth:`await_carry`); a chained retry again gets the recorded
        predecessor carry.  Exceeding ``max_attempts`` aborts the run
        instead — a unit that kills every worker it touches is a poison
        unit, and cycling it forever would be the deadlock this layer
        exists to prevent.
        """
        with self._ready:
            self._leases.pop(index, None)
            if index in self._results or self._error is not None:
                self._ready.notify_all()
                return
            attempts = self._attempts.get(index, 0)
            if attempts >= self._max_attempts:
                abort = RuntimeError(
                    f"unit {index} failed on {attempts} worker(s) "
                    f"(max_attempts={self._max_attempts}); last failure: {error}"
                )
                abort.__cause__ = error
                self._error = abort
            else:
                insort(self._pending, index)
                self.reassignments[index] = self.reassignments.get(index, 0) + 1
            self._ready.notify_all()

    def abort(self, error: BaseException) -> None:
        """Record a run-fatal failure and wake every blocked puller."""
        with self._ready:
            if self._error is None:
                self._error = error
            self._ready.notify_all()

    @property
    def error(self) -> Optional[BaseException]:
        with self._lock:
            return self._error

    def _done_locked(self) -> bool:
        return len(self._results) >= len(self._units)

    @property
    def done(self) -> bool:
        """Every unit has a recorded result."""
        with self._lock:
            return self._done_locked()

    def outstanding(self) -> int:
        """Leases currently held by workers (diagnostics)."""
        with self._lock:
            return len(self._leases)

    # ------------------------------------------------------------------
    # deterministic ordered merge
    # ------------------------------------------------------------------
    def results_in_order(self) -> List[object]:
        """Every unit's result, in unit index order; raises if incomplete."""
        with self._lock:
            missing = [i for i in range(len(self._units)) if i not in self._results]
            if missing:
                raise RuntimeError(
                    f"coordinator missing results for units {missing[:5]}"
                    f"{'...' if len(missing) > 5 else ''}"
                )
            return [self._results[index] for index in range(len(self._units))]

    def merge(
        self,
        ctx: JoinContext,
        base_accesses: int,
        absorb_counters: bool,
    ) -> List[Tuple[int, int]]:
        """Fold unit results into the parent context, in unit order.

        Pairs are concatenated; scalar statistics are summed; each unit's
        progress curve is replayed at the offset of everything that ran
        before it, which keeps the merged curve monotone and identical
        across worker planes.  When the workers charged their own counter
        copies (fork, node subprocess) their deltas are absorbed into the
        parent counters so the shared disk's view stays complete.  Only
        *recorded* results are merged — the partial work of a worker that
        died mid-unit was never recorded, so retries cannot double-charge.
        """
        pairs: List[Tuple[int, int]] = []
        pair_base = 0
        for shard in self.results_in_order():
            ctx.stats.accumulate(shard.stats)
            ctx.cell_stats.merge(shard.cell_stats)
            ctx.filter_stats.merge(shard.filter_stats)
            for sample in shard.stats.progress:
                ctx.stats.record_progress(
                    base_accesses + sample.page_accesses,
                    pair_base + sample.pairs_reported,
                )
            if absorb_counters:
                ctx.disk.counters.absorb(shard.counters)
            base_accesses += shard.counters.page_accesses
            pair_base += len(shard.pairs)
            pairs.extend(shard.pairs)
        return pairs
