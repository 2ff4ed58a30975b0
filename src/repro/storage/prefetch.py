"""Overlapped I/O: an asynchronous page-fetch pipeline for the simulated disk.

The paper's cost model charges every page fetch synchronously, which makes
the fig7/fig8 breakdowns conflate computation with I/O stalls.  Real
spatial engines hide leaf-read latency behind index computation; this
module adds the same capability to the reproduction without perturbing the
paper's *logical* accounting:

* a :class:`PrefetchScheduler` stages pages requested ahead of time through
  the backends' non-blocking ``fetch_async`` interface (a worker thread for
  the serializing backends, an immediate lookup for the in-memory one);
* every *physical* fetch of the :class:`~repro.storage.disk.DiskManager`
  routes through the scheduler, which serves staged pages without blocking
  and accounts the difference between time **stalled** waiting for the disk
  and service time **overlapped** with computation;
* the LRU buffer and the :class:`~repro.storage.counters.IOCounters` are
  never touched by prefetching, so logical hit/miss counts — and therefore
  every number the paper's experiments report — stay byte-identical to a
  run with prefetching off.  Only the physical-byte and stall/overlap
  statistics (:class:`~repro.storage.backends.StorageStats`) may differ.

Latency hiding is only measurable when fetching takes time.  The scheduler
therefore supports an injected per-page service ``latency`` (the simulated
disk's service time) and a pluggable clock: :class:`MonotonicClock` (real
time; the worker thread genuinely overlaps with computation) or
:class:`SimulatedClock` (a logical clock tests advance explicitly, making
stall/overlap accounting exactly reproducible — this is how the in-memory
backend, which has no real I/O, exercises the pipeline deterministically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.storage.backends import PageFetch, PageRecord, PageStore


class MonotonicClock:
    """The real clock: ``perf_counter`` time, ``sleep`` actually sleeps."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock:
    """A logical clock advanced explicitly; nothing ever really sleeps.

    Tests (and the in-memory backend, which completes every fetch
    instantly) use it to make stall/overlap accounting deterministic:
    ``advance`` models computation time passing, ``sleep`` models the
    caller blocking on the simulated disk.
    """

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Model computation running for ``seconds`` of logical time."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += seconds


@dataclass
class PrefetchStats:
    """Accounting of the asynchronous fetch pipeline.

    ``pages_prefetched`` counts pages issued ahead of demand;
    ``prefetch_hits`` the issued pages that were actually consumed by a
    later read, ``prefetch_wasted`` the issued pages that never were
    (counted when the scheduler drains).  ``sync_fetches`` are demand
    fetches that found nothing staged.  ``stall_time`` accumulates the
    time reads spent blocked on the backend, ``overlap_time`` the service
    time hidden behind computation — with prefetching off, every physical
    fetch stalls for its full service time, so the two fields decompose
    the fig8 I/O cost into visible and hidden latency.
    """

    pages_prefetched: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0
    sync_fetches: int = 0
    stall_time: float = 0.0
    overlap_time: float = 0.0


class PrefetchScheduler:
    """Stages asynchronously fetched pages between issue and consumption.

    The scheduler is deliberately oblivious to *what* to prefetch — the
    engine's algorithms plan candidate pages and call :meth:`request`; the
    disk manager calls :meth:`fetch` for every physical page fetch.  A
    fetch of a staged page waits only for whatever service time has not
    yet elapsed (accounted as stall, the hidden remainder as overlap); a
    fetch of an unstaged page performs a synchronous backend read and
    stalls for the full service latency, exactly like a run without
    prefetching.

    The logical counters of the paper's cost model never route through
    this class, so hit/miss accounting is independent of prefetch timing:
    ``prefetch_hits``/``prefetch_wasted`` depend only on which pages were
    requested and consumed, never on thread scheduling.
    """

    def __init__(
        self,
        store: PageStore,
        latency: float = 0.0,
        clock: Optional[object] = None,
        stats: Optional[PrefetchStats] = None,
        resident: Optional[object] = None,
    ):
        if latency < 0:
            raise ValueError("fetch latency must be non-negative")
        self.store = store
        self.latency = latency
        self.clock = clock if clock is not None else MonotonicClock()
        self.stats = stats if stats is not None else PrefetchStats()
        #: Predicate for pages already held in memory by the owner (the
        #: disk manager's decoded-page cache): requesting those would move
        #: backend bytes and occupy the simulated disk for pages a read
        #: will never ask the backend for.
        self._resident = resident if resident is not None else (lambda page_id: False)
        #: page id -> (async fetch handle, simulated-service completion time)
        self._staged: Dict[int, Tuple[PageFetch, float]] = {}
        #: When the simulated serial disk finishes its queued service.
        self._disk_free_at = 0.0

    def _schedule_service(self) -> float:
        """Queue one page's service on the simulated serial disk.

        The disk serves one page at a time: a request issued while earlier
        requests are still being serviced queues behind them.  This keeps a
        prefetched N-page batch from getting N services for the price of
        one — overlap can only come from computation genuinely running
        while the disk works through its queue, exactly like the
        synchronous baseline charged page by page.
        """
        start = max(self.clock.now(), self._disk_free_at)
        self._disk_free_at = start + self.latency
        return self._disk_free_at

    # ------------------------------------------------------------------
    # issue side
    # ------------------------------------------------------------------
    def request(self, page_ids: Iterable[int]) -> int:
        """Begin fetching pages ahead of demand; returns how many were new.

        Pages already staged — or already resident in the owner's decoded
        cache, which a read will be served from without touching the
        backend — are not issued.  The request is advisory: a page that is
        never consumed is counted as wasted when the scheduler drains, and
        a requested page that has meanwhile been freed simply yields
        nothing.
        """
        fresh: List[int] = []
        seen = set()
        for page_id in page_ids:
            if (
                page_id not in self._staged
                and page_id not in seen
                and not self._resident(page_id)
            ):
                seen.add(page_id)
                fresh.append(page_id)
        if not fresh:
            return 0
        handle = self.store.fetch_async(fresh)
        for page_id in fresh:
            # Each page's simulated service queues behind the previous
            # one: page i of the batch is ready at issue + (i+1)·latency.
            self._staged[page_id] = (handle, self._schedule_service())
        self.stats.pages_prefetched += len(fresh)
        return len(fresh)

    @property
    def staged_pages(self) -> List[int]:
        """Page ids currently staged (issued and not yet consumed)."""
        return list(self._staged)

    # ------------------------------------------------------------------
    # demand side
    # ------------------------------------------------------------------
    def fetch(self, page_id: int) -> PageRecord:
        """One physical page fetch, served from staging when possible."""
        staged = self._staged.pop(page_id, None)
        if staged is None:
            return self._fetch_sync(page_id)
        handle, ready_at = staged
        start = self.clock.now()
        record = handle.result().get(page_id)
        if record is None:
            # The async read could not produce the page (e.g. freed in the
            # meantime, or the backend failed): fall back to the synchronous
            # path, which surfaces any genuine error to the caller.  The
            # page's simulated service was already queued at request time —
            # reuse that slot instead of charging the disk twice.
            return self._fetch_sync(page_id, ready_at=ready_at)
        # If the simulated service time has not fully elapsed, the read
        # stalls for the remainder, and only the part that computation
        # already covered counts as hidden.
        waited = self._wait_for_service(start, ready_at)
        self.stats.prefetch_hits += 1
        self.stats.stall_time += waited
        self.stats.overlap_time += max(0.0, self.latency - waited)
        return record

    def _fetch_sync(self, page_id: int, ready_at: Optional[float] = None) -> PageRecord:
        start = self.clock.now()
        record = self.store.read_page(page_id)
        if self.latency > 0:
            # A demand miss queues behind whatever the disk is already
            # servicing (in-flight prefetches included) and the caller
            # stalls until its own service completes.  A caller holding an
            # already-queued service slot (a staged fetch that fell back
            # here) passes its ``ready_at`` instead of queueing again.
            if ready_at is None:
                ready_at = self._schedule_service()
            stalled = self._wait_for_service(start, ready_at)
        else:
            stalled = self.clock.now() - start
        self.stats.sync_fetches += 1
        self.stats.stall_time += stalled
        return record

    def _wait_for_service(self, start: float, ready_at: float) -> float:
        """Block until the simulated service ending at ``ready_at`` is done.

        Returns the stall since ``start``.  A caller still ahead of
        ``ready_at`` sleeps the remainder and is charged up to ``ready_at``
        exactly: how late the host's timer wakes it afterwards is scheduler
        noise, not disk service, and charging it would let a single
        preempted sleep outweigh the latency that prefetching hides.  A
        caller already past ``ready_at`` (real backend work took longer) is
        charged the time it actually spent.
        """
        now = self.clock.now()
        if now >= ready_at:
            return now - start
        self.clock.sleep(ready_at - now)
        return ready_at - start

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate(self, page_id: int) -> None:
        """Discard a staged page whose stored content is being released.

        Called by the disk manager's ``free``: page ids are recycled for
        later allocations, and a staged record from the id's previous life
        must never be served as the new page's content.  The discarded
        page counts as wasted — it was issued and can no longer be used.
        """
        if self._staged.pop(page_id, None) is not None:
            self.stats.prefetch_wasted += 1

    def drain(self) -> int:
        """Discard everything still staged; returns the wasted page count.

        Called at the end of a join run (and before detaching): pages that
        were prefetched but never consumed are the pipeline's misprediction
        cost, reported as ``prefetch_wasted``.
        """
        wasted = len(self._staged)
        self._staged.clear()
        self.stats.prefetch_wasted += wasted
        return wasted


__all__ = [
    "MonotonicClock",
    "SimulatedClock",
    "PrefetchStats",
    "PrefetchScheduler",
]
