"""Unit tests for the asynchronous page-fetch pipeline.

The :class:`~repro.storage.prefetch.PrefetchScheduler` must (a) hide
simulated service latency behind computation — proven deterministically
with a :class:`~repro.storage.prefetch.SimulatedClock` — and (b) never
perturb the paper's logical cost model: buffer hits/misses and every
``IOCounters`` field are identical whether pages were prefetched or not.
"""

from __future__ import annotations

import pytest

from repro.storage.backends import MemoryPageStore, create_page_store
from repro.storage.disk import DiskManager
from repro.storage.prefetch import (
    PrefetchScheduler,
    PrefetchStats,
    SimulatedClock,
)

LATENCY = 0.5


def fill_store(store, pages=10):
    for page_id in range(1, pages + 1):
        store.write_page(page_id, "T", {"payload": page_id}, 64)
    return store


class TestSimulatedLatencyHiding:
    """The deterministic core claim: prefetching converts stall into overlap."""

    def test_synchronous_fetch_stalls_full_latency(self):
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        for page_id in (1, 2, 3):
            scheduler.fetch(page_id)
        assert scheduler.stats.sync_fetches == 3
        assert scheduler.stats.stall_time == pytest.approx(3 * LATENCY)
        assert scheduler.stats.overlap_time == 0.0
        assert clock.now() == pytest.approx(3 * LATENCY)

    def test_prefetch_with_enough_compute_hides_all_latency(self):
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        scheduler.request([1, 2, 3])
        clock.advance(10 * LATENCY)  # computation outlasts the service time
        for page_id in (1, 2, 3):
            scheduler.fetch(page_id)
        stats = scheduler.stats
        assert stats.prefetch_hits == 3
        assert stats.stall_time == 0.0
        assert stats.overlap_time == pytest.approx(3 * LATENCY)
        assert stats.overlap_time > 0

    def test_partial_overlap_splits_stall_and_hidden_time(self):
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        scheduler.request([1])
        clock.advance(LATENCY / 5)  # compute covers only 20% of the service
        scheduler.fetch(1)
        stats = scheduler.stats
        assert stats.stall_time == pytest.approx(LATENCY * 4 / 5)
        assert stats.overlap_time == pytest.approx(LATENCY / 5)
        # The consumer waited until the page was ready, never longer.
        assert clock.now() == pytest.approx(LATENCY / 5 + LATENCY * 4 / 5)

    def test_batch_service_is_serialized_not_parallel(self):
        """The simulated disk serves one page at a time: consuming a
        freshly requested batch with no intervening computation stalls for
        the batch's *full* serial service, exactly like the synchronous
        baseline — prefetching must not hand out N services for the price
        of one."""
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        scheduler.request([1, 2, 3])
        for page_id in (1, 2, 3):
            scheduler.fetch(page_id)
        stats = scheduler.stats
        assert stats.stall_time == pytest.approx(3 * LATENCY)
        assert stats.overlap_time == pytest.approx(0.0)
        assert clock.now() == pytest.approx(3 * LATENCY)

    def test_demand_miss_queues_behind_inflight_prefetches(self):
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        scheduler.request([1, 2])  # disk busy until 2·LATENCY
        scheduler.fetch(3)  # unstaged: queues behind both services
        assert scheduler.stats.stall_time == pytest.approx(3 * LATENCY)

    def test_prefetch_beats_synchronous_on_the_same_trace(self):
        """The headline comparison, exactly reproducible: same pages, same
        compute, with and without prefetching."""

        def run(prefetch: bool) -> PrefetchStats:
            store = fill_store(MemoryPageStore())
            clock = SimulatedClock()
            scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
            for page_id in range(1, 6):
                if prefetch:
                    scheduler.request([page_id + 1])  # stage the next page
                clock.advance(LATENCY)  # one batch worth of computation
                scheduler.fetch(page_id)
            return scheduler.stats

        sync = run(prefetch=False)
        overlapped = run(prefetch=True)
        assert overlapped.stall_time < sync.stall_time
        assert overlapped.overlap_time > 0
        # Page 1 was never staged (nothing precedes it): one sync stall.
        assert overlapped.stall_time == pytest.approx(LATENCY)
        assert overlapped.overlap_time == pytest.approx(4 * LATENCY)


class TestSchedulerSemantics:
    def test_request_dedups_staged_pages(self):
        store = fill_store(MemoryPageStore())
        scheduler = PrefetchScheduler(store)
        assert scheduler.request([1, 2, 2, 3]) == 3
        assert scheduler.request([2, 3, 4]) == 1
        assert scheduler.stats.pages_prefetched == 4

    def test_consumed_page_leaves_staging_and_can_be_reissued(self):
        store = fill_store(MemoryPageStore())
        scheduler = PrefetchScheduler(store)
        scheduler.request([1])
        scheduler.fetch(1)
        assert 1 not in scheduler.staged_pages
        assert scheduler.request([1]) == 1

    def test_drain_counts_unconsumed_pages_as_wasted(self):
        store = fill_store(MemoryPageStore())
        scheduler = PrefetchScheduler(store)
        scheduler.request([1, 2, 3])
        scheduler.fetch(2)
        assert scheduler.drain() == 2
        stats = scheduler.stats
        assert stats.prefetch_hits == 1
        assert stats.prefetch_wasted == 2
        assert scheduler.staged_pages == []

    def test_unknown_page_in_request_is_harmless(self):
        store = fill_store(MemoryPageStore())
        scheduler = PrefetchScheduler(store)
        scheduler.request([999])
        # The staged fetch produced nothing; the demand read must still
        # surface the backend's own error through the synchronous path.
        with pytest.raises(KeyError):
            scheduler.fetch(999)

    def test_fetch_returns_exact_records(self):
        store = fill_store(MemoryPageStore())
        scheduler = PrefetchScheduler(store)
        scheduler.request([5])
        record = scheduler.fetch(5)
        assert record.payload == {"payload": 5}
        assert record.tag == "T"


@pytest.mark.parametrize("backend", ["memory", "file", "sqlite"])
class TestBackendAsyncFetch:
    """fetch_async on every backend returns the same records as read_page."""

    def test_async_batch_matches_sync_reads(self, backend, tmp_path):
        path = str(tmp_path / f"pages-{backend}") if backend != "memory" else None
        store = create_page_store(backend, path)
        try:
            fill_store(store, pages=6)
            handle = store.fetch_async([2, 4, 999])
            records = handle.result()
            assert sorted(records) == [2, 4]
            for page_id in (2, 4):
                expected = store.read_page(page_id, count=False)
                assert records[page_id].payload == expected.payload
                assert records[page_id].tag == expected.tag
                assert records[page_id].size_bytes == expected.size_bytes
            if backend != "memory":
                assert store.stats().bytes_prefetched > 0
                # Async traffic never pollutes the synchronous-miss bytes.
                assert store.stats().bytes_read == 0
        finally:
            store.close()


class TestDiskManagerIntegration:
    """The disk routes physical fetches through the scheduler without
    changing what the paper's cost model charges."""

    def make_disk(self, clock=None, latency=0.0):
        disk = DiskManager(
            buffer_pages=2, fetch_latency=latency, fetch_clock=clock
        )
        pages = [disk.allocate("T", {"n": n}) for n in range(6)]
        disk.buffer.clear()
        disk.reset_counters()
        return disk, pages

    def test_counters_identical_with_and_without_prefetch(self):
        trace_counters = []
        for use_prefetch in (False, True):
            disk, pages = self.make_disk()
            scheduler = disk.enable_prefetch()
            if use_prefetch:
                scheduler.request(pages)
            for page_id in pages + pages[:3]:  # re-reads exercise the buffer
                disk.read(page_id)
            counters = disk.counters
            trace_counters.append(
                (
                    counters.reads,
                    counters.writes,
                    counters.logical_reads,
                    counters.buffer_hits,
                    dict(counters.by_tag),
                )
            )
            if use_prefetch:
                assert disk.storage_stats().prefetch_hits > 0
        assert trace_counters[0] == trace_counters[1]

    def test_simulated_latency_overlap_through_the_disk(self):
        clock = SimulatedClock()
        disk, pages = self.make_disk(clock=clock, latency=LATENCY)
        scheduler = disk.prefetcher
        assert scheduler is not None  # latency alone attaches the pipeline
        scheduler.request(pages[:3])
        clock.advance(10 * LATENCY)
        for page_id in pages[:3]:
            disk.read(page_id)
        stats = disk.storage_stats()
        assert stats.overlap_time == pytest.approx(3 * LATENCY)
        assert stats.stall_time == 0.0
        # The remaining pages were never staged: full synchronous stalls.
        for page_id in pages[3:]:
            disk.read(page_id)
        stats = disk.storage_stats()
        assert stats.stall_time == pytest.approx(3 * LATENCY)

    def test_resident_pages_are_not_issued(self):
        """A page the disk already holds decoded (buffer-resident) is
        skipped at request time: its read never touches the backend, so
        staging it would only waste backend bytes and simulated disk
        service."""
        disk, pages = self.make_disk()
        scheduler = disk.enable_prefetch()
        disk.read(pages[0])  # now buffer-resident
        assert scheduler.request([pages[0], pages[1]]) == 1
        assert scheduler.staged_pages == [pages[1]]
        disk.read(pages[0])  # served from the decoded cache
        assert disk.storage_stats().prefetch_hits == 0

    def test_free_invalidates_staged_pages(self):
        """A freed id's staged record must never resurface as the content
        of the recycled id (mirrors the decoded-cache guard in free)."""
        disk, pages = self.make_disk()
        scheduler = disk.enable_prefetch()
        scheduler.request([pages[0]])
        disk.free(pages[0])
        assert pages[0] not in scheduler.staged_pages
        assert disk.storage_stats().prefetch_wasted == 1
        recycled = disk.allocate("T", {"fresh": True})
        assert recycled == pages[0]  # freed ids are recycled
        disk.buffer.clear()
        assert disk.read(recycled) == {"fresh": True}

    def test_failed_staged_fetch_charges_one_service(self):
        """A staged fetch that falls back to the synchronous path reuses
        the service slot queued at request time instead of occupying the
        simulated disk twice for one page."""
        store = fill_store(MemoryPageStore())
        clock = SimulatedClock()
        scheduler = PrefetchScheduler(store, latency=LATENCY, clock=clock)
        scheduler.request([999])  # staged, but the store has no page 999
        store.write_page(999, "T", {"late": True}, 64)
        record = scheduler.fetch(999)  # async batch yields nothing -> sync
        assert record.payload == {"late": True}
        assert scheduler.stats.stall_time == pytest.approx(LATENCY)
        assert clock.now() == pytest.approx(LATENCY)

    def test_close_drains_the_scheduler(self):
        disk, pages = self.make_disk()
        scheduler = disk.enable_prefetch()
        scheduler.request(pages[:2])
        disk.close()
        assert disk.storage_stats().prefetch_wasted == 2


class TestLeafBatchPlannerWaste:
    """Regression: the serial ``next_batch`` leaf planner must not strand
    speculation at the end of the traversal.

    Each leaf's plan is the leaf's own page plus a speculative candidate
    set; mid-traversal, candidates the filter pruned are re-requested (and
    consumed) by later batches, but the *final* planned batch has no
    successor — its unread speculation used to sit in the staging area
    until drain and show up as ``prefetch_wasted``.  The planner now
    issues only the certainly-read leaf page with the final plan, so on a
    fig8-shaped workload every prefetched page is consumed.
    """

    def test_fig8_shaped_run_wastes_no_prefetched_pages(self):
        from repro.datasets.synthetic import uniform_points
        from repro.experiments.drivers.common import run_cij

        result = run_cij(
            "nm",
            uniform_points(400, seed=8),
            uniform_points(400, seed=18),
            storage="file",
            prefetch="next_batch",
        )
        stats = result.storage
        assert stats.pages_prefetched > 0
        assert stats.prefetch_wasted == 0
        assert stats.prefetch_hits == stats.pages_prefetched


from repro.engine.algorithms import JoinAlgorithm


class _FailingPrepare(JoinAlgorithm):
    """A materialising algorithm whose MAT phase dies after staging pages.

    Mimics FM's prepare — which reads (and with prefetch attached, stages)
    pages before the executor ever starts — so an exception here exercises
    the drain on the engine's MAT error path.
    """

    name = "failing-prepare"
    display_name = "FAILING-PREPARE"
    materialises = True
    supports_sharding = False
    supports_handoff = False

    def __init__(self):
        self.staged = 0

    def prepare(self, ctx):
        scheduler = ctx.disk.prefetcher
        assert scheduler is not None, "engine.run must attach prefetch first"
        self.staged = scheduler.request(ctx.disk.store.page_ids()[:6])
        assert self.staged > 0
        raise RuntimeError("injected MAT failure")


def _make_failing_nm(fail_on_call):
    from repro.engine.algorithms import NMJoin

    class _FailingNM(NMJoin):
        """NM whose unit pipeline dies on its ``fail_on_call``-th shard."""

        calls = 0

        def process_units(self, ctx, units):
            type(self).calls += 1
            if type(self).calls == fail_on_call:
                for _ in zip(units, range(1)):
                    pass  # consume one unit: the failure is mid-stream
                raise RuntimeError("injected shard failure")
            return super().process_units(ctx, units)

    return _FailingNM()


class TestErrorPathCleanup:
    """A run that dies mid-flight must leave the disk as a finished run
    would: nothing staged (unconsumed speculation charged as wasted), the
    buffer rewound, and the backend's private prefetch handles closed once
    the disk closes — regressions here only surface as fd exhaustion and
    cross-run counter corruption in a long-running server."""

    def _workload(self, tmp_path, storage):
        from repro.datasets.workload import WorkloadConfig, build_workload

        path = str(tmp_path / f"pages.{storage}") if storage != "memory" else None
        return build_workload(
            WorkloadConfig(n_p=120, n_q=120, seed=9, storage=storage, storage_path=path)
        )

    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_mat_phase_failure_still_drains(self, storage, tmp_path):
        from repro.engine import JoinEngine

        workload = self._workload(tmp_path, storage)
        with workload:
            engine = JoinEngine()
            algorithm = _FailingPrepare()
            with pytest.raises(RuntimeError, match="injected MAT"):
                engine.run(
                    algorithm,
                    workload.tree_p,
                    workload.tree_q,
                    prefetch="next_batch",
                )
            scheduler = workload.disk.prefetcher
            assert scheduler is not None
            assert scheduler.staged_pages == []
            assert workload.disk.storage_stats().prefetch_wasted == algorithm.staged

    @pytest.mark.parametrize("storage", ["file", "sqlite"])
    def test_shard_failure_drains_and_next_run_is_clean(self, storage, tmp_path):
        from repro.engine import JoinEngine

        workload = self._workload(tmp_path, storage)
        with workload:
            engine = JoinEngine()
            # In-process shards; the second dies after staging the third's
            # pages, so speculation is in flight at the moment of failure.
            with pytest.raises(RuntimeError, match="injected shard"):
                engine.run(
                    _make_failing_nm(fail_on_call=2),
                    workload.tree_p,
                    workload.tree_q,
                    executor="sharded",
                    workers=1,
                    prefetch="next_shard",
                )
            assert workload.disk.prefetcher.staged_pages == []
            assert workload.disk.storage_stats().prefetch_wasted > 0

            # The failed run left no residue: a measured follow-up run on
            # the same disk matches a fresh workload bit for bit.
            workload.reset_measurement()
            again = engine.run("nm", workload.tree_p, workload.tree_q)
            fresh_dir = tmp_path / "fresh"
            fresh_dir.mkdir()
            fresh_workload = self._workload(fresh_dir, storage)
            with fresh_workload:
                fresh = JoinEngine().run(
                    "nm", fresh_workload.tree_p, fresh_workload.tree_q
                )
            assert again.pair_set() == fresh.pair_set()
            assert again.stats.total_page_accesses == fresh.stats.total_page_accesses

    def test_failure_then_close_releases_prefetch_worker_and_handle(self, tmp_path):
        """After a mid-run failure, closing the workload must still shut
        the ThreadedPageFetch worker down and close the store's private
        ``rb`` handle — the leak the server's crash recovery would hit."""
        from repro.engine import JoinEngine

        workload = self._workload(tmp_path, "file")
        store = workload.disk.store
        with workload:
            with pytest.raises(RuntimeError, match="injected shard"):
                JoinEngine().run(
                    _make_failing_nm(fail_on_call=1),
                    workload.tree_p,
                    workload.tree_q,
                    executor="sharded",
                    workers=1,
                    prefetch="next_shard",
                )
        assert store._async._pool is None
        assert store._prefetch_handle is None or store._prefetch_handle.closed
        assert store._file.closed
