"""Every physical page fetch is the store's synchronous ``read_page``.

The paper's cost model charges each page access as it happens.  The
storage layer honours that literally: a buffer miss in
:meth:`~repro.storage.disk.DiskManager.read` is exactly one counted
``read_page`` call on the backend, made by the calling thread, and a
buffer hit never reaches the backend.  These tests wrap each backend's
``read_page`` and drive every consumer of the disk — the three CIJ
algorithms serially and through in-process shards, window queries and
nearest-neighbour search — checking that the counted calls and the
paper's physical reads agree one for one, on every backend.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import asdict

import pytest

from repro.datasets.synthetic import uniform_points
from repro.engine import default_engine
from repro.experiments.drivers.common import fresh_workload
from repro.geometry.rect import Rect
from repro.query.nearest import k_nearest_neighbors
from repro.storage.backends import STORAGE_BACKENDS

POINTS_P = uniform_points(240, seed=3)
POINTS_Q = uniform_points(210, seed=11)

#: Backends that serialize pages, so a physical read moves real bytes.
SERIALIZING_BACKENDS = ("file", "sqlite", "remote")


def _join(algorithm, **overrides):
    def run(workload):
        default_engine().run(
            algorithm,
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            **overrides,
        )

    return run


def _windows(workload):
    for step in range(5):
        low = 1000.0 * step
        workload.tree_p.range_search(Rect(low, low, low + 3000.0, low + 3000.0))


def _nearest(workload):
    for point in workload.points_q[:20]:
        k_nearest_neighbors(workload.tree_p, point, 3)


#: Every disk consumer, by name: joins serial and through in-process
#: shards (one worker runs each unit in this process, so its fetches are
#: observable here), plus the query layer.
OPERATIONS = {
    "nm": _join("nm"),
    "pm": _join("pm"),
    "fm": _join("fm"),
    "nm-inline-shards": _join("nm", executor="sharded", workers=1),
    "pm-inline-shards": _join("pm", executor="sharded", workers=1),
    "fm-inline-shards": _join("fm", executor="sharded", workers=1),
    "window": _windows,
    "nearest": _nearest,
}


@functools.lru_cache(maxsize=None)
def traced_run(backend: str, operation: str):
    """Run ``operation`` on a fresh workload, recording every ``read_page``.

    Returns ``(calls, physical_reads, bytes_read)``: one ``(count, thread)``
    tuple per backend call, and the run's deltas of the disk's physical
    read counter and of the backend's ``bytes_read``.  Runs are
    deterministic, so each ``(backend, operation)`` pair is traced once
    and shared by the tests below.
    """
    workload = fresh_workload(POINTS_P, POINTS_Q, storage=backend)
    try:
        store = workload.disk.store
        calls = []
        read_page = store.read_page

        def recording_read_page(page_id, count=True):
            calls.append((count, threading.get_ident()))
            return read_page(page_id, count=count)

        store.read_page = recording_read_page
        reads_before = workload.disk.counters.reads
        bytes_before = workload.disk.storage_stats().bytes_read
        OPERATIONS[operation](workload)
        return (
            tuple(calls),
            workload.disk.counters.reads - reads_before,
            workload.disk.storage_stats().bytes_read - bytes_before,
        )
    finally:
        workload.close()


class TestSynchronousReadPath:
    @pytest.mark.parametrize("operation", list(OPERATIONS))
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_every_physical_read_is_one_read_page_call(self, backend, operation):
        calls, physical_reads, _ = traced_run(backend, operation)
        counted = [call for call in calls if call[0]]
        assert physical_reads > 0
        # One counted backend call per buffer miss: no speculative fetch,
        # no batched read, no hit that reaches the store.
        assert len(counted) == physical_reads
        # Every call is made by the thread that asked for the page.
        assert {thread for _, thread in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("operation", list(OPERATIONS))
    def test_bytes_moved_identical_across_serializing_backends(self, operation):
        """The bytes a run moves depend only on which pages missed the
        buffer, so every serializing backend reports the same total and
        the in-memory backend reports none."""
        moved = {
            backend: traced_run(backend, operation)[2]
            for backend in SERIALIZING_BACKENDS
        }
        assert len(set(moved.values())) == 1, moved
        assert moved["file"] > 0
        assert traced_run("memory", operation)[2] == 0


class TestNoAsynchronousFetchSurface:
    """The overlapped-I/O tier is gone from the stores and the disk."""

    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_store_and_disk_expose_only_synchronous_reads(self, backend):
        workload = fresh_workload(POINTS_P[:40], POINTS_Q[:40], storage=backend)
        try:
            store, disk = workload.disk.store, workload.disk
            for name in ("fetch_async", "supports_async"):
                assert not hasattr(store, name), name
            for name in ("enable_prefetch", "drain_prefetch", "prefetcher"):
                assert not hasattr(disk, name), name
        finally:
            workload.close()

    @pytest.mark.parametrize(
        "field",
        [
            "bytes_prefetched",
            "pages_prefetched",
            "prefetch_hits",
            "prefetch_wasted",
            "sync_fetches",
            "stall_time",
            "overlap_time",
        ],
    )
    def test_storage_stats_carry_no_prefetch_field(self, field):
        workload = fresh_workload(POINTS_P[:40], POINTS_Q[:40], storage="file")
        try:
            _join("nm")(workload)
            stats = workload.disk.storage_stats()
        finally:
            workload.close()
        assert stats.bytes_read > 0
        assert field not in asdict(stats)
        assert field not in stats.extra
