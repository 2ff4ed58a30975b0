"""Tests for the simulated disk manager."""

import random

import pytest

from repro.geometry.point import Point
from repro.index.rtree import RTree
from repro.storage.backends import STORAGE_BACKENDS
from repro.storage.disk import DiskManager


class TestDiskManager:
    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            DiskManager(page_size=0)

    def test_allocate_charges_a_write(self):
        disk = DiskManager()
        disk.allocate("RP", payload={"node": 1})
        assert disk.counters.writes == 1
        assert disk.counters.by_tag == {"RP": 1}

    def test_read_returns_payload_and_charges_miss(self):
        disk = DiskManager(buffer_pages=0)
        page = disk.allocate("RP", payload="hello")
        assert disk.read(page) == "hello"
        assert disk.counters.reads == 1

    def test_buffered_read_is_free_after_first_access(self):
        disk = DiskManager(buffer_pages=4)
        page = disk.allocate("RP", payload="x")
        disk.reset_counters()
        disk.buffer.clear()
        disk.read(page)
        disk.read(page)
        assert disk.counters.reads == 1
        assert disk.counters.buffer_hits == 1
        assert disk.counters.logical_reads == 2

    def test_write_updates_payload(self):
        disk = DiskManager()
        page = disk.allocate("RP", payload=1)
        disk.write(page, payload=2)
        assert disk.peek(page) == 2
        assert disk.counters.writes == 2

    def test_peek_does_not_charge(self):
        disk = DiskManager()
        page = disk.allocate("RP", payload=3)
        disk.reset_counters()
        assert disk.peek(page) == 3
        assert disk.counters.page_accesses == 0

    def test_reading_unknown_page_raises(self):
        disk = DiskManager()
        with pytest.raises(KeyError):
            disk.read(999)

    def test_free_releases_page(self):
        disk = DiskManager()
        page = disk.allocate("RP", payload=3)
        disk.free(page)
        with pytest.raises(KeyError):
            disk.read(page)

    def test_page_count_by_tag(self):
        disk = DiskManager(page_size=512)
        disk.allocate("RP", payload=1)
        disk.allocate("RP", payload=2, size_bytes=100)
        disk.allocate("RQ", payload=3)
        assert disk.page_count() == 3
        assert disk.page_count("RP") == 2

    def test_set_buffer_fraction_sizes_relative_to_pages(self):
        disk = DiskManager()
        for _ in range(100):
            disk.allocate("RP", payload=0)
        disk.set_buffer_fraction(0.05)
        assert disk.buffer.capacity == 5
        disk.set_buffer_fraction(0.0)
        assert disk.buffer.capacity == 0

    def test_negative_buffer_fraction_rejected(self):
        with pytest.raises(ValueError):
            DiskManager().set_buffer_fraction(-0.1)

    def test_suspend_io_accounting(self):
        disk = DiskManager()
        with disk.suspend_io_accounting():
            page = disk.allocate("RP", payload="quiet")
            disk.read(page)
        assert disk.counters.page_accesses == 0
        disk.read(page)
        assert disk.counters.page_accesses == 1

    def test_suspension_nests_and_restores(self):
        disk = DiskManager()
        with disk.suspend_io_accounting():
            with disk.suspend_io_accounting():
                disk.allocate("RP", payload=1)
            disk.allocate("RP", payload=2)
        assert disk.counters.page_accesses == 0
        disk.allocate("RP", payload=3)
        assert disk.counters.page_accesses == 1

    def test_resize_buffer_delegates(self):
        disk = DiskManager(buffer_pages=2)
        disk.resize_buffer(10)
        assert disk.buffer.capacity == 10

    def test_freed_page_id_is_recycled(self):
        disk = DiskManager()
        first = disk.allocate("RP", "a")
        second = disk.allocate("RP", "b")
        disk.free(first)
        assert disk.allocate("RP", "c") == first  # recycled
        assert disk.allocate("RP", "d") == second + 1  # counter resumes

    def test_free_evicts_page_from_buffer(self):
        # Regression: without eviction, a recycled id inherits the freed
        # page's buffer residency and its first read phantom-hits.
        disk = DiskManager(buffer_pages=4)
        page = disk.allocate("RP", "original")
        disk.read(page)
        assert page in disk.buffer
        disk.free(page)
        assert page not in disk.buffer

    def test_storage_stats_reports_memory_backend(self):
        disk = DiskManager()
        disk.allocate("RP", "x")
        stats = disk.storage_stats()
        assert stats.backend == "memory" == disk.storage_backend
        assert stats.pages == 1
        assert stats.bytes_read == 0 and stats.bytes_written == 0


@pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
class TestFreedIdRecycling:
    """Delete-heavy streams recycle page ids aggressively; a recycled id
    must never resurrect the freed page's decoded payload from the cache
    (which would silently serve stale bytes on the serializing backends)."""

    @pytest.fixture
    def disk(self, backend):
        manager = DiskManager(buffer_pages=4, storage=backend)
        yield manager
        manager.close()

    def test_recycled_id_serves_the_new_payload(self, disk):
        page = disk.allocate("RP", Point(1.0, 2.0))
        assert disk.read(page) == Point(1.0, 2.0)  # decode now cached
        disk.free(page)
        recycled = disk.allocate("RP", Point(9.0, 9.0))
        assert recycled == page
        assert disk.read(recycled) == Point(9.0, 9.0)
        disk.buffer.clear()
        # Off-cache read goes to the backend: the bytes match too.
        assert disk.read(recycled) == Point(9.0, 9.0)

    def test_free_under_suspended_accounting_still_purges_the_decode(self, disk):
        page = disk.allocate("RP", Point(1.0, 2.0))
        disk.read(page)
        with disk.suspend_io_accounting():
            disk.free(page)
            recycled = disk.allocate("RP", Point(3.0, 4.0))
        assert recycled == page
        # The suspended allocate must not inherit buffer residency (a stale
        # decode would otherwise phantom-hit here instead of re-reading).
        assert disk.read(recycled) == Point(3.0, 4.0)

    def test_freed_page_read_fails_even_when_it_was_cached(self, disk):
        page = disk.allocate("RP", Point(5.0, 6.0))
        disk.read(page)  # resident + decoded
        disk.free(page)
        with pytest.raises(KeyError):
            disk.read(page)
        with pytest.raises(KeyError):
            disk.peek(page)

    def test_delete_heavy_rtree_stream_never_decodes_stale_nodes(self, backend):
        """End-to-end pin: condense-tree frees pages, later inserts recycle
        the ids for brand-new nodes, and every read must decode the new
        node — across all backends, through the buffer and around it."""
        with DiskManager(buffer_pages=6, storage=backend) as disk:
            tree = RTree(disk, "RP", page_size=256)
            rng = random.Random(99)
            live = {}
            next_oid = 0
            for _ in range(120):
                point = Point(
                    round(rng.uniform(0, 10_000), 3), round(rng.uniform(0, 10_000), 3)
                )
                tree.insert_point(next_oid, point)
                live[next_oid] = point
                next_oid += 1
            for _ in range(200):
                if live and rng.random() < 0.55:
                    oid = rng.choice(sorted(live))
                    assert tree.delete_point(oid, live.pop(oid))
                else:
                    point = Point(
                        round(rng.uniform(0, 10_000), 3),
                        round(rng.uniform(0, 10_000), 3),
                    )
                    tree.insert_point(next_oid, point)
                    live[next_oid] = point
                    next_oid += 1
            tree.check_invariants(enforce_min_fill=True)
            stored = {(e.oid, e.payload.x, e.payload.y) for e in tree.all_leaf_entries()}
            assert stored == {(o, p.x, p.y) for o, p in live.items()}
            # A cold re-read straight off the backend agrees as well.
            disk.buffer.clear()
            cold = {(e.oid, e.payload.x, e.payload.y) for e in tree.all_leaf_entries()}
            assert cold == stored
