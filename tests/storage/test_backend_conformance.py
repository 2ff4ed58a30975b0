"""Backend-conformance suite: every PageStore behaves like the memory one.

One parametrized fixture runs the same scenarios over the memory, file,
SQLite and remote (page-server) backends: page round-trips, freeing, LRU
hit/miss accounting, buffer resizing and counter totals must be
indistinguishable across backends — only the physical byte movement
(``storage_stats``) may differ.
"""

from __future__ import annotations

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.entries import BranchEntry, LeafEntry, Node
from repro.storage.backends import (
    DEFAULT_SLOT_SIZE,
    STORAGE_BACKENDS,
    FilePageStore,
    PageStore,
    SQLitePageStore,
    create_page_store,
)
from repro.storage.disk import DiskManager
from repro.voronoi.cell import VoronoiCell

BACKENDS = list(STORAGE_BACKENDS)


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


@pytest.fixture
def disk(backend) -> DiskManager:
    manager = DiskManager(buffer_pages=4, storage=backend)
    yield manager
    manager.close()


def make_leaf_node() -> Node:
    return Node(
        0,
        [
            LeafEntry.for_point(7, Point(1.5, 2.25)),
            LeafEntry.for_point(9, Point(4.0, 8.0)),
        ],
    )


def make_branch_node() -> Node:
    return Node(1, [BranchEntry(Rect(0.0, 0.0, 10.0, 10.0), 42)])


def make_cell_node() -> Node:
    polygon = ConvexPolygon(
        [Point(0.0, 0.0), Point(4.0, 0.0), Point(4.0, 3.0), Point(0.0, 3.0)]
    )
    cell = VoronoiCell(3, Point(2.0, 1.5), polygon)
    return Node(0, [LeafEntry.for_cell(3, cell.mbr(), cell, cell.vertex_count())])


class TestRoundTrips:
    def test_plain_payload_round_trip(self, disk):
        page = disk.allocate("RP", {"k": [1, 2, 3]}, size_bytes=64)
        disk.buffer.clear()
        assert disk.read(page) == {"k": [1, 2, 3]}
        assert disk.peek(page) == {"k": [1, 2, 3]}

    def test_point_node_round_trip(self, disk):
        page = disk.allocate("RP", make_leaf_node())
        disk.buffer.clear()
        node = disk.read(page)
        assert node.level == 0
        assert [e.oid for e in node.entries] == [7, 9]
        assert node.entries[0].payload == Point(1.5, 2.25)
        assert node.entries[0].mbr == Rect.from_point(Point(1.5, 2.25))
        assert node.entries[0].size_bytes == 20

    def test_branch_node_round_trip(self, disk):
        page = disk.allocate("RP", make_branch_node())
        disk.buffer.clear()
        node = disk.read(page)
        assert node.level == 1
        assert node.entries[0].child_page == 42
        assert node.entries[0].mbr == Rect(0.0, 0.0, 10.0, 10.0)

    def test_voronoi_cell_node_round_trip(self, disk):
        page = disk.allocate("RP_vor", make_cell_node())
        disk.buffer.clear()
        cell = disk.read(page).entries[0].payload
        assert cell.oid == 3
        assert cell.site == Point(2.0, 1.5)
        assert cell.polygon.vertices == (
            Point(0.0, 0.0),
            Point(4.0, 0.0),
            Point(4.0, 3.0),
            Point(0.0, 3.0),
        )
        assert cell.area() == pytest.approx(12.0)

    def test_overwrite_replaces_payload(self, disk):
        page = disk.allocate("RP", "before")
        disk.write(page, "after")
        disk.buffer.clear()
        assert disk.read(page) == "after"

    def test_write_preserves_tag_and_size(self, disk):
        page = disk.allocate("RQ", "x", size_bytes=77)
        disk.write(page, "y")
        assert disk.data_size_bytes("RQ") == 77
        disk.reset_counters()
        disk.buffer.clear()
        disk.read(page)
        assert disk.counters.by_tag == {"RQ": 1}

    def test_unknown_page_raises_keyerror(self, disk):
        with pytest.raises(KeyError):
            disk.read(999)
        with pytest.raises(KeyError):
            disk.write(999, "nope")
        with pytest.raises(KeyError):
            disk.peek(999)

    def test_free_releases_page(self, disk):
        page = disk.allocate("RP", 1)
        disk.free(page)
        with pytest.raises(KeyError):
            disk.read(page)
        assert disk.page_count() == 0

    def test_page_count_and_data_size_by_tag(self, disk):
        disk.allocate("RP", 1)
        disk.allocate("RP", 2, size_bytes=100)
        disk.allocate("RQ", 3)
        assert disk.page_count() == 3
        assert disk.page_count("RP") == 2
        assert disk.data_size_bytes("RP") == disk.page_size + 100
        assert disk.data_size_bytes("RQ") == disk.page_size


class TestAccountingParity:
    """The same access script yields the same counters on every backend."""

    @staticmethod
    def _run_script(backend: str):
        disk = DiskManager(buffer_pages=2, storage=backend)
        try:
            pages = [disk.allocate("RP", {"page": i}) for i in range(4)]
            disk.reset_counters()
            disk.buffer.clear()
            for page in pages:  # all cold: 4 misses
                disk.read(page)
            disk.read(pages[3])  # hit
            disk.read(pages[2])  # hit
            disk.read(pages[0])  # miss (evicted), evicts 3
            disk.read(pages[3])  # miss again
            with disk.suspend_io_accounting():
                disk.read(pages[1])  # uncharged
            disk.write(pages[1], {"page": "new"})
            disk.resize_buffer(1)
            disk.read(pages[1])  # buffer kept MRU page 1: hit
            disk.read(pages[2])  # miss
            counters = disk.counters.snapshot()
            return (
                counters.reads,
                counters.writes,
                counters.logical_reads,
                counters.buffer_hits,
                dict(counters.by_tag),
            )
        finally:
            disk.close()

    def test_counters_identical_across_backends(self):
        reference = self._run_script("memory")
        for backend_name in BACKENDS[1:]:
            assert self._run_script(backend_name) == reference, backend_name

    def test_buffered_read_hits_do_not_touch_backend(self, backend):
        disk = DiskManager(buffer_pages=4, storage=backend)
        try:
            page = disk.allocate("RP", make_leaf_node())
            disk.buffer.clear()
            disk.read(page)  # miss: moves bytes on serializing backends
            read_after_miss = disk.storage_stats().bytes_read
            disk.read(page)
            disk.read(page)
            assert disk.storage_stats().bytes_read == read_after_miss
            assert disk.counters.buffer_hits == 2
            if backend != "memory":
                assert read_after_miss > 0
        finally:
            disk.close()

    def test_bufferless_reads_always_move_bytes(self, backend):
        disk = DiskManager(buffer_pages=0, storage=backend)
        try:
            page = disk.allocate("RP", make_leaf_node())
            disk.read(page)
            first = disk.storage_stats().bytes_read
            disk.read(page)
            second = disk.storage_stats().bytes_read
            assert disk.counters.reads == 2
            assert disk.counters.buffer_hits == 0
            if backend == "memory":
                assert second == 0
            else:
                assert first > 0
                assert second == 2 * first  # every miss re-reads the bytes
        finally:
            disk.close()

    def test_peek_moves_no_counted_bytes(self, backend):
        disk = DiskManager(buffer_pages=0, storage=backend)
        try:
            page = disk.allocate("RP", make_leaf_node())
            disk.reset_counters()
            disk.peek(page)
            disk.peek(page)
            assert disk.counters.page_accesses == 0
            # Oracle/maintenance access stays out of storage_stats too, so
            # bytes_read keeps meaning "bytes pulled by buffer misses".
            assert disk.storage_stats().bytes_read == 0
        finally:
            disk.close()

    def test_set_buffer_fraction_matches_memory_semantics(self, backend):
        disk = DiskManager(storage=backend)
        try:
            for _ in range(100):
                disk.allocate("RP", 0)
            disk.set_buffer_fraction(0.05)
            assert disk.buffer.capacity == 5
            disk.set_buffer_fraction(0.0)
            assert disk.buffer.capacity == 0
        finally:
            disk.close()


class TestFreedPageRecycling:
    """Freeing must evict the page id from the buffer: a recycled id would
    otherwise inherit the dead page's residency and report a phantom hit."""

    def test_recycled_id_does_not_phantom_hit(self, backend):
        disk = DiskManager(buffer_pages=4, storage=backend)
        try:
            page = disk.allocate("RP", "original")
            disk.read(page)  # resident in the buffer
            disk.free(page)
            with disk.suspend_io_accounting():
                recycled = disk.allocate("RP", "recycled")
            assert recycled == page  # the id was recycled
            disk.reset_counters()
            disk.read(recycled)
            assert disk.counters.buffer_hits == 0  # must miss: never admitted
            assert disk.counters.reads == 1
            assert disk.read(recycled) == "recycled"
        finally:
            disk.close()

    def test_free_then_read_raises_even_if_buffered(self, backend):
        disk = DiskManager(buffer_pages=4, storage=backend)
        try:
            page = disk.allocate("RP", "x")
            disk.read(page)
            disk.free(page)
            with pytest.raises(KeyError):
                disk.read(page)
        finally:
            disk.close()


class TestPersistenceAcrossReopen:
    """File and SQLite stores survive a close/reopen cycle; page-id
    allocation resumes above the highest stored id."""

    @pytest.mark.parametrize("backend_name", ["file", "sqlite"])
    def test_reopen_sees_all_pages(self, backend_name, tmp_path):
        path = str(tmp_path / f"pages-{backend_name}")
        disk = DiskManager(storage=backend_name, storage_path=path)
        ids = [disk.allocate("RP", {"i": i}) for i in range(5)]
        node_page = disk.allocate("RQ", make_leaf_node())
        disk.free(ids[2])
        disk.store.close()

        reopened = DiskManager(storage=backend_name, storage_path=path)
        try:
            assert sorted(reopened.store.page_ids()) == sorted(
                [i for i in ids if i != ids[2]] + [node_page]
            )
            assert reopened.read(ids[0]) == {"i": 0}
            node = reopened.read(node_page)
            assert [e.oid for e in node.entries] == [7, 9]
            assert reopened.page_count("RP") == 4
            fresh = reopened.allocate("RP", "fresh")
            assert fresh > max(ids + [node_page])
        finally:
            reopened.close()

    def test_sqlite_is_readable_by_a_second_connection(self, tmp_path):
        path = str(tmp_path / "pages.sqlite")
        writer = SQLitePageStore(path)
        writer.write_page(1, "RP", {"shared": True}, 1024)
        reader = SQLitePageStore(path)
        reader.reopen_in_worker()  # read-only second connection
        try:
            assert reader.read_page(1).payload == {"shared": True}
            with pytest.raises(RuntimeError):
                reader.write_page(2, "RP", "nope", 1024)
        finally:
            reader.close()
            writer.close()


class TestFileStoreSpecifics:
    def test_payload_larger_than_slot_triggers_rebuild(self, tmp_path):
        store = FilePageStore(str(tmp_path / "grow.bin"))
        try:
            store.write_page(1, "RP", "small", 1024)
            big = "x" * (2 * DEFAULT_SLOT_SIZE)
            store.write_page(2, "RP", big, 1024)
            assert store.read_page(1).payload == "small"
            assert store.read_page(2).payload == big
            assert store.stats().extra["slot_size"] > 2 * DEFAULT_SLOT_SIZE
        finally:
            store.close()

    def test_freed_slots_are_reused(self, tmp_path):
        store = FilePageStore(str(tmp_path / "reuse.bin"))
        try:
            for i in range(8):
                store.write_page(i, "RP", f"p{i}", 1024)
            file_bytes = store.stats().file_bytes
            for i in range(8):
                store.free_page(i)
            for i in range(8):
                store.write_page(100 + i, "RP", f"n{i}", 1024)
            assert store.stats().file_bytes == file_bytes
        finally:
            store.close()

    def test_one_read_path_without_mmap_option(self, tmp_path):
        """The file store has one read path, seek/read, and takes no
        option to pick another."""
        with pytest.raises(TypeError):
            FilePageStore(str(tmp_path / "mapped.bin"), use_mmap=True)

    def test_memory_backend_rejects_storage_path(self):
        with pytest.raises(ValueError, match="storage_path requires"):
            create_page_store("memory", "/tmp/nonsense.bin")
        with pytest.raises(ValueError, match="storage_path requires"):
            DiskManager(storage_path="/tmp/nonsense.bin")  # default backend

    def test_owned_temp_file_removed_on_close(self):
        store = FilePageStore()
        path = store.path
        store.write_page(1, "RP", "x", 1024)
        import os

        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)


class TestCapabilityContract:
    """Every backend inherits the PageStore contract and states its
    capabilities honestly (the factory and executors gate on these flags,
    never on backend-name strings)."""

    EXPECTED_FLAGS = {
        # backend: supports_worker_reopen
        "memory": True,
        "file": True,
        "sqlite": True,
        "remote": True,
    }

    def test_every_backend_satisfies_the_protocol(self, backend):
        store = create_page_store(backend)
        try:
            assert isinstance(store, PageStore)
            assert store.name == backend
            assert store.supports_worker_reopen == self.EXPECTED_FLAGS[backend]
        finally:
            store.close()

    def test_worker_spec_round_trips_through_factory(self, backend):
        store = create_page_store(backend)
        try:
            if store.location is None:
                with pytest.raises(ValueError, match="no shareable location"):
                    store.worker_spec()
                return
            spec = store.worker_spec()
            assert spec["backend"] == backend
            store.write_page(1, "RP", {"shared": True}, 1024)
            twin = create_page_store(spec["backend"], spec["path"])
            try:
                twin.reopen_in_worker()
                assert twin.read_page(1).payload == {"shared": True}
            finally:
                twin.close()
        finally:
            store.close()

    @pytest.mark.parametrize(
        "missing", ["page_meta", "page_count", "data_size_bytes"]
    )
    def test_metadata_methods_are_abstract(self, missing):
        """A store must define its own page metadata: the PageStore ABC
        has no default body for these methods."""
        stubs = {
            name: (lambda self, *args, **kwargs: None)
            for name in PageStore.__abstractmethods__
            if name != missing
        }
        partial = type("PartialStore", (PageStore,), stubs)
        with pytest.raises(TypeError, match=missing):
            partial()

    @pytest.mark.parametrize("name", ["carbonite", "remote+sqlite"])
    def test_factory_rejects_unknown_backends(self, name):
        with pytest.raises(ValueError, match="unknown storage backend"):
            create_page_store(name)


class TestRemotePageServer:
    """Remote-specific behaviour on top of the shared conformance runs."""

    def test_two_clients_share_one_server(self):
        from repro.storage.pageserver import RemotePageStore, spawn_page_server

        server = spawn_page_server()
        try:
            writer = RemotePageStore(address=f"{server.host}:{server.port}")
            reader = RemotePageStore(address=f"{server.host}:{server.port}")
            try:
                writer.write_page(7, "RP", {"via": "tcp"}, 1024)
                assert reader.read_page(7).payload == {"via": "tcp"}
                # Physical transport is per-client, not global.
                assert reader.stats().extra["owns_server"] is False
            finally:
                writer.close()
                reader.close()
        finally:
            server.stop()

    def test_server_killed_mid_run_fails_loudly(self):
        from repro.storage.pageserver import PageServerError, RemotePageStore

        store = RemotePageStore()
        store.write_page(1, "RP", "still there?", 1024)
        try:
            store._server.process.kill()
            store._server.process.wait(timeout=10)
            with pytest.raises(PageServerError, match="page server"):
                store.read_page(1)
        finally:
            store.close()


class TestSpawnFailureReapsTheChild:
    """A page-server child that exits or announces garbage instead of its
    address is reaped, and its stdout pipe closed, before the spawner
    raises — no zombie, no leaked descriptor."""

    @staticmethod
    def spawn_instead(monkeypatch, script: str) -> list:
        """Make every page-server child run ``script`` in place of ``-m
        repro.storage.pageserver``; returns the spawned ``Popen`` objects."""
        from repro.storage import pageserver

        spawn = pageserver.subprocess.Popen
        children = []

        def replaced(argv, **kwargs):
            at = argv.index("-m")
            argv = argv[:at] + ["-c", script] + argv[at + 2:]
            children.append(spawn(argv, **kwargs))
            return children[-1]

        monkeypatch.setattr(pageserver.subprocess, "Popen", replaced)
        return children

    @pytest.mark.parametrize(
        "script, message",
        [
            (
                "import time; print('not json', flush=True); time.sleep(60)",
                "announced garbage",
            ),
            (
                "import sys; sys.stderr.write('boom'); sys.exit(3)",
                "exited before announcing its address: boom",
            ),
        ],
        ids=["garbage", "early-exit"],
    )
    def test_failed_spawn_reaps_the_child(self, monkeypatch, script, message):
        from repro.storage.pageserver import PageServerError, spawn_page_server

        children = self.spawn_instead(monkeypatch, script)
        try:
            with pytest.raises(PageServerError, match=message):
                spawn_page_server()
            [child] = children
            assert child.returncode is not None
            assert child.stdout.closed
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
                child.stdout.close()
