"""Simulated disk: a page store with buffer-aware I/O accounting.

All R-trees in this library store their nodes through a shared
:class:`DiskManager`.  Reading a node charges one physical page access when
the page is not in the LRU buffer; writing a node (materialising a Voronoi
R-tree, splitting a node) always charges a write, as in the paper's cost
model where tree construction cost "is exactly the cost of writing the nodes
of R'_P to disk".

The bytes behind those accesses live in a pluggable
:class:`~repro.storage.backends.PageStore`: the default in-memory dict, a
slotted binary file, or an SQLite database (see
:mod:`repro.storage.backends`).  The disk manager keeps decoded payloads
cached for exactly the pages resident in the LRU buffer, so with a
serializing backend a buffer miss really moves bytes while a buffer hit is
served from memory — the hit/miss accounting is identical across backends.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.storage.backends import (
    PageRecord,
    PageStore,
    StorageStats,
    create_page_store,
)
from repro.storage.buffer import LRUBuffer
from repro.storage.counters import IOCounters

#: Default page size in bytes (the paper uses 1 KB pages).
PAGE_SIZE_DEFAULT = 1024


class DiskManager:
    """A page store shared by every index participating in an experiment.

    Parameters
    ----------
    page_size:
        Page capacity in bytes; only used to derive index fanouts and to
        translate buffer percentages into page counts.
    buffer_pages:
        Capacity of the LRU buffer in pages.  May be resized later with
        :meth:`resize_buffer` (Figure 8a sweeps this).
    storage, storage_path:
        The page store's backend name (``"memory" | "file" | "sqlite" |
        "remote"``, default ``"memory"``) and the backing path — for the
        remote backend the page server's ``HOST:PORT`` address — (``None``
        = owned temporary file / spawned server).  Opening a non-empty
        store (a reopened file or database) resumes page-id allocation
        above the highest stored id.

    Every physical fetch is the store's synchronous ``read_page``.
    """

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        buffer_pages: int = 0,
        storage: Optional[str] = None,
        storage_path: Optional[str] = None,
    ):
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.counters = IOCounters()
        self.store: PageStore = create_page_store(
            storage if storage is not None else "memory", storage_path
        )
        #: Decoded payloads for the pages currently held by the LRU buffer.
        self._cache: Dict[int, PageRecord] = {}
        self.buffer = LRUBuffer(buffer_pages, on_evict=self._evict_cached)
        existing = self.store.page_ids()
        self._next_id = itertools.count(max(existing, default=0) + 1)
        self._free_ids: List[int] = []
        self._io_enabled = True

    # ------------------------------------------------------------------
    # page lifecycle
    # ------------------------------------------------------------------
    def allocate(self, tag: str, payload: Any, size_bytes: Optional[int] = None) -> int:
        """Allocate a new page and charge the write that persists it.

        Freed page ids are recycled before the id counter advances.
        """
        page_id = self._free_ids.pop() if self._free_ids else next(self._next_id)
        size = size_bytes if size_bytes is not None else self.page_size
        self.store.write_page(page_id, tag, payload, size)
        if self._io_enabled:
            self.counters.record_write(tag)
            self.buffer.access(page_id)
            self._cache_if_buffered(page_id, PageRecord(tag, payload, size))
        return page_id

    def write(self, page_id: int, payload: Any, size_bytes: Optional[int] = None) -> None:
        """Overwrite an existing page (charged as one physical write)."""
        cached = self._cache.get(page_id)
        if cached is not None:
            tag, current_size = cached.tag, cached.size_bytes
        else:
            tag, current_size = self.store.page_meta(page_id)
        size = size_bytes if size_bytes is not None else current_size
        self.store.write_page(page_id, tag, payload, size)
        record = PageRecord(tag, payload, size)
        if self._io_enabled:
            self.counters.record_write(tag)
            self.buffer.access(page_id)
            self._cache_if_buffered(page_id, record)
        elif page_id in self._cache:
            # Keep a buffered page coherent even while accounting is off.
            self._cache[page_id] = record

    def read(self, page_id: int) -> Any:
        """Read a page through the buffer, charging a miss as physical I/O.

        Buffer hits are served from the decoded-payload cache; misses go to
        the backend (which, for the file and SQLite stores, moves real
        bytes) and the page is then cached for as long as it stays in the
        buffer.
        """
        record = self._cache.get(page_id)
        if record is None:
            record = self.store.read_page(page_id)
        if self._io_enabled:
            hit = self.buffer.access(page_id)
            self.counters.record_read(record.tag, hit)
            self._cache_if_buffered(page_id, record)
        return record.payload

    def peek(self, page_id: int) -> Any:
        """Read a page's payload without touching the buffer or counters.

        Used by test oracles and by maintenance operations whose cost the
        paper does not attribute to the measured algorithm.
        """
        return self._record(page_id).payload

    def free(self, page_id: int) -> None:
        """Release a page (no I/O charge; deallocation is metadata-only).

        The page id is also evicted from the buffer and recycled for later
        allocations — a stale buffer entry would otherwise let a recycled
        id produce a phantom hit for a page that was never read.  The
        decoded-payload cache entry is popped directly as a belt-and-braces
        guard: today the buffer's eviction hook already covers it (the
        cache only holds buffer-resident pages), but delete-heavy streams
        recycle ids aggressively and a future path that breaks the
        cache⊆buffer invariant (e.g. around ``restore_buffer_state``) must
        not let a recycled id resurrect the freed page's decode.
        """
        if self.store.free_page(page_id):
            self._free_ids.append(page_id)
        self.buffer.invalidate(page_id)
        self._cache.pop(page_id, None)

    # ------------------------------------------------------------------
    # introspection and control
    # ------------------------------------------------------------------
    def page_count(self, tag: Optional[str] = None) -> int:
        """Number of allocated pages, optionally restricted to one tag."""
        return self.store.page_count(tag)

    @property
    def storage_backend(self) -> str:
        """Name of the page-store backend (``memory``/``file``/``sqlite``/``remote``)."""
        return self.store.name

    def storage_stats(self) -> StorageStats:
        """Physical byte movement of the backend (zero for ``memory``).

        Units run by worker processes count their bytes there; merging a
        unit adds its delta to this disk's store, so the totals cover the
        whole run on every executor.
        """
        return self.store.stats()

    def resize_buffer(self, buffer_pages: int) -> None:
        """Resize the LRU buffer (contents are kept up to the new capacity)."""
        self.buffer.resize(buffer_pages)

    def set_buffer_fraction(self, fraction: float) -> None:
        """Size the buffer as a fraction of the currently stored data size.

        This mirrors the paper's "buffer size set to x% of the data size on
        disk".  A fraction of zero disables the buffer entirely.
        """
        if fraction < 0.0:
            raise ValueError("buffer fraction must be non-negative")
        pages = int(round(self.page_count() * fraction))
        self.buffer.resize(pages)
        self.buffer.clear()

    def suspend_io_accounting(self) -> "_IOAccountingSuspension":
        """Context manager that disables I/O charging while active.

        Ground-truth oracles (brute-force CIJ) and dataset preparation use
        this so their accesses do not pollute the measured counters.
        """
        return _IOAccountingSuspension(self)

    def reset_counters(self) -> None:
        """Zero the I/O counters without touching pages or the buffer."""
        self.counters.reset()

    def buffer_state(self):
        """Opaque snapshot of buffer residency plus the decoded-page cache.

        Together with :meth:`restore_buffer_state` this lets a fork worker
        start every unit it pulls from the buffer it inherited (the
        parent's state at dispatch time), instead of leaking one unit's
        warm pages into the next.
        """
        return (self.buffer.contents(), dict(self._cache))

    def restore_buffer_state(self, state) -> None:
        """Rewind buffer residency and the decoded-page cache to ``state``."""
        pages, cache = state
        self.buffer.restore(list(pages))
        self._cache = dict(cache)

    def reopen_for_worker(self) -> None:
        """Give a forked worker its own read-only backend handles.

        File descriptors and database connections inherited through
        ``fork`` share state with the parent (file offsets, SQLite's
        no-fork rule); the join phase only reads, so each worker swaps in
        a private read-only view.  The in-memory backend is a no-op.
        """
        self.store.reopen_in_worker()

    def close(self) -> None:
        """Release backend resources (temporary files are deleted)."""
        self._cache.clear()
        self.store.close()

    def __enter__(self) -> "DiskManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _record(self, page_id: int) -> PageRecord:
        """Uncounted page lookup for :meth:`peek`: maintenance and oracle
        access stays out of both the I/O counters and ``storage_stats``."""
        record = self._cache.get(page_id)
        if record is not None:
            return record
        return self.store.read_page(page_id, count=False)

    def _cache_if_buffered(self, page_id: int, record: PageRecord) -> None:
        if page_id in self.buffer:
            self._cache[page_id] = record

    def _evict_cached(self, page_id: int) -> None:
        self._cache.pop(page_id, None)


class _IOAccountingSuspension:
    """Context manager toggling a DiskManager's I/O accounting off and on."""

    def __init__(self, disk: DiskManager):
        self._disk = disk
        self._previous = True

    def __enter__(self) -> DiskManager:
        self._previous = self._disk._io_enabled
        self._disk._io_enabled = False
        return self._disk

    def __exit__(self, exc_type, exc, tb) -> None:
        self._disk._io_enabled = self._previous
