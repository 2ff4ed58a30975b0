"""Simulated storage layer: pages, an LRU buffer and I/O accounting.

The paper's primary experimental metric is the number of R-tree page (node)
accesses under an LRU buffer sized at a percentage of the data size.  This
subpackage provides exactly that substrate:

* :class:`~repro.storage.counters.IOCounters` — read/write/hit/miss counters
  that every experiment reports,
* :class:`~repro.storage.buffer.LRUBuffer` — a page-granularity LRU cache,
* :class:`~repro.storage.disk.DiskManager` — a page store that charges one
  logical I/O per buffer miss and tracks which structure (tree) each page
  belongs to, so materialisation (MAT) and join (JOIN) costs can be broken
  down as in Figure 7,
* :mod:`~repro.storage.backends` — the pluggable byte stores behind the
  disk manager (``memory`` dict, slotted binary ``file``, ``sqlite``, and
  the ``remote`` page-server client), all inheriting one
  :class:`~repro.storage.backends.PageStore` ABC — the page operations
  plus a capability flag — and passing one conformance test suite.
  Backend selection routes through
  :func:`~repro.storage.backends.create_page_store`.
* :mod:`~repro.storage.pageserver` — the page-server process and its
  client store (imported lazily: it pulls in socket/subprocess machinery
  local backends never need).
"""

from repro.storage.backends import (
    REMOTE_BACKINGS,
    STORAGE_BACKENDS,
    STORAGE_ENV_VAR,
    FilePageStore,
    MemoryPageStore,
    PageRecord,
    PageStore,
    SQLitePageStore,
    StorageStats,
    canonical_backend,
    create_page_store,
    default_storage_backend,
)
from repro.storage.buffer import LRUBuffer
from repro.storage.counters import IOCounters
from repro.storage.disk import DiskManager, PAGE_SIZE_DEFAULT

_PAGESERVER_EXPORTS = (
    "PageServer",
    "PageServerError",
    "RemotePageStore",
    "spawn_page_server",
)


def __getattr__(name):
    # Lazy so importing repro.storage never drags in the service protocol
    # (pageserver reuses it, and repro.service imports the engine).
    if name in _PAGESERVER_EXPORTS:
        from repro.storage import pageserver

        return getattr(pageserver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LRUBuffer",
    "IOCounters",
    "DiskManager",
    "PAGE_SIZE_DEFAULT",
    "PageStore",
    "PageRecord",
    "StorageStats",
    "MemoryPageStore",
    "FilePageStore",
    "SQLitePageStore",
    "PageServer",
    "PageServerError",
    "RemotePageStore",
    "spawn_page_server",
    "canonical_backend",
    "create_page_store",
    "default_storage_backend",
    "STORAGE_BACKENDS",
    "REMOTE_BACKINGS",
    "STORAGE_ENV_VAR",
]
