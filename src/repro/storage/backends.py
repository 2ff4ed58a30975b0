"""Pluggable page-store backends for :class:`~repro.storage.disk.DiskManager`.

The disk manager owns the paper's *cost model* (LRU buffer, read/write
counters); a :class:`PageStore` owns the *bytes*.  Four backends ship:

* :class:`MemoryPageStore` — the original dict of live payload objects; the
  default, with behaviour bit-identical to the pre-backend disk manager.
* :class:`FilePageStore` — payloads serialized through the binary codecs of
  :mod:`repro.storage.codec` into fixed-size slots of a single file, read
  with plain ``seek``/``read``.
  Page updates are written to a fresh slot before the old slot is released,
  so an interrupted write can never leave a torn payload behind: on reopen
  the slot scan keeps, per page, the newest record whose checksum verifies.
* :class:`SQLitePageStore` — one ``pages`` table in an SQLite database,
  durable and readable by other processes.
* :class:`~repro.storage.pageserver.RemotePageStore` — a client for the
  NDJSON page-server process (:mod:`repro.storage.pageserver`), which owns
  a file store and serves it over TCP so workers need no shared
  filesystem at all.

The contract is one ABC, :class:`PageStore`: every backend inherits it and
implements its abstract page operations.  The capability flag
``supports_worker_reopen`` plus the ``location`` property replace the old
scattered ``hasattr``/backend-name string checks: the engine asks a store
what it can do instead of guessing from its name.

Backend selection routes through one factory, :func:`create_page_store`,
which takes the ``(backend, path)`` pair a workload is built from; the
backend is one of the four names in :data:`STORAGE_BACKENDS`.  The
``REPRO_STORAGE`` environment variable overrides the default so the whole
test tier can run against any backend (the CI matrix does exactly that).
"""

from __future__ import annotations

import abc
import io
import os
import struct
import tempfile
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Backend identifiers accepted by :func:`create_page_store`.
STORAGE_BACKENDS = ("memory", "file", "sqlite", "remote")

#: Environment variable selecting the default backend (used by CI).
STORAGE_ENV_VAR = "REPRO_STORAGE"


def canonical_backend(name: str) -> str:
    """A storage name, normalised and validated against ``STORAGE_BACKENDS``."""
    backend = name.strip().lower()
    if backend not in STORAGE_BACKENDS:
        raise ValueError(
            f"unknown storage backend {name!r}; expected one of {STORAGE_BACKENDS}"
        )
    return backend


def default_storage_backend() -> str:
    """The backend used when none is requested: ``$REPRO_STORAGE`` or memory."""
    backend = os.environ.get(STORAGE_ENV_VAR, "memory").strip().lower() or "memory"
    if backend not in STORAGE_BACKENDS:
        raise ValueError(
            f"{STORAGE_ENV_VAR}={backend!r} is not a known backend; "
            f"expected one of {STORAGE_BACKENDS}"
        )
    return backend


def create_page_store(
    backend: Optional[str] = None, path: Optional[str] = None
) -> "PageStore":
    """Instantiate a backend by name (``None`` resolves the default).

    For the remote backend, ``path`` carries the page server's
    ``HOST:PORT`` address; ``None`` spawns an owned server process that is
    shut down when the store is closed.
    """
    backend = canonical_backend(
        backend if backend is not None else default_storage_backend()
    )
    if backend == "memory":
        if path is not None:
            raise ValueError(
                "the memory backend keeps no file: storage_path requires "
                "storage='file', 'sqlite' or 'remote'"
            )
        return MemoryPageStore()
    if backend == "file":
        return FilePageStore(path)
    if backend == "sqlite":
        return SQLitePageStore(path)
    # backend == "remote": imported lazily — the page-server client pulls in
    # socket/subprocess machinery local backends never need.
    from repro.storage.pageserver import RemotePageStore

    return RemotePageStore(address=path)


@dataclass
class PageRecord:
    """One stored page as the disk manager sees it."""

    tag: str
    payload: Any
    size_bytes: int


@dataclass
class StorageStats:
    """Physical byte movement of a backend, complementing ``IOCounters``.

    ``IOCounters`` counts the paper's *logical* page accesses; these fields
    report how many real bytes the backend moved for them (always zero for
    the in-memory backend, which never serializes anything).
    """

    backend: str = "memory"
    pages: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    file_bytes: int = 0
    extra: Dict[str, int] = field(default_factory=dict)


class PageStore(abc.ABC):
    """Byte-storage contract behind :class:`~repro.storage.disk.DiskManager`.

    Implementations store whole pages keyed by integer page id.  They are
    oblivious to the LRU buffer and the I/O counters — the disk manager
    decides *when* a backend is touched; the backend decides *how* bytes
    are kept.

    The engine never inspects a store's concrete type or name; it asks the
    capability flag and :attr:`location` instead:

    ``supports_worker_reopen``
        :meth:`reopen_in_worker` yields an independent read-only handle a
        worker process can use — the precondition for the fork pool and the
        distributed node tier.  Conservative default: a store can do
        nothing special until it says so.
    ``location``
        Where a fresh handle should attach: a filesystem path for the
        serializing backends, a ``HOST:PORT`` address for the remote
        client, ``None`` for process-private stores.
    """

    name = "abstract"
    supports_worker_reopen = False
    #: Bytes this handle moved for counted reads and for writes (what
    #: :meth:`stats` reports; zero for a store that serializes nothing).
    #: A worker unit reports its own delta of them, and the parent adds
    #: that delta to its store when it merges the unit.
    bytes_read = 0
    bytes_written = 0

    @property
    def location(self) -> Optional[str]:
        """Path/address a worker can reopen this store from (None if none)."""
        return getattr(self, "path", None)

    def worker_spec(self) -> Dict[str, Optional[str]]:
        """``{"backend", "path"}`` recreating this store in another process."""
        if not self.supports_worker_reopen or self.location is None:
            raise ValueError(
                f"the {self.name!r} backend cannot be reopened by worker "
                "processes: it has no shareable location"
            )
        return {"backend": self.name, "path": self.location}

    @abc.abstractmethod
    def write_page(self, page_id: int, tag: str, payload: Any, size_bytes: int) -> None:
        """Insert or overwrite one page."""

    @abc.abstractmethod
    def read_page(self, page_id: int, count: bool = True) -> PageRecord:
        """Return a stored page; raises ``KeyError`` for unknown ids.

        ``count=False`` keeps the read out of :meth:`stats` — used for
        maintenance/oracle access so ``bytes_read`` reports only the bytes
        that buffer misses pulled.
        """

    @abc.abstractmethod
    def page_meta(self, page_id: int) -> Tuple[str, int]:
        """``(tag, size_bytes)`` of a page without decoding its payload."""

    @abc.abstractmethod
    def free_page(self, page_id: int) -> bool:
        """Release a page; returns whether it existed."""

    @abc.abstractmethod
    def page_ids(self) -> List[int]:
        """All stored page ids (unordered)."""

    @abc.abstractmethod
    def page_count(self, tag: Optional[str] = None) -> int:
        """Number of stored pages, optionally restricted to one tag."""

    @abc.abstractmethod
    def stats(self) -> StorageStats:
        """Physical byte-movement statistics."""

    def reopen_in_worker(self) -> None:
        """Re-establish handles after ``fork`` (fresh read-only view)."""
        if not self.supports_worker_reopen:
            raise RuntimeError(
                f"the {self.name!r} backend cannot be reopened in a worker process"
            )

    def close(self) -> None:
        """Release OS resources; owned temporary files are deleted."""


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
class MemoryPageStore(PageStore):
    """The original backend: live payload objects in a dict.

    No serialization happens, so reads hand back the very object that was
    written — the identity semantics every pre-backend caller relied on.
    """

    name = "memory"
    # Fork-safe through copy-on-write, but there is nothing another process
    # could attach to (location is None).
    supports_worker_reopen = True

    def __init__(self) -> None:
        self._pages: Dict[int, PageRecord] = {}

    def write_page(self, page_id: int, tag: str, payload: Any, size_bytes: int) -> None:
        self._pages[page_id] = PageRecord(tag, payload, size_bytes)

    def read_page(self, page_id: int, count: bool = True) -> PageRecord:
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} has not been allocated") from None

    def page_meta(self, page_id: int) -> Tuple[str, int]:
        record = self.read_page(page_id)
        return record.tag, record.size_bytes

    def free_page(self, page_id: int) -> bool:
        return self._pages.pop(page_id, None) is not None

    def page_ids(self) -> List[int]:
        return list(self._pages)

    def page_count(self, tag: Optional[str] = None) -> int:
        if tag is None:
            return len(self._pages)
        return sum(1 for record in self._pages.values() if record.tag == tag)

    def stats(self) -> StorageStats:
        return StorageStats(backend=self.name, pages=len(self._pages))

    def reopen_in_worker(self) -> None:
        pass  # forked workers share the parent's dict copy-on-write

    def close(self) -> None:
        pass


def _codec():
    """The payload codec, imported lazily to keep ``repro.storage`` cycle-free.

    ``repro.storage.codec`` imports the index/voronoi node types, which in
    turn import ``repro.storage.disk`` — resolvable at call time but not
    while the storage package itself is being imported.
    """
    from repro.storage import codec

    return codec


# ----------------------------------------------------------------------
# file
# ----------------------------------------------------------------------
#: File header: magic, format version, slot size.
_FILE_HEADER = struct.Struct("<8sIQ")
_FILE_MAGIC = b"CIJPGST\x01"
_FILE_VERSION = 1

#: Record header: magic, page id, sequence number, logical size,
#: payload length, tag length, checksum (of the header-after-magic + tag +
#: payload).
_REC_HEADER = struct.Struct("<IqQIIHI")
_REC_MAGIC = 0x43504A52

#: Records at least this many payload bytes fit a slot of the default size.
DEFAULT_SLOT_SIZE = 4096


class _SimulatedCrash(RuntimeError):
    """Raised by the fault-injection hook after a partial slot write."""


class FilePageStore(PageStore):
    """Fixed-size-slot page store over a single binary file.

    Every record is self-describing (page id, monotone sequence number,
    CRC-32 of its contents), and a page update always lands in a *different*
    slot than the current one before the old slot is invalidated.  Opening a
    file therefore recovers a consistent store from any write prefix: the
    newest checksum-valid record wins per page, torn records are ignored,
    their slots reused.

    Parameters
    ----------
    path:
        Backing file; created if missing.  ``None`` creates an owned
        temporary file that is deleted on :meth:`close` (or when the store
        is garbage collected by the process that created it).

    A payload that outgrows its slot triggers a transparent rebuild of the
    file with doubled slots (atomic via ``os.replace``).
    """

    name = "file"
    supports_worker_reopen = True

    def __init__(self, path: Optional[str] = None):
        self._owns_path = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-pages-", suffix=".bin")
            os.close(fd)
        self.path = str(path)
        self._readonly = False
        self._slot_size = DEFAULT_SLOT_SIZE
        self._seq = 0
        self._slots = 0
        self._free_slots: List[int] = []
        #: page id -> (slot, tag, logical size, payload length)
        self._dir: Dict[int, Tuple[int, str, int, int]] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        #: Test hook: abort the next record write after this many bytes.
        self._crash_after_bytes: Optional[int] = None
        self._file = open(self.path, "r+b" if os.path.exists(self.path) else "w+b")
        self._load_or_init()
        # Delete owned temp files when the creating process drops the store
        # without closing it (forked workers must never trigger this).
        self._finalizer = weakref.finalize(
            self, _cleanup_file, self.path, os.getpid(), self._owns_path
        )

    # ------------------------------------------------------------------
    # PageStore API
    # ------------------------------------------------------------------
    def write_page(self, page_id: int, tag: str, payload: Any, size_bytes: int) -> None:
        self._check_writable()
        blob = _codec().encode_page_payload(payload)
        need = _REC_HEADER.size + len(tag.encode("utf-8")) + len(blob)
        if need > self._slot_size:
            self._rebuild(slot_size=_next_slot_size(need))
        slot = self._free_slots.pop() if self._free_slots else self._grow_one_slot()
        self._put_record(slot, page_id, tag, size_bytes, blob)
        previous = self._dir.get(page_id)
        self._dir[page_id] = (slot, tag, size_bytes, len(blob))
        if previous is not None:
            self._clear_slot(previous[0])
            self._free_slots.append(previous[0])

    def read_page(self, page_id: int, count: bool = True) -> PageRecord:
        entry = self._dir.get(page_id)
        if entry is None:
            raise KeyError(f"page {page_id} has not been allocated")
        slot, tag, size_bytes, payload_len = entry
        blob = self._read_at(self._payload_offset(slot, tag), payload_len, count=count)
        return PageRecord(tag, _codec().decode_page_payload(blob), size_bytes)

    def page_meta(self, page_id: int) -> Tuple[str, int]:
        entry = self._dir.get(page_id)
        if entry is None:
            raise KeyError(f"page {page_id} has not been allocated")
        return entry[1], entry[2]

    def free_page(self, page_id: int) -> bool:
        self._check_writable()
        entry = self._dir.pop(page_id, None)
        if entry is None:
            return False
        self._clear_slot(entry[0])
        self._free_slots.append(entry[0])
        return True

    def page_ids(self) -> List[int]:
        return list(self._dir)

    def page_count(self, tag: Optional[str] = None) -> int:
        if tag is None:
            return len(self._dir)
        return sum(1 for entry in self._dir.values() if entry[1] == tag)

    def stats(self) -> StorageStats:
        return StorageStats(
            backend=self.name,
            pages=len(self._dir),
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            file_bytes=_FILE_HEADER.size + self._slots * self._slot_size,
            extra={"slot_size": self._slot_size, "free_slots": len(self._free_slots)},
        )

    def reopen_in_worker(self) -> None:
        """Swap the inherited handle for a private read-only one.

        A forked worker shares the parent's file offset through the
        inherited descriptor; reading through it would race with the parent
        and with sibling workers.  Workers only read (the join phase never
        writes source-tree pages), so a fresh ``rb`` handle suffices.
        """
        inherited = self._file
        self._file = open(self.path, "rb")
        # Closing the worker's copy of the inherited descriptor is safe and
        # keeps it from ever being used (or leaked) in this process.
        inherited.close()
        self._readonly = True
        self._owns_path = False
        self._finalizer.detach()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
        self._finalizer.detach()
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)

    # ------------------------------------------------------------------
    # layout and recovery
    # ------------------------------------------------------------------
    def _slot_offset(self, slot: int) -> int:
        return _FILE_HEADER.size + slot * self._slot_size

    def _payload_offset(self, slot: int, tag: str) -> int:
        """File offset of a record's payload bytes (header and tag skipped).

        The single definition shared by the read path and the rebuilder —
        they must agree on the layout or reads would hand back garbage
        payloads.
        """
        return self._slot_offset(slot) + _REC_HEADER.size + len(tag.encode("utf-8"))

    def _load_or_init(self) -> None:
        self._file.seek(0, io.SEEK_END)
        if self._file.tell() == 0:
            self._file.write(_FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, self._slot_size))
            self._file.flush()
            return
        self._file.seek(0)
        header = self._file.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            raise ValueError(f"{self.path}: not a page-store file (truncated header)")
        magic, version, slot_size = _FILE_HEADER.unpack(header)
        if magic != _FILE_MAGIC or version != _FILE_VERSION:
            raise ValueError(f"{self.path}: not a page-store file (bad magic/version)")
        self._slot_size = slot_size
        self._scan_slots()

    def _scan_slots(self) -> None:
        """Rebuild the directory: newest checksum-valid record wins per page."""
        self._file.seek(0, io.SEEK_END)
        data_bytes = max(0, self._file.tell() - _FILE_HEADER.size)
        self._slots = data_bytes // self._slot_size
        best_seq: Dict[int, int] = {}
        self._dir.clear()
        self._free_slots = []
        loser_slots: Dict[int, int] = {}
        for slot in range(self._slots):
            record = self._validate_slot(slot)
            if record is None:
                self._free_slots.append(slot)
                continue
            page_id, seq, tag, size_bytes, payload_len = record
            self._seq = max(self._seq, seq)
            if seq > best_seq.get(page_id, -1):
                if page_id in best_seq:
                    self._free_slots.append(loser_slots[page_id])
                best_seq[page_id] = seq
                loser_slots[page_id] = slot
                self._dir[page_id] = (slot, tag, size_bytes, payload_len)
            else:
                self._free_slots.append(slot)

    def _validate_slot(self, slot: int):
        """Parse one slot; ``None`` for free, torn or truncated records."""
        raw = self._read_at(self._slot_offset(slot), _REC_HEADER.size, count=False)
        if len(raw) < _REC_HEADER.size:
            return None
        magic, page_id, seq, size_bytes, payload_len, tag_len, crc = _REC_HEADER.unpack(raw)
        if magic != _REC_MAGIC:
            return None
        if _REC_HEADER.size + tag_len + payload_len > self._slot_size:
            return None
        body = self._read_at(
            self._slot_offset(slot) + _REC_HEADER.size, tag_len + payload_len, count=False
        )
        if len(body) < tag_len + payload_len:
            return None
        if crc != _record_crc(page_id, seq, size_bytes, payload_len, tag_len, body):
            return None
        tag = body[:tag_len].decode("utf-8", errors="replace")
        return page_id, seq, tag, size_bytes, payload_len

    def _grow_one_slot(self) -> int:
        slot = self._slots
        self._slots += 1
        # Extend the file so the slot exists even before its record is
        # complete; the zero bytes never parse as a valid record.
        self._file.seek(0, io.SEEK_END)
        end = self._slot_offset(slot + 1)
        if self._file.tell() < end:
            self._file.truncate(end)
        return slot

    def _rebuild(self, slot_size: int) -> None:
        """Rewrite the whole file with bigger slots (atomic replace)."""
        records = []
        for page_id, (slot, tag, size_bytes, payload_len) in sorted(self._dir.items()):
            # Maintenance traffic (count=False): stats().bytes_read reports
            # only the bytes that buffer misses pulled, on every backend.
            records.append(
                (
                    page_id,
                    tag,
                    size_bytes,
                    self._read_at(
                        self._payload_offset(slot, tag), payload_len, count=False
                    ),
                )
            )
        # Release the handle on the old file before os.replace: Windows
        # refuses to replace a file that is still open.
        self._file.close()
        tmp_path = self.path + ".rebuild"
        with open(tmp_path, "w+b") as tmp:
            tmp.write(_FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, slot_size))
            self._file = tmp
            self._slot_size = slot_size
            self._slots = 0
            self._free_slots = []
            self._dir = {}
            for page_id, tag, size_bytes, blob in records:
                slot = self._grow_one_slot()
                self._put_record(slot, page_id, tag, size_bytes, blob)
                self._dir[page_id] = (slot, tag, size_bytes, len(blob))
            tmp.flush()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "r+b")

    def _put_record(self, slot: int, page_id: int, tag: str, size_bytes: int, blob: bytes) -> None:
        """Write one complete record (fresh sequence number) into a slot."""
        tag_bytes = tag.encode("utf-8")
        self._seq += 1
        body = tag_bytes + blob
        crc = _record_crc(page_id, self._seq, size_bytes, len(blob), len(tag_bytes), body)
        header = _REC_HEADER.pack(
            _REC_MAGIC, page_id, self._seq, size_bytes, len(blob), len(tag_bytes), crc
        )
        self._write_at(self._slot_offset(slot), header + body)

    def _clear_slot(self, slot: int) -> None:
        """Invalidate a slot by zeroing its whole record header.

        Zeroing only the magic would leave the rest of the old header (page
        id, sequence, CRC) intact — a later write torn after exactly the
        4-byte magic (identical for every record) would then resurrect the
        old record as checksum-valid.  With the full header zeroed, any
        torn prefix of a future record leaves a header whose CRC cannot
        match, so the slot stays dead until a write completes.
        """
        self._file.seek(self._slot_offset(slot))
        self._file.write(b"\x00" * _REC_HEADER.size)
        self._file.flush()
        self.bytes_written += _REC_HEADER.size

    # ------------------------------------------------------------------
    # raw I/O
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._readonly:
            raise RuntimeError("page store reopened read-only in a worker process")

    def _write_at(self, offset: int, data: bytes) -> None:
        self._file.seek(offset)
        if self._crash_after_bytes is not None:
            written = data[: self._crash_after_bytes]
            self._file.write(written)
            self._file.flush()
            self.bytes_written += len(written)
            self._crash_after_bytes = None
            raise _SimulatedCrash(f"simulated crash after {len(written)} bytes")
        self._file.write(data)
        self._file.flush()
        self.bytes_written += len(data)

    def _read_at(self, offset: int, length: int, count: bool = True) -> bytes:
        self._file.seek(offset)
        data = self._file.read(length)
        if count:
            self.bytes_read += len(data)
        return data


def _record_crc(
    page_id: int, seq: int, size_bytes: int, payload_len: int, tag_len: int, body: bytes
) -> int:
    """CRC-32 of a record: the header fields after the magic plus the body.

    The single definition shared by the writer, the rebuilder and the
    recovery scan — the byte layout must never drift between them, or
    every record would be dropped as torn on reopen.
    """
    return zlib.crc32(
        struct.pack("<qQIIH", page_id, seq, size_bytes, payload_len, tag_len) + body
    )


def _next_slot_size(need: int) -> int:
    size = DEFAULT_SLOT_SIZE
    while size < need:
        size *= 2
    return size


def _cleanup_file(path: str, owner_pid: int, owned: bool) -> None:
    if owned and os.getpid() == owner_pid and os.path.exists(path):
        os.remove(path)


# ----------------------------------------------------------------------
# sqlite
# ----------------------------------------------------------------------
class SQLitePageStore(PageStore):
    """Durable page store in one SQLite table, readable by other processes.

    Each page write is its own autocommitted transaction, so SQLite's
    journal provides the old-or-new guarantee the file backend implements
    by hand.  ``None`` as path creates an owned temporary database deleted
    on :meth:`close`.
    """

    name = "sqlite"
    supports_worker_reopen = True

    def __init__(self, path: Optional[str] = None):
        import sqlite3

        self._sqlite3 = sqlite3
        self._owns_path = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-pages-", suffix=".sqlite")
            os.close(fd)
        self.path = str(path)
        self._readonly = False
        self.bytes_read = 0
        self.bytes_written = 0
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS pages ("
            " page_id INTEGER PRIMARY KEY,"
            " tag TEXT NOT NULL,"
            " size_bytes INTEGER NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        self._finalizer = weakref.finalize(
            self, _cleanup_file, self.path, os.getpid(), self._owns_path
        )

    def write_page(self, page_id: int, tag: str, payload: Any, size_bytes: int) -> None:
        if self._readonly:
            raise RuntimeError("page store reopened read-only in a worker process")
        blob = _codec().encode_page_payload(payload)
        self._conn.execute(
            "INSERT INTO pages (page_id, tag, size_bytes, payload)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(page_id) DO UPDATE SET"
            " tag = excluded.tag, size_bytes = excluded.size_bytes,"
            " payload = excluded.payload",
            (page_id, tag, size_bytes, blob),
        )
        self.bytes_written += len(blob)

    def read_page(self, page_id: int, count: bool = True) -> PageRecord:
        row = self._conn.execute(
            "SELECT tag, size_bytes, payload FROM pages WHERE page_id = ?", (page_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"page {page_id} has not been allocated")
        tag, size_bytes, blob = row
        if count:
            self.bytes_read += len(blob)
        return PageRecord(tag, _codec().decode_page_payload(blob), size_bytes)

    def page_meta(self, page_id: int) -> Tuple[str, int]:
        row = self._conn.execute(
            "SELECT tag, size_bytes FROM pages WHERE page_id = ?", (page_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"page {page_id} has not been allocated")
        return row[0], int(row[1])

    def free_page(self, page_id: int) -> bool:
        if self._readonly:
            raise RuntimeError("page store reopened read-only in a worker process")
        cursor = self._conn.execute("DELETE FROM pages WHERE page_id = ?", (page_id,))
        return cursor.rowcount > 0

    def page_ids(self) -> List[int]:
        return [row[0] for row in self._conn.execute("SELECT page_id FROM pages")]

    def page_count(self, tag: Optional[str] = None) -> int:
        if tag is None:
            row = self._conn.execute("SELECT COUNT(*) FROM pages").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM pages WHERE tag = ?", (tag,)
            ).fetchone()
        return int(row[0])

    def stats(self) -> StorageStats:
        try:
            file_bytes = os.path.getsize(self.path)
        except OSError:
            file_bytes = 0
        return StorageStats(
            backend=self.name,
            pages=self.page_count(),
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            file_bytes=file_bytes,
        )

    def reopen_in_worker(self) -> None:
        """Replace the fork-inherited connection with a read-only one.

        SQLite connections must not be carried across ``fork``; the worker
        opens its own via a ``mode=ro`` URI and never touches the parent's.
        """
        self._conn = self._sqlite3.connect(
            f"file:{self.path}?mode=ro", uri=True, isolation_level=None
        )
        self._readonly = True
        self._owns_path = False
        self._finalizer.detach()

    def close(self) -> None:
        self._conn.close()
        self._finalizer.detach()
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)


__all__ = [
    "PageStore",
    "PageRecord",
    "StorageStats",
    "MemoryPageStore",
    "FilePageStore",
    "SQLitePageStore",
    "canonical_backend",
    "create_page_store",
    "default_storage_backend",
    "STORAGE_BACKENDS",
    "STORAGE_ENV_VAR",
    "DEFAULT_SLOT_SIZE",
]
