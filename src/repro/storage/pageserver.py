"""A remote page server and its client store — nodes without shared disks.

ROADMAP item 3's last rung: every distributed tier so far still assumed
all workers could reopen the same local file/sqlite path.  This module
removes that assumption.  A :class:`PageServer` process owns the one
writable backing store (file or sqlite) and serves it over TCP using the
same newline-delimited canonical-JSON framing as the join service
(:mod:`repro.service.protocol`); a :class:`RemotePageStore` plugs into
:class:`~repro.storage.disk.DiskManager` behind the ordinary
:class:`~repro.storage.backends.PageStore` seam, so the node-local LRU
buffer, decoded-page cache and logical I/O counters are untouched — a
join over the wire charges exactly the page accesses a local join does,
and only ``storage_stats()`` reveals the transport.

Wire format (one request line, one response line)::

    {"op": "read_page", "page": 17}
    {"ok": true, "op": "read_page", "record": {"tag": "R", "size": 412,
     "blob": "<base64 of the codec-encoded payload>"}}

Ops: ``hello``, ``read_page``, ``write_page``, ``free_page``,
``page_meta``, ``page_ids``, ``page_count``, ``data_size``, ``stats``,
``shutdown``.
Unknown pages answer the structured error code ``unknown_page``, which
the client re-raises as the ``KeyError`` every backend contract promises.

Honest overhead notes: each page crosses the wire as its codec-encoded
blob re-encoded once more into base64 inside a JSON line (~1.8x the
payload bytes), and every buffer miss pays one RPC round trip.  That is
the price of zero shared local state; see ROADMAP item 3.
"""

from __future__ import annotations

import argparse
import base64
import os
import socket
import subprocess
import sys
import tempfile
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)
from repro.storage.backends import (
    REMOTE_BACKINGS,
    PageRecord,
    PageStore,
    StorageStats,
    _codec,
    create_page_store,
)

#: Default socket timeout for one RPC; a server that neither answers nor
#: closes the connection within this window surfaces a loud error instead
#: of hanging the join.
DEFAULT_RPC_TIMEOUT = 60.0


class PageServerError(RuntimeError):
    """A remote page operation failed loudly (server gone, protocol error).

    Inside a distributed node this propagates through the unit-execution
    path and reaches the coordinator as a ``NodeError`` — the same
    retry/quarantine taxonomy every other node failure uses; a serial run
    sees it directly.  It is never swallowed into silent corruption.
    """


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (the port is the part after the last colon)."""
    host, sep, port_text = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"page server address {address!r} is not of the form HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"page server address {address!r} has a non-numeric port"
        ) from None
    return host, port


def _record_to_wire(record: PageRecord) -> Dict[str, Any]:
    blob = _codec().encode_page_payload(record.payload)
    return {
        "tag": record.tag,
        "size": record.size_bytes,
        "blob": base64.b64encode(blob).decode("ascii"),
    }


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class PageServer:
    """Serves one writable backing store to any number of TCP clients.

    One thread per connection; every store operation runs under a single
    lock, so cross-connection writes are immediately visible to every
    reader — the same old-or-new guarantee the backings give processes
    sharing a local path.  The server reads pages uncounted
    (``count=False``): byte accounting belongs to each client's transport
    counters, not to the shared store.
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0):
        self._store = store
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Accept connections on a background thread (in-process use)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-pageserver-accept", daemon=True
        )
        thread.start()

    def serve_forever(self) -> None:
        """Accept loop; returns after :meth:`stop` (or the shutdown op)."""
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-pageserver-conn",
                daemon=True,
            )
            thread.start()

    def stop(self) -> None:
        """Stop accepting; in-flight handler threads drain on their own."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _serve_connection(self, conn) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                for line in reader:
                    try:
                        request = decode_line(line)
                    except ServiceError as error:
                        conn.sendall(
                            encode_line(error_response(None, error.code, str(error)))
                        )
                        continue
                    response = self._handle(request)
                    conn.sendall(encode_line(response))
                    if request.get("op") == "shutdown" and response.get("ok"):
                        self.stop()
                        return
        except (OSError, ValueError):
            # Client vanished mid-line/mid-reply; its state dies with it.
            pass

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        request_id = request.get("id")
        try:
            if not isinstance(op, str):
                raise ServiceError("request has no op", code="bad_request")
            body = self._dispatch(op, request)
        except KeyError as error:
            message = error.args[0] if error.args else str(error)
            return error_response(request_id, "unknown_page", str(message))
        except ServiceError as error:
            return error_response(request_id, error.code, str(error))
        except Exception as error:  # noqa: BLE001 - every fault answers loudly
            return error_response(request_id, "internal", f"{type(error).__name__}: {error}")
        return ok_response(op, request_id, body)

    def _dispatch(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        store = self._store
        if op == "hello" or op == "ping":
            with self._lock:
                return {
                    "version": PROTOCOL_VERSION,
                    "backend": store.name,
                    "pages": store.page_count(),
                }
        if op == "read_page":
            page_id = _int_field(request, "page")
            with self._lock:
                record = store.read_page(page_id, count=False)
                return {"record": _record_to_wire(record)}
        if op == "write_page":
            page_id = _int_field(request, "page")
            try:
                blob = base64.b64decode(request["blob"], validate=True)
                tag = str(request["tag"])
                size_bytes = int(request["size"])
            except (KeyError, ValueError, TypeError) as error:
                raise ServiceError(
                    f"malformed write_page: {error}", code="bad_request"
                ) from None
            payload = _codec().decode_page_payload(blob)
            with self._lock:
                store.write_page(page_id, tag, payload, size_bytes)
            return {}
        if op == "free_page":
            page_id = _int_field(request, "page")
            with self._lock:
                return {"freed": store.free_page(page_id)}
        if op == "page_meta":
            page_id = _int_field(request, "page")
            with self._lock:
                tag, size_bytes = store.page_meta(page_id)
            return {"tag": tag, "size": size_bytes}
        if op == "page_ids":
            with self._lock:
                return {"pages": sorted(store.page_ids())}
        if op == "page_count":
            tag = request.get("tag")
            with self._lock:
                return {"count": store.page_count(tag)}
        if op == "data_size":
            tag = request.get("tag")
            with self._lock:
                return {"bytes": store.data_size_bytes(tag)}
        if op == "stats":
            with self._lock:
                stats = store.stats()
            return {
                "backend": stats.backend,
                "pages": stats.pages,
                "file_bytes": stats.file_bytes,
            }
        if op == "shutdown":
            return {}
        raise ServiceError(f"unknown op {op!r}", code="bad_request")


def _int_field(request: Dict[str, Any], key: str) -> int:
    try:
        return int(request[key])
    except (KeyError, ValueError, TypeError):
        raise ServiceError(
            f"request needs an integer {key!r} field", code="bad_request"
        ) from None


# ----------------------------------------------------------------------
# spawning
# ----------------------------------------------------------------------
class SpawnedPageServer:
    """Handle on a page-server subprocess this process started."""

    def __init__(self, process, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self, timeout: float = 5.0, grace: float = 0.0) -> None:
        """Terminate the server; ``grace`` waits first for a clean exit
        (used after a ``shutdown`` op so the store deletes its owned temp)."""
        if grace > 0 and self.process.poll() is None:
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_page_server(
    backing: str = "file",
    path: Optional[str] = None,
    host: str = "127.0.0.1",
) -> SpawnedPageServer:
    """Start ``python -m repro.storage.pageserver`` and wait for its address.

    With ``path=None`` the server owns a temporary backing file and deletes
    it when it exits cleanly.  The child announces ``{"type": "listening",
    "host": ..., "port": ...}`` on stdout once it accepts connections.
    """
    if backing not in REMOTE_BACKINGS:
        raise ValueError(
            f"unknown page-server backing {backing!r}; expected one of {REMOTE_BACKINGS}"
        )
    command = [
        sys.executable,
        "-u",
        "-m",
        "repro.storage.pageserver",
        "--backing",
        backing,
        "--host",
        host,
        "--port",
        "0",
    ]
    if path is not None:
        command += ["--path", str(path)]
    env = dict(os.environ)
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (package_root, env.get("PYTHONPATH")) if part
    )
    stderr = tempfile.TemporaryFile()
    try:
        process = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
    except OSError as error:
        stderr.close()
        raise PageServerError(f"could not spawn the page server: {error}") from None
    line = process.stdout.readline()
    if not line:
        process.wait()
        stderr.seek(0)
        detail = stderr.read().decode("utf-8", errors="replace").strip()
        stderr.close()
        raise PageServerError(
            "page server exited before announcing its address"
            + (f": {detail}" if detail else "")
        )
    stderr.close()  # unlinked; the OS reclaims it when the child exits
    try:
        announce = decode_line(line)
        server_host = str(announce["host"])
        port = int(announce["port"])
    except (ServiceError, KeyError, ValueError, TypeError):
        process.terminate()
        raise PageServerError(
            f"page server announced garbage: {line!r}"
        ) from None
    return SpawnedPageServer(process, server_host, port)


def _reap_server(process) -> None:
    """GC fallback: never leave an owned server process running."""
    if process.poll() is None:
        process.kill()
        process.wait()


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class RemotePageStore(PageStore):
    """Client-side :class:`PageStore` speaking to a :class:`PageServer`.

    ``address=None`` spawns an owned server (backed by ``backing``) and
    shuts it down on :meth:`close`; an explicit ``HOST:PORT`` attaches to
    a running one and leaves it alive.  All counters are client-side
    transport counters: counted reads land in ``bytes_read`` — the server
    itself counts nothing, so any number of attached nodes report only
    their own wire traffic.  One lazily-opened connection serves every RPC.
    """

    name = "remote"
    supports_worker_reopen = True

    def __init__(
        self,
        address: Optional[str] = None,
        backing: str = "file",
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    ):
        self._server: Optional[SpawnedPageServer] = None
        self._finalizer = None
        if address is None:
            self._server = spawn_page_server(backing)
            address = self._server.address
            self._finalizer = weakref.finalize(
                self, _reap_server, self._server.process
            )
        self.address = str(address)
        #: Mirrors the on-disk stores' ``path`` attribute so a generic
        #: ``location`` lookup (and any legacy ``getattr(store, "path")``)
        #: finds the reopen address.
        self.path = self.address
        self._host, self._port = parse_address(self.address)
        self._rpc_timeout = rpc_timeout
        self._lock = threading.Lock()
        self._sock = None
        self._reader = None
        self._readonly = False
        self._closed = False
        self._bytes_read = 0
        self._bytes_written = 0
        self._rpc_calls = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self):
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._rpc_timeout
            )
        except OSError as error:
            raise PageServerError(
                f"could not reach the page server at {self.address}: {error}"
            ) from None
        return sock, sock.makefile("rb")

    def _rpc(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response on the main connection (serialized)."""
        with self._lock:
            if self._sock is None:
                self._sock, self._reader = self._connect()
            try:
                self._sock.sendall(encode_line(payload))
                line = self._reader.readline()
            except OSError as error:
                self._drop_main_connection()
                raise PageServerError(
                    f"page server at {self.address} failed mid-request "
                    f"(op={payload.get('op')}): {error}"
                ) from None
            if not line:
                self._drop_main_connection()
                raise PageServerError(
                    f"page server at {self.address} closed the connection "
                    f"(op={payload.get('op')}) — killed mid-run?"
                )
            self._rpc_calls += 1
        return self._check(payload, decode_line(line))

    def _check(self, payload: Dict[str, Any], response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        code = error.get("code", "internal")
        message = error.get("message", "no message")
        if code == "unknown_page":
            raise KeyError(message)
        raise PageServerError(
            f"page server at {self.address} rejected op "
            f"{payload.get('op')!r} [{code}]: {message}"
        )

    def _drop_main_connection(self) -> None:
        for handle in (self._reader, self._sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._sock = None
        self._reader = None

    def _decode_record(self, wire: Dict[str, Any]) -> Tuple[PageRecord, int]:
        blob = base64.b64decode(wire["blob"])
        record = PageRecord(
            str(wire["tag"]), _codec().decode_page_payload(blob), int(wire["size"])
        )
        return record, len(blob)

    def _check_writable(self) -> None:
        if self._readonly:
            raise RuntimeError("page store reopened read-only in a worker process")

    # ------------------------------------------------------------------
    # PageStore API
    # ------------------------------------------------------------------
    def write_page(self, page_id: int, tag: str, payload: Any, size_bytes: int) -> None:
        self._check_writable()
        blob = _codec().encode_page_payload(payload)
        self._rpc(
            {
                "op": "write_page",
                "page": int(page_id),
                "tag": tag,
                "size": int(size_bytes),
                "blob": base64.b64encode(blob).decode("ascii"),
            }
        )
        self._bytes_written += len(blob)

    def read_page(self, page_id: int, count: bool = True) -> PageRecord:
        response = self._rpc({"op": "read_page", "page": int(page_id)})
        record, blob_len = self._decode_record(response["record"])
        if count:
            self._bytes_read += blob_len
        return record

    def page_meta(self, page_id: int) -> Tuple[str, int]:
        response = self._rpc({"op": "page_meta", "page": int(page_id)})
        return str(response["tag"]), int(response["size"])

    def free_page(self, page_id: int) -> bool:
        self._check_writable()
        response = self._rpc({"op": "free_page", "page": int(page_id)})
        return bool(response["freed"])

    def page_ids(self) -> List[int]:
        return [int(pid) for pid in self._rpc({"op": "page_ids"})["pages"]]

    def page_count(self, tag: Optional[str] = None) -> int:
        payload: Dict[str, Any] = {"op": "page_count"}
        if tag is not None:
            payload["tag"] = tag
        return int(self._rpc(payload)["count"])

    def data_size_bytes(self, tag: Optional[str] = None) -> int:
        payload: Dict[str, Any] = {"op": "data_size"}
        if tag is not None:
            payload["tag"] = tag
        return int(self._rpc(payload)["bytes"])

    def stats(self) -> StorageStats:
        remote = self._rpc({"op": "stats"})
        return StorageStats(
            backend=self.name,
            pages=int(remote["pages"]),
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            file_bytes=int(remote["file_bytes"]),
            extra={
                "backend": str(remote["backend"]),
                "rpc_calls": self._rpc_calls,
                "owns_server": bool(self._server is not None),
            },
        )

    def reopen_in_worker(self) -> None:
        """Drop fork-inherited transport state and reconnect lazily.

        The parent still holds the shared socket descriptions, so closing
        this process's copies sends no FIN — the parent's connections stay
        live.  An owned server (if any) belongs to the parent: the worker
        must neither shut it down nor reap it at exit.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._server = None
        self._drop_main_connection()
        self._readonly = True
        # Worker snapshots report only the worker's own wire traffic (see
        # FilePageStore.reopen_in_worker for the exactly-once argument).
        self._bytes_read = 0
        self._bytes_written = 0
        self._rpc_calls = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            # Graceful first — the server closes (and, when owned, deletes)
            # its backing store on the way out; then make sure it is gone.
            try:
                self._rpc({"op": "shutdown"})
            except (PageServerError, ServiceError):
                pass
            self._server.stop(grace=2.0)
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._server = None
        self._drop_main_connection()


# ----------------------------------------------------------------------
# process entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.pageserver",
        description="Serve one file/sqlite page store over NDJSON TCP.",
    )
    parser.add_argument("--backing", choices=REMOTE_BACKINGS, default="file")
    parser.add_argument(
        "--path",
        default=None,
        help="backing file (created if missing); default: an owned temp file "
        "deleted when the server exits cleanly",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    # SIGTERM (the spawner's fallback) exits through the finally below so
    # an owned temporary backing is still deleted.
    import signal

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))

    options = {"cross_thread": True} if args.backing == "sqlite" else {}
    store = create_page_store(args.backing, args.path, **options)
    server = PageServer(store, host=args.host, port=args.port)
    sys.stdout.write(
        encode_line(
            {
                "type": "listening",
                "host": server.host,
                "port": server.port,
                "backend": store.name,
                "pid": os.getpid(),
            }
        ).decode("ascii")
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
