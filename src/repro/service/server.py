"""The asyncio join server: warm sessions, snapshot reads, serial writes.

Concurrency design
------------------
Python-side structures (`DiskManager`'s LRU, SQLite's default
connection, the session's maintained diagrams) are not thread-safe, so
the server never lets two operations touch a dataset's mutable state at
once:

* **One worker thread per dataset** executes every tree-touching
  operation — ``update`` batches *and* ``window`` descents — in strict
  admission order.  The thread *is* the per-dataset writer lock: batches
  serialize by construction, and a window query observes exactly the
  version it reports.
* **Snapshot reads.**  After every batch the worker publishes an
  immutable :class:`Snapshot` (version, canonical pair payload,
  accumulated update stats); ``join`` and ``stats`` are answered on the
  event loop from whatever snapshot is current — the MVCC seed from the
  file store's new-slot-then-invalidate updates, lifted to the session
  layer: readers never block on the writer and always see a complete
  version, never a half-applied batch.
* **Admission control.**  Each dataset bounds its queued-plus-running
  worker operations; past the bound the server answers immediately with
  a structured ``overloaded`` rejection instead of buffering without
  limit or silently dropping.

Every response carries the ``version`` it was computed at, which is the
replay key of the differential suite: a fresh serial session that
applies the same batches in version order reproduces every served
``join``/``window``/``update`` payload byte for byte.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.datasets.workload import WorkloadConfig, Workload, build_workload
from repro.dynamic.maintenance import DynamicJoinSession
from repro.dynamic.updates import UpdateStreamError, parse_update_stream
from repro.geometry.rect import Rect
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    ServiceError,
    encode_line,
    error_response,
    decode_line,
    ok_response,
    pairs_payload,
)


@dataclass(frozen=True)
class DatasetSpec:
    """What the server builds one warm dataset from."""

    name: str = "default"
    n_p: int = 200
    n_q: int = 200
    seed: int = 0
    storage: Optional[str] = None
    storage_path: Optional[str] = None
    #: Maximum queued-plus-running worker operations before ``window``/
    #: ``update`` requests are rejected as ``overloaded``.
    max_queue: int = 32


class Snapshot:
    """An immutable published view of one dataset version."""

    __slots__ = ("version", "pairs", "update_stats", "points_p", "points_q", "storage")

    def __init__(
        self,
        version: int,
        pairs: List[List[int]],
        update_stats: Dict[str, int],
        points_p: int,
        points_q: int,
        storage: Dict[str, Any],
    ):
        self.version = version
        self.pairs = pairs
        self.update_stats = update_stats
        self.points_p = points_p
        self.points_q = points_q
        self.storage = storage


class DatasetState:
    """One warm dataset: workload + session + worker + published snapshot.

    Every operation that touches the workload — the bootstrap build,
    window descents, update batches, and the final close — runs on this
    dataset's single worker thread.  That is not just the writer lock:
    SQLite connections are bound to the thread that created them, so the
    backend handles must live and die on the worker.
    """

    def __init__(self, spec: DatasetSpec):
        from concurrent.futures import ThreadPoolExecutor

        self.spec = spec
        self.workload: Optional[Workload] = None
        self.session: Optional[DynamicJoinSession] = None
        #: Update-batch count; written only on the worker thread.
        self.version = 0
        self.snapshot: Optional[Snapshot] = None
        #: Queued-plus-running worker operations; touched only on the
        #: event loop thread, so a plain integer is race-free.
        self.pending = 0
        self.subscribers: Set[asyncio.StreamWriter] = set()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-svc-{spec.name}"
        )

    # -- worker-thread operations --------------------------------------
    def build(self) -> None:
        """Bootstrap the workload and warm session (worker thread)."""
        spec = self.spec
        self.workload = build_workload(
            WorkloadConfig(
                n_p=spec.n_p,
                n_q=spec.n_q,
                seed=spec.seed,
                storage=spec.storage,
                storage_path=spec.storage_path,
            )
        )
        self.session = DynamicJoinSession(
            self.workload.tree_p, self.workload.tree_q, domain=self.workload.domain
        )
        self.snapshot = self._build_snapshot()

    def _build_snapshot(self) -> Snapshot:
        session = self.session
        return Snapshot(
            version=self.version,
            pairs=pairs_payload(session.pairs),
            update_stats=asdict(session.stats),
            points_p=session.point_count("P"),
            points_q=session.point_count("Q"),
            storage=asdict(self.workload.disk.storage_stats()),
        )

    def _apply_batch(self, batch) -> Dict[str, Any]:
        delta = self.session.apply_updates(batch)
        self.version += 1
        body = {
            "version": self.version,
            "added": pairs_payload(delta.added),
            "removed": pairs_payload(delta.removed),
            "batch_stats": asdict(delta.stats),
        }
        # Publication is one reference assignment: loop-side readers see
        # either the old complete snapshot or the new one, never a mix.
        self.snapshot = self._build_snapshot()
        return body

    def _window_query(self, window: Rect) -> Dict[str, Any]:
        pairs = self.session.window_pairs(window)
        return {
            "version": self.version,
            "window": [window.xmin, window.ymin, window.xmax, window.ymax],
            "pairs": pairs_payload(pairs),
        }

    # -- event-loop-side API -------------------------------------------
    async def submit(self, fn):
        """Run ``fn`` on the dataset's worker under admission control."""
        if self.pending >= self.spec.max_queue:
            raise ServiceError(
                f"dataset {self.spec.name!r} has {self.pending} operations "
                f"queued (limit {self.spec.max_queue}); retry later",
                code="overloaded",
            )
        loop = asyncio.get_running_loop()
        self.pending += 1
        future = loop.run_in_executor(self._worker, fn)
        # The decrement runs on the loop (asyncio future callbacks do),
        # matching the loop-side increment.
        future.add_done_callback(lambda _f: self._release())
        return await future

    def _release(self) -> None:
        self.pending -= 1

    def stats_body(self) -> Dict[str, Any]:
        snapshot = self.snapshot
        return {
            "version": snapshot.version,
            "pairs": len(snapshot.pairs),
            "points": {"P": snapshot.points_p, "Q": snapshot.points_q},
            "update_stats": snapshot.update_stats,
            # Storage counters as of the snapshot's publication — read on
            # the worker like every other backend access.
            "storage": snapshot.storage,
        }

    def close(self) -> None:
        try:
            self._worker.submit(self._close_resources).result()
        except RuntimeError:
            pass  # executor already shut down (double close)
        self._worker.shutdown(wait=True, cancel_futures=True)
        self.subscribers.clear()

    def _close_resources(self) -> None:
        """Release session and backend handles (worker thread)."""
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.workload is not None:
            self.workload.close()
            self.workload = None


class JoinService:
    """The TCP server; one instance owns every dataset it serves."""

    def __init__(self, specs: Sequence[DatasetSpec]):
        if not specs:
            raise ValueError("a JoinService needs at least one dataset")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dataset names: {names}")
        self._specs = list(specs)
        self.datasets: Dict[str, DatasetState] = {}
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Build the datasets, bind, and return the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        try:
            for spec in self._specs:
                # Each bootstrap runs on its dataset's own worker thread:
                # it must not stall the loop, and the SQLite backend binds
                # its connection to the creating thread, so the build has
                # to happen where every later operation will.
                state = DatasetState(spec)
                self.datasets[spec.name] = state
                await loop.run_in_executor(state._worker, state.build)
        except BaseException:
            for state in self.datasets.values():
                state.close()
            self.datasets.clear()
            raise
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for state in self.datasets.values():
            state.close()
        self.datasets.clear()

    # -- connection handling --------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            encode_line(
                {
                    "event": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "datasets": sorted(self.datasets),
                }
            )
        )
        try:
            while True:
                try:
                    line = await _read_request_line(reader)
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ServiceError as error:
                    # An over-limit line, already skipped: the connection
                    # stays usable for the next request.
                    response = error_response(None, error.code, str(error))
                else:
                    if not line:
                        break
                    if line.strip() == b"":
                        continue
                    response = await self._respond(line, writer)
                try:
                    writer.write(encode_line(response))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    # The client vanished between request and reply (a
                    # mid-request disconnect).  The computed work is
                    # already published (snapshots/broadcasts do not go
                    # through this writer); just retire the connection.
                    break
        finally:
            self._drop_subscriber(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Server shutdown cancels the handler mid-wait; the
                # transport is already closing, so there is nothing to
                # propagate.
                pass

    async def _respond(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> Dict[str, Any]:
        request_id: Optional[Any] = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            return await self._dispatch(request, writer)
        except ServiceError as error:
            return error_response(request_id, error.code, str(error))
        except Exception as error:  # noqa: BLE001 — the connection must survive
            return error_response(
                request_id, "internal", f"{type(error).__name__}: {error}"
            )

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> Dict[str, Any]:
        op = request.get("op")
        request_id = request.get("id")
        if op not in REQUEST_OPS:
            raise ServiceError(
                f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}",
                code="bad_request",
            )
        state = self._state_for(request)
        if op == "join":
            snapshot = state.snapshot
            return ok_response(
                "join",
                request_id,
                {
                    "version": snapshot.version,
                    "count": len(snapshot.pairs),
                    "pairs": snapshot.pairs,
                },
            )
        if op == "stats":
            return ok_response("stats", request_id, state.stats_body())
        if op == "subscribe":
            state.subscribers.add(writer)
            return ok_response(
                "subscribe",
                request_id,
                {"dataset": state.spec.name, "version": state.snapshot.version},
            )
        if op == "window":
            window = _parse_window(request.get("window"))
            body = await state.submit(lambda: state._window_query(window))
            return ok_response("window", request_id, body)
        # op == "update"
        batch = _parse_batch(request.get("updates"))
        try:
            body = await state.submit(lambda: state._apply_batch(batch))
        except ValueError as error:
            raise ServiceError(str(error), code="update_rejected") from None
        self._broadcast_delta(state, body)
        return ok_response("update", request_id, body)

    def _state_for(self, request: Dict[str, Any]) -> DatasetState:
        name = request.get("dataset", "default")
        try:
            return self.datasets[name]
        except KeyError:
            raise ServiceError(
                f"unknown dataset {name!r}; serving {sorted(self.datasets)}",
                code="unknown_dataset",
            ) from None

    # -- subscriber streaming -------------------------------------------
    def _broadcast_delta(self, state: DatasetState, body: Dict[str, Any]) -> None:
        if not state.subscribers:
            return
        event = encode_line(
            {
                "event": "delta",
                "dataset": state.spec.name,
                "version": body["version"],
                "added": body["added"],
                "removed": body["removed"],
            }
        )
        dead = []
        for subscriber in state.subscribers:
            if subscriber.is_closing():
                dead.append(subscriber)
                continue
            subscriber.write(event)
        for subscriber in dead:
            state.subscribers.discard(subscriber)

    def _drop_subscriber(self, writer: asyncio.StreamWriter) -> None:
        for state in self.datasets.values():
            state.subscribers.discard(writer)


async def _read_request_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line (``b""`` at end of stream).

    A line longer than the reader's ``MAX_LINE_BYTES`` limit is read to
    its end and dropped, then reported as a ``bad_request``.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial  # the stream ended inside an unterminated line
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
    while True:
        # The buffer still holds the oversized prefix; drop it chunk by
        # chunk until the terminating newline is within the limit.
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed
        else:
            break
    raise ServiceError(
        f"request line exceeds {MAX_LINE_BYTES} bytes", code="bad_request"
    )


def _parse_window(raw: Any) -> Rect:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 4
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise ServiceError(
            "window must be [xmin, ymin, xmax, ymax] numbers", code="bad_request"
        )
    xmin, ymin, xmax, ymax = (float(v) for v in raw)
    if not (xmin <= xmax and ymin <= ymax):
        raise ServiceError(
            f"degenerate window [{xmin}, {ymin}, {xmax}, {ymax}]: "
            "min corner must not exceed max corner",
            code="bad_request",
        )
    return Rect(xmin, ymin, xmax, ymax)


def _parse_batch(raw: Any):
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(line, str) for line in raw)
    ):
        raise ServiceError(
            "updates must be a non-empty list of update-stream lines "
            "('insert SIDE OID X Y' / 'delete SIDE OID')",
            code="bad_request",
        )
    try:
        batches = parse_update_stream(raw)
    except UpdateStreamError as error:
        raise ServiceError(str(error), code="bad_request") from None
    if len(batches) != 1:
        raise ServiceError(
            f"one update request carries exactly one batch, got {len(batches)} "
            "(drop the '---' separators and send separate requests)",
            code="bad_request",
        )
    return batches[0]
