"""A small asyncio client for the join service.

The server answers a connection's requests strictly in order, but a
subscribed connection also receives asynchronous ``delta`` event lines
interleaved with its responses.  The client runs one reader task that
routes incoming lines by shape — objects with an ``event`` key go to the
event queue, everything else is the next pending response — so callers
get a simple awaitable request/response API plus an event stream.

Lines up to ``MAX_LINE_BYTES`` are accepted.  When the reader task stops
(the server closed the connection, a line was too long or not JSON, the
client was closed), every pending and later :meth:`ServiceClient.request`
and :meth:`ServiceClient.next_event` raises a :class:`ServiceError` with
code ``disconnected`` instead of waiting for a line that cannot come.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional

from repro.service.protocol import MAX_LINE_BYTES, ServiceError, encode_line


class ServiceClient:
    """One connection to a :class:`~repro.service.server.JoinService`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._responses: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.hello: Optional[Dict[str, Any]] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        client = cls(reader, writer)
        client._reader_task = asyncio.ensure_future(client._read_loop())
        try:
            client.hello = await _take(client.events)
        except ServiceError:
            await client.close()
            raise
        if client.hello.get("event") != "hello":
            raise ServiceError(f"expected a hello event, got {client.hello!r}")
        return client

    async def _read_loop(self) -> None:
        reason = "the service closed the connection"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                payload = json.loads(line)
                if isinstance(payload, dict) and "event" in payload:
                    self.events.put_nowait(payload)
                else:
                    self._responses.put_nowait(payload)
        except asyncio.CancelledError:
            reason = "the client is closed"
            raise
        except ValueError as error:  # a line over the limit, or not JSON
            reason = f"unreadable line from the service: {error}"
        except OSError as error:
            reason = f"connection error: {error}"
        finally:
            # Wake every waiter: the failure is queued behind the lines
            # already received, so those are still delivered in order.
            failure = ServiceError(reason, code="disconnected")
            self._responses.put_nowait(failure)
            self.events.put_nowait(failure)

    # ------------------------------------------------------------------
    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object and await its (in-order) response."""
        if self._closed:
            raise ServiceError("the client is closed")
        self._writer.write(encode_line(payload))
        await self._writer.drain()
        return await _take(self._responses)

    async def request_ok(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`request` but raises on a structured failure."""
        response = await self.request(payload)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                error.get("message", "request failed"),
                code=error.get("code", "internal"),
            )
        return response

    async def next_event(self, timeout: float = 5.0) -> Dict[str, Any]:
        """The next ``delta`` (or other) event line on this connection."""
        return await asyncio.wait_for(_take(self.events), timeout)

    # ------------------------------------------------------------------
    # convenience wrappers
    # ------------------------------------------------------------------
    async def join(self, dataset: str = "default", **extra) -> Dict[str, Any]:
        return await self.request_ok({"op": "join", "dataset": dataset, **extra})

    async def window(
        self, window: List[float], dataset: str = "default", **extra
    ) -> Dict[str, Any]:
        return await self.request_ok(
            {"op": "window", "dataset": dataset, "window": window, **extra}
        )

    async def update(
        self, updates: List[str], dataset: str = "default", **extra
    ) -> Dict[str, Any]:
        return await self.request_ok(
            {"op": "update", "dataset": dataset, "updates": updates, **extra}
        )

    async def stats(self, dataset: str = "default", **extra) -> Dict[str, Any]:
        return await self.request_ok({"op": "stats", "dataset": dataset, **extra})

    async def subscribe(self, dataset: str = "default", **extra) -> Dict[str, Any]:
        return await self.request_ok({"op": "subscribe", "dataset": dataset, **extra})

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


async def _take(queue: "asyncio.Queue") -> Dict[str, Any]:
    """The next line from ``queue``, or the reader's failure raised.

    The failure is put back so that every later waiter fails too.
    """
    item = await queue.get()
    if isinstance(item, ServiceError):
        queue.put_nowait(item)
        raise item
    return item
