"""The benchmark's own NDJSON client for the join service.

``repro.service.ServiceClient`` is not used on purpose: it opens its
connection with asyncio's default 64 KiB line limit, and its reader task
dies on the ``ValueError`` an over-long response line raises, after which
``request()`` waits forever.  A full ``join`` response at a few thousand
points per side is longer than that.  This client accepts lines up to the
protocol's own cap, bounds every request with a timeout, and lets the
caller reconnect after a timeout instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from repro.service.protocol import MAX_LINE_BYTES, encode_line


class RequestFailed(Exception):
    """A request timed out, lost its connection, or returned ``ok: false``."""


class NdjsonClient:
    """One connection; strictly one request in flight at a time."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        """Open the connection and consume the server's ``hello`` event."""
        await self.close()
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=MAX_LINE_BYTES),
            self.timeout,
        )
        hello = await asyncio.wait_for(self._read_message(), self.timeout)
        if hello.get("event") != "hello":
            raise RequestFailed(f"expected a hello event, got {hello!r}")

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and return its successful response.

        Raises :class:`RequestFailed` on a timeout, a dropped connection or
        a structured error response.  After a failure the connection may
        hold a late reply, so the caller must :meth:`connect` again.
        """
        if self._writer is None:
            raise RequestFailed("not connected")
        try:
            self._writer.write(encode_line(payload))
            await asyncio.wait_for(self._writer.drain(), self.timeout)
            response = await asyncio.wait_for(self._read_response(), self.timeout)
        except asyncio.TimeoutError:
            raise RequestFailed(
                f"{payload.get('op')} timed out after {self.timeout}s"
            ) from None
        except (ConnectionError, ValueError, asyncio.IncompleteReadError) as error:
            raise RequestFailed(f"{payload.get('op')}: {error!r}") from None
        if not response.get("ok"):
            raise RequestFailed(f"{payload.get('op')}: {response.get('error')}")
        return response

    async def _read_response(self) -> Dict[str, Any]:
        while True:
            message = await self._read_message()
            if "event" not in message:
                return message

    async def _read_message(self) -> Dict[str, Any]:
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
