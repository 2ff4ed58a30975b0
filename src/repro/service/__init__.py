"""A long-running concurrent join service over the persistent backends.

ROADMAP item 2: the one-shot CLI becomes a server.  A
:class:`~repro.service.server.JoinService` owns one warm
:class:`~repro.dynamic.DynamicJoinSession` per dataset and serves
concurrent clients over a newline-delimited JSON protocol — ``join``
(the full maintained pair set), ``window`` (region-restricted join via a
ConditionalFilter sub-rectangle descent), ``update`` (a batch through
the delta-CIJ path, streamed to subscribers), and ``stats``.

Concurrency story (see :mod:`repro.service.server` for details): every
mutation and every tree-reading query of a dataset runs on that
dataset's single worker thread behind a bounded admission queue, while
``join``/``stats`` are answered on the event loop from an immutable
published snapshot — readers never wait on the writer, and every
response is byte-reproducible from the request's recorded version.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    canonical_json,
    decode_line,
    encode_line,
    pairs_payload,
)

#: Exports loaded on first access (PEP 562): nodes and page servers import
#: only the protocol, never the client (asyncio) or the server.
_CLIENT_EXPORTS = ("ServiceClient",)
_SERVER_EXPORTS = ("DatasetSpec", "JoinService")


def __getattr__(name):
    if name in _CLIENT_EXPORTS:
        from repro.service import client as module
    elif name in _SERVER_EXPORTS:
        from repro.service import server as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "PROTOCOL_VERSION",
    "ServiceError",
    "canonical_json",
    "decode_line",
    "encode_line",
    "pairs_payload",
    "DatasetSpec",
    "JoinService",
    "ServiceClient",
]
