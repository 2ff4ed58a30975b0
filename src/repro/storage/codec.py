"""Binary page codecs for the serializing storage backends.

The in-memory backend stores node objects directly, but the file and SQLite
backends of :mod:`repro.storage.backends` move real bytes: every page payload
is encoded to a self-contained binary blob on write and decoded on read.

R-tree nodes — the only payload the index layer ever stores — get a compact
``struct``-based encoding mirroring the paper's entry layout (object id +
coordinates for point entries, child pointer + MBR for branch entries,
vertex rings for Voronoi-cell entries).  Any other payload (test fixtures,
ad-hoc records) falls back to a pickle envelope, so the page store accepts
exactly what :class:`~repro.storage.disk.DiskManager` accepted before.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.entries import BranchEntry, LeafEntry, Node
from repro.voronoi.cell import VoronoiCell

#: Leading byte of an encoded page: a struct-coded R-tree node or a pickle.
KIND_NODE = b"N"
KIND_PICKLE = b"K"

#: Leading byte of an encoded leaf-entry payload.
_PAYLOAD_POINT = b"P"
_PAYLOAD_CELL = b"V"
_PAYLOAD_PICKLE = b"K"

_NODE_HEADER = struct.Struct("<iI")  # level, entry count
_BRANCH = struct.Struct("<4dq")  # mbr, child page
_LEAF_HEADER = struct.Struct("<q4di")  # oid, mbr, size_bytes
_POINT = struct.Struct("<2d")
_CELL_HEADER = struct.Struct("<q2dI")  # oid, site, vertex count
_U32 = struct.Struct("<I")


def encode_page_payload(payload: Any) -> bytes:
    """Encode an arbitrary page payload to a self-contained byte string."""
    if type(payload) is Node:
        return KIND_NODE + _encode_node(payload)
    return KIND_PICKLE + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_page_payload(blob: bytes) -> Any:
    """Decode a blob produced by :func:`encode_page_payload`."""
    kind, body = blob[:1], memoryview(blob)[1:]
    if kind == KIND_NODE:
        return _decode_node(body)
    if kind == KIND_PICKLE:
        return pickle.loads(body)
    raise ValueError(f"unknown page payload kind {kind!r}")


# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------
def _encode_node(node: Node) -> bytes:
    parts: List[bytes] = [_NODE_HEADER.pack(node.level, len(node.entries))]
    if node.is_leaf:
        for entry in node.entries:
            mbr = entry.mbr
            parts.append(
                _LEAF_HEADER.pack(
                    entry.oid, mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax, entry.size_bytes
                )
            )
            parts.append(_encode_leaf_payload(entry.payload))
    else:
        for entry in node.entries:
            mbr = entry.mbr
            parts.append(_BRANCH.pack(mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax, entry.child_page))
    return b"".join(parts)


def _decode_node(body: memoryview) -> Node:
    level, count = _NODE_HEADER.unpack_from(body, 0)
    offset = _NODE_HEADER.size
    entries: List[Any] = []
    if level == 0:
        for _ in range(count):
            oid, x1, y1, x2, y2, size_bytes = _LEAF_HEADER.unpack_from(body, offset)
            offset += _LEAF_HEADER.size
            payload, offset = _decode_leaf_payload(body, offset)
            entries.append(LeafEntry(oid, Rect(x1, y1, x2, y2), payload, size_bytes))
    else:
        for _ in range(count):
            x1, y1, x2, y2, child = _BRANCH.unpack_from(body, offset)
            offset += _BRANCH.size
            entries.append(BranchEntry(Rect(x1, y1, x2, y2), child))
    return Node(level, entries)


# ----------------------------------------------------------------------
# leaf-entry payloads
# ----------------------------------------------------------------------
def _encode_leaf_payload(payload: Any) -> bytes:
    if type(payload) is Point:
        return _PAYLOAD_POINT + _POINT.pack(payload.x, payload.y)
    if type(payload) is VoronoiCell:
        xs, ys = payload.polygon.ring()
        parts = [
            _PAYLOAD_CELL,
            _CELL_HEADER.pack(payload.oid, payload.site.x, payload.site.y, len(xs)),
        ]
        parts.extend(map(_POINT.pack, xs, ys))
        return b"".join(parts)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _PAYLOAD_PICKLE + _U32.pack(len(blob)) + blob


def _decode_leaf_payload(body: memoryview, offset: int):
    tag = bytes(body[offset : offset + 1])
    offset += 1
    if tag == _PAYLOAD_POINT:
        x, y = _POINT.unpack_from(body, offset)
        return Point(x, y), offset + _POINT.size
    if tag == _PAYLOAD_CELL:
        oid, sx, sy, count = _CELL_HEADER.unpack_from(body, offset)
        offset += _CELL_HEADER.size
        coords = struct.unpack_from(f"<{2 * count}d", body, offset)
        offset += count * _POINT.size
        # The stored ring is already normalised and must round-trip bit for
        # bit, so it goes through the trusted constructor.
        polygon = ConvexPolygon._from_ring(coords[0::2], coords[1::2])
        return VoronoiCell(oid, Point(sx, sy), polygon), offset
    if tag == _PAYLOAD_PICKLE:
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        return pickle.loads(body[offset : offset + length]), offset + length
    raise ValueError(f"unknown leaf payload tag {tag!r}")
