"""The node plane: worker subprocesses for the distributed executor.

A *node* is a separate interpreter (``python -S -m repro.engine.node``) that
simulates one member of an elastic worker tier over shared storage.  The
coordinating process sends it one ``init`` message describing the run —
which backend file to reopen, the R-tree roots and fanouts, the resident
buffer pages at dispatch time, the algorithm and its knobs — and then
streams ``unit`` messages; the node answers each with the unit's pairs,
statistics and counter delta.  Framing and encoding reuse the service
protocol's canonical NDJSON (:mod:`repro.service.protocol`): one JSON
object per line, sorted keys, pure ASCII — so a unit result is
byte-reproducible across runs and nodes.

Equivalence story, mirroring the fork pool exactly:

* the node opens the *same* pages the parent's workload wrote — the
  file or sqlite store is reopened read-only, and a remote store opens
  its own socket to the page server
  (:meth:`~repro.storage.disk.DiskManager.reopen_for_worker`);
* the dispatch-time LRU residency travels in the init spec; the node
  rebuilds the decoded cache with *uncounted* reads and rewinds to that
  state before **every** unit, so a node that pulls many units charges the
  same counters as if each unit ran in a fresh fork;
* each unit runs against the node's own counter snapshot (page counters
  and store bytes alike) and the parent absorbs the returned deltas, so
  merged counters are the exact sum of per-unit work.

The REUSE carry crosses the wire in an explicit JSON form (a list of
``[oid, site_x, site_y, vertices]`` cells) produced and consumed only by
nodes.  In a chained run it is its own message: the parent sends a
``unit`` as soon as the unit is leased, and the node computes the unit's
leaf cells and ConditionalFilter while the predecessor unit still runs
elsewhere.  Only right before NM's candidate cells does it read the next
message: the ``carry`` (forwarded opaquely by the parent from the
predecessor's recorded result) or a ``yield``, which drops the unit
because its lease gave way to a released predecessor.  A reader thread
drains stdin meanwhile, so the parent's sends never block on a busy or
hung node.

Fault story (this file is the detection side; injection lives in
:mod:`repro.engine.faults`):

* a dedicated reader thread per node turns the blocking pipe into a
  timed message queue, so the parent can bound how long it waits for any
  reply (``NodeTimeout``) instead of blocking forever on a hung child;
* the node emits ``heartbeat`` lines from a daemon thread while it
  computes, so a slow unit and a frozen interpreter are distinguishable:
  the request deadline is *silence*-based, refreshed by every message;
* child exit / broken pipes surface as ``NodeCrashed``, a structured
  ``error`` reply as ``NodeError``, undecodable bytes as
  ``NodeProtocolError`` — all subclasses of :class:`NodeFailure`, which
  the distributed executor treats as "quarantine this node and retry the
  unit elsewhere", never as run-fatal by itself.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.join.conditional_filter import FilterStats
from repro.join.result import JoinStats, ProgressSample
from repro.service.protocol import PROTOCOL_VERSION, decode_line, encode_line
from repro.storage.counters import IOCounters
from repro.storage.disk import DiskManager
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats


# ----------------------------------------------------------------------
# wire codecs (worker side encodes, parent side decodes)
# ----------------------------------------------------------------------
def stats_to_wire(stats: JoinStats) -> Dict[str, Any]:
    """A :class:`JoinStats` as a JSON-safe mapping (fields generically, so
    a counter added to the dataclass cannot be dropped from the wire)."""
    wire: Dict[str, Any] = {}
    for field_info in fields(stats):
        if field_info.name == "progress":
            wire["progress"] = [
                [sample.page_accesses, sample.pairs_reported]
                for sample in stats.progress
            ]
        else:
            wire[field_info.name] = getattr(stats, field_info.name)
    return wire


def stats_from_wire(wire: Dict[str, Any]) -> JoinStats:
    stats = JoinStats(algorithm=wire["algorithm"])
    for field_info in fields(stats):
        if field_info.name == "algorithm":
            continue
        if field_info.name == "progress":
            stats.progress = [
                ProgressSample(accesses, pairs_reported)
                for accesses, pairs_reported in wire["progress"]
            ]
        else:
            setattr(stats, field_info.name, wire[field_info.name])
    return stats


def record_to_wire(record) -> Dict[str, Any]:
    """Generic flat-int-dataclass codec (cell/filter statistics)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def counters_to_wire(counters: IOCounters) -> Dict[str, Any]:
    return {
        "reads": counters.reads,
        "writes": counters.writes,
        "logical_reads": counters.logical_reads,
        "buffer_hits": counters.buffer_hits,
        "by_tag": dict(counters.by_tag),
    }


def counters_from_wire(wire: Dict[str, Any]) -> IOCounters:
    counters = IOCounters(
        reads=wire["reads"],
        writes=wire["writes"],
        logical_reads=wire["logical_reads"],
        buffer_hits=wire["buffer_hits"],
    )
    counters.by_tag = dict(wire["by_tag"])
    return counters


def carry_to_wire(carry: Optional[Dict[int, VoronoiCell]]) -> Optional[List]:
    """The REUSE buffer as JSON; ``repr``-exact doubles round-trip, so a
    cell survives the pipe bit for bit."""
    if carry is None:
        return None
    return [
        [
            oid,
            cell.site.x,
            cell.site.y,
            [[x, y] for x, y in zip(*cell.polygon.ring())],
        ]
        for oid, cell in carry.items()
    ]


def carry_from_wire(wire: Optional[List]) -> Optional[Dict[int, VoronoiCell]]:
    if wire is None:
        return None
    buffer: Dict[int, VoronoiCell] = {}
    for oid, site_x, site_y, vertices in wire:
        # The transported ring is already normalised and must round-trip bit
        # for bit (same rationale as the page codec's cell decoder).
        polygon = ConvexPolygon._from_ring(
            tuple(x for x, _ in vertices), tuple(y for _, y in vertices)
        )
        buffer[oid] = VoronoiCell(oid, Point(site_x, site_y), polygon)
    return buffer


def _tree_spec(tree: RTree) -> Dict[str, Any]:
    return {
        "tag": tree.tag,
        "page_size": tree.page_size,
        "leaf_capacity": tree.leaf_capacity,
        "branch_capacity": tree.branch_capacity,
        "root_page": tree.root_page,
        "height": tree.height,
        "size": tree.size,
    }


def node_init_spec(algorithm, ctx) -> Dict[str, Any]:
    """Everything a node needs to rebuild the run's read view.

    Trees are described by root/fanout metadata only — the pages
    themselves live in the shared store, which is the whole point of the
    tier.  The storage entry is the store's own ``worker_spec()`` (what a
    subprocess must reopen: backend name + shared location — a path for
    file/sqlite, a host:port for the remote page server).  ``resident``
    is the dispatch-time LRU residency (least to most recently used) the
    node rewinds to before every unit.  ``handoff`` tells both ends that
    the units are chained: the distributed executor chains every
    ``supports_handoff`` algorithm.
    """
    disk = ctx.disk
    prepared = {
        name: _tree_spec(tree)
        for name, tree in ctx.prepared.items()
        if isinstance(tree, RTree)
    }
    resident, _cache = disk.buffer_state()
    storage = disk.store.worker_spec()
    storage.update(
        {
            "page_size": disk.page_size,
            "buffer_capacity": disk.buffer.capacity,
            "resident": list(resident),
        }
    )
    return {
        "version": PROTOCOL_VERSION,
        "algorithm": algorithm.name,
        "handoff": algorithm.supports_handoff,
        "storage": storage,
        "tree_p": _tree_spec(ctx.tree_p),
        "tree_q": _tree_spec(ctx.tree_q),
        "prepared": prepared,
        "domain": [ctx.domain.xmin, ctx.domain.ymin, ctx.domain.xmax, ctx.domain.ymax],
        "config": {
            "reuse_cells": ctx.config.reuse_cells,
            "use_phi_pruning": ctx.config.use_phi_pruning,
        },
    }


# ----------------------------------------------------------------------
# parent side: failure taxonomy + one subprocess handle per node
# ----------------------------------------------------------------------
class NodeFailure(RuntimeError):
    """One node became unusable.  The run may survive it: the distributed
    executor quarantines the node and releases its leased unit back to
    the coordinator instead of aborting the whole join."""


class NodeCrashed(NodeFailure):
    """The node process exited (or its pipe broke) without replying."""


class NodeTimeout(NodeFailure):
    """The node went silent past the request deadline (no reply, no
    heartbeat) — a hung interpreter as far as the parent can tell."""


class NodeError(NodeFailure):
    """The node answered with a structured ``error`` reply."""


class NodeProtocolError(NodeFailure):
    """The node sent bytes that do not decode as a protocol message."""


class NodeProcess:
    """Handle on one node subprocess speaking the unit protocol.

    A dedicated reader thread drains the node's stdout into a queue, so
    every receive takes an optional deadline; ``heartbeat`` lines refresh
    the deadline without being surfaced (silence, not slowness, is what
    times out).  ``faults`` is the node's slice of a
    :class:`~repro.engine.faults.FaultPlan` in wire form, forwarded
    verbatim inside the init message.
    """

    #: Seconds between child heartbeats.
    HEARTBEAT = 0.25
    #: Seconds a node may stay silent before its *first* message.  The
    #: child beats only once it has read ``init``, so interpreter start-up
    #: and imports (0.07–0.09 s on an idle 2-CPU host, 0.15–0.27 s beside
    #: three CPU-bound processes) must not count against the silence
    #: deadline meant for hung units.
    STARTUP_TIMEOUT = 30.0

    def __init__(
        self,
        worker_id: str,
        spec: Dict[str, Any],
        unit_delay: float = 0.0,
        faults: Optional[List[Dict[str, Any]]] = None,
    ):
        self.worker_id = worker_id
        self._handoff = bool(spec.get("handoff"))
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        # stderr goes to an unlinked temp file: an unread PIPE would
        # deadlock a chatty child, and the tail makes death diagnosable.
        self._stderr = tempfile.TemporaryFile()
        # -S skips site-packages (.pth) processing: the package needs only
        # the standard library, and PYTHONPATH above finds it.
        self.process = subprocess.Popen(
            [sys.executable, "-S", "-u", "-m", "repro.engine.node"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
        )
        self._lines: "queue.Queue[Optional[bytes]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"node-reader-{worker_id}", daemon=True
        )
        self._reader.start()
        message = dict(spec)
        message["type"] = "init"
        if unit_delay:
            message["unit_delay"] = unit_delay
        if faults:
            message["faults"] = list(faults)
        message["heartbeat"] = self.HEARTBEAT
        self._send(message)
        self._ready = False
        self._heard = False

    def _read_loop(self) -> None:
        """Drain stdout into the line queue; a ``None`` sentinel marks EOF."""
        stdout = self.process.stdout
        try:
            for line in iter(stdout.readline, b""):
                self._lines.put(line)
        except (OSError, ValueError):
            pass  # pipe torn down under us (quarantine/shutdown)
        finally:
            self._lines.put(None)

    def _send(self, message: Dict[str, Any]) -> None:
        try:
            self.process.stdin.write(encode_line(message))
            self.process.stdin.flush()
        except (BrokenPipeError, OSError) as error:
            raise NodeCrashed(
                f"{self.worker_id} pipe broken on send: {error}"
                + self._stderr_suffix()
            ) from error

    def _stderr_tail(self) -> str:
        try:
            self._stderr.seek(0)
            return self._stderr.read()[-2000:].decode("utf-8", "replace").strip()
        except (OSError, ValueError):
            return ""

    def _stderr_suffix(self) -> str:
        tail = self._stderr_tail()
        return f"; stderr: {tail}" if tail else ""

    def _recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The next non-heartbeat message; the deadline is silence-based.

        ``timeout`` bounds the wait for *any* message — heartbeats refresh
        it, so a node that is computing (and heartbeating) never times out
        while a frozen one does after ``timeout`` seconds of silence.  The
        wait for the node's first message is bounded by
        :attr:`STARTUP_TIMEOUT` instead, if that is longer.
        """
        while True:
            wait = timeout
            if not self._heard and timeout is not None:
                wait = max(timeout, self.STARTUP_TIMEOUT)
            try:
                line = self._lines.get(timeout=wait)
            except queue.Empty:
                raise NodeTimeout(
                    f"{self.worker_id} silent for {wait:.3g}s (no reply, "
                    f"no heartbeat)" + self._stderr_suffix()
                ) from None
            self._heard = True
            if line is None:
                raise NodeCrashed(
                    f"{self.worker_id} exited without replying"
                    + self._stderr_suffix()
                )
            try:
                message = decode_line(line)
            except Exception as error:  # noqa: BLE001 - garbage on the wire
                raise NodeProtocolError(
                    f"{self.worker_id} sent undecodable bytes "
                    f"({line[:80]!r}...): {error}"
                ) from None
            if message.get("type") == "heartbeat":
                continue  # liveness only; restart the silence window
            if message.get("type") == "error":
                raise NodeError(
                    f"{self.worker_id} failed: {message.get('message')}"
                )
            return message

    def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until the node has rebuilt the read view (or died)."""
        if self._ready:
            return
        message = self._recv(timeout=timeout)
        if message.get("type") != "ready":
            raise NodeProtocolError(
                f"{self.worker_id} spoke out of turn: expected 'ready', "
                f"got {message.get('type')!r}"
            )
        self._ready = True

    def run_unit(
        self,
        assignment,
        await_carry: Callable[[Any], object],
        timeout: Optional[float] = None,
    ) -> Optional["ShardResult"]:
        """Execute one assignment on the node; blocks until its result.

        In a chained run (``handoff`` in the init spec) the unit goes out
        first, so the node computes its carry-free part while
        ``await_carry`` (the coordinator's
        :meth:`~repro.engine.coordinator.UnitCoordinator.await_carry`)
        blocks; the carry follows as its own message.  If the lease gave way instead, the node is told
        to drop the unit and ``None`` is returned.
        """
        from repro.engine.coordinator import GIVE_WAY
        from repro.engine.executors import ShardResult

        index = assignment.index
        self._send({"type": "unit", "index": index, "unit": assignment.unit.to_wire()})
        if self._handoff:
            carry = await_carry(assignment)
            if carry is GIVE_WAY:
                try:
                    self._send({"type": "yield", "index": index})
                except NodeCrashed:
                    pass  # a dead node surfaces on its next unit
                return None
            # Opaque: whatever wire form the producing node returned.
            self._send({"type": "carry", "index": index, "carry": carry})
        message = self._recv(timeout=timeout)
        if message.get("type") != "result":
            raise NodeProtocolError(
                f"{self.worker_id} spoke out of turn: expected 'result', "
                f"got {message.get('type')!r}"
            )
        if message["index"] != assignment.index:
            raise NodeProtocolError(
                f"{self.worker_id} answered unit {message['index']} "
                f"while unit {assignment.index} was asked"
            )
        return ShardResult(
            index=message["index"],
            pairs=[tuple(pair) for pair in message["pairs"]],
            stats=stats_from_wire(message["stats"]),
            cell_stats=CellComputationStats(**message["cell_stats"]),
            filter_stats=FilterStats(**message["filter_stats"]),
            counters=counters_from_wire(message["counters"]),
            bytes_read=message["bytes_read"],
            bytes_written=message["bytes_written"],
            carry=message.get("carry"),
        )

    def quarantine(self) -> None:
        """Kill a failed/hung node immediately and reap it — no graceful
        shutdown message (the node is presumed unresponsive)."""
        process = self.process
        try:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
        finally:
            self._close_handles()

    def shutdown(self) -> None:
        """Ask the node to exit; escalate to kill if it lingers."""
        process = self.process
        try:
            if process.poll() is None and process.stdin and not process.stdin.closed:
                try:
                    self._send({"type": "shutdown"})
                except (NodeCrashed, OSError):
                    pass
            if process.stdin and not process.stdin.closed:
                try:
                    process.stdin.close()
                except OSError:
                    pass
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        finally:
            self._close_handles()

    def _close_handles(self) -> None:
        process = self.process
        if process.stdin and not process.stdin.closed:
            try:
                process.stdin.close()
            except OSError:
                pass
        # The reader owns stdout until it sees EOF (the child is dead by
        # now, so that is imminent); joining first avoids closing the
        # stream out from under a blocked readline.
        self._reader.join(timeout=5)
        if process.stdout:
            try:
                process.stdout.close()
            except OSError:
                pass
        try:
            self._stderr.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# worker side: the subprocess main loop
# ----------------------------------------------------------------------
def _build_tree(disk: DiskManager, spec: Dict[str, Any]) -> RTree:
    tree = RTree(
        disk,
        spec["tag"],
        page_size=spec["page_size"],
        leaf_capacity=spec["leaf_capacity"],
        branch_capacity=spec["branch_capacity"],
    )
    tree.root_page = spec["root_page"]
    tree.height = spec["height"]
    tree.size = spec["size"]
    return tree


def _bootstrap(spec: Dict[str, Any]):
    """Rebuild the run's read view from an init spec.

    Returns ``(algorithm, parent_ctx, dispatch_state)`` where
    ``dispatch_state`` is the buffer state every unit is rewound to.
    """
    from repro.engine.algorithms import JoinContext, default_algorithms
    from repro.engine.config import EngineConfig

    if spec.get("version") != PROTOCOL_VERSION:
        raise ValueError(
            f"protocol version mismatch: node speaks {PROTOCOL_VERSION}, "
            f"coordinator sent {spec.get('version')!r}"
        )
    storage = spec["storage"]
    disk = DiskManager(
        page_size=storage["page_size"],
        storage=storage["backend"],
        storage_path=storage["path"],
    )
    # Read-only handles before anything touches the store: this node must
    # never write to (or, on close, delete) the shared backing file.
    disk.reopen_for_worker()
    disk.resize_buffer(storage["buffer_capacity"])
    # Rebuild the decoded cache for the dispatch-resident pages with
    # uncounted reads — the parent already charged them.
    cache = {
        page_id: disk.store.read_page(page_id, count=False)
        for page_id in storage["resident"]
    }
    dispatch_state = (list(storage["resident"]), cache)
    disk.restore_buffer_state(dispatch_state)

    by_name = {algo.name: algo for algo in default_algorithms()}
    algorithm = by_name[spec["algorithm"]]
    knobs = spec["config"]
    config = EngineConfig(
        executor="serial",
        reuse_cells=knobs["reuse_cells"],
        use_phi_pruning=knobs["use_phi_pruning"],
    )
    domain = Rect(*spec["domain"])
    tree_p = _build_tree(disk, spec["tree_p"])
    tree_q = _build_tree(disk, spec["tree_q"])
    prepared = {
        name: _build_tree(disk, tree_spec)
        for name, tree_spec in spec["prepared"].items()
    }
    parent_ctx = JoinContext(
        tree_p=tree_p,
        tree_q=tree_q,
        domain=domain,
        config=config,
        stats=JoinStats(algorithm=algorithm.display_name),
        cell_stats=CellComputationStats(),
        filter_stats=FilterStats(),
        start_counters=disk.counters.snapshot(),
        prepared=prepared,
    )
    return algorithm, parent_ctx, dispatch_state


class _GiveWay(Exception):
    """The parent withdrew the unit before sending its carry."""


#: How long an injected hang sleeps.  The parent's silence deadline fires
#: long before this; the sleep only has to outlive it until the kill.
_HANG_SECONDS = 600.0


def main() -> int:
    from repro.engine.executors import _execute_shard
    from repro.engine.faults import FaultInjector
    from repro.engine.units import WorkUnit

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # The heartbeat thread and the main loop share stdout; NDJSON framing
    # survives only if whole lines are written atomically under one lock.
    write_lock = threading.Lock()
    heartbeats_stop = threading.Event()
    heartbeats_mute = threading.Event()

    def reply(message: Dict[str, Any]) -> None:
        with write_lock:
            stdout.write(encode_line(message))
            stdout.flush()

    def heartbeat_loop(interval: float) -> None:
        while not heartbeats_stop.wait(interval):
            if heartbeats_mute.is_set():
                continue  # an injected hang: frozen processes do not beat
            try:
                reply({"type": "heartbeat"})
            except (BrokenPipeError, OSError):
                return  # parent is gone; nothing left to reassure

    try:
        init_line = stdin.readline()
        if not init_line:
            return 0
        init = decode_line(init_line)
        if init.get("type") != "init":
            raise ValueError(f"expected an init message, got {init.get('type')!r}")
        unit_delay = float(init.get("unit_delay", 0.0))
        handoff = bool(init.get("handoff", False))
        injector = FaultInjector(init.get("faults") or ())
        heartbeat_interval = float(init.get("heartbeat", 0.0))
        if heartbeat_interval > 0:
            # Start beating before the (potentially slow) bootstrap so a
            # node still starting looks alive, not hung, to the parent.
            threading.Thread(
                target=heartbeat_loop,
                args=(heartbeat_interval,),
                name="node-heartbeat",
                daemon=True,
            ).start()
        ready_delay = injector.ready_delay()
        if ready_delay:
            time.sleep(ready_delay)
        algorithm, parent_ctx, dispatch_state = _bootstrap(init)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        reply({"type": "error", "message": f"{type(error).__name__}: {error}"})
        return 1
    reply({"type": "ready", "version": PROTOCOL_VERSION})

    # Drain stdin on a thread: a carry sent while this node computes (or
    # hangs) must not block the parent's write.
    inbox: "queue.Queue[bytes]" = queue.Queue()

    def read_loop() -> None:
        for line in iter(stdin.readline, b""):
            inbox.put(line)
        inbox.put(b"")  # EOF: the parent is gone

    threading.Thread(target=read_loop, name="node-stdin", daemon=True).start()

    def fetch_carry(index: int, fault) -> Optional[Dict[int, VoronoiCell]]:
        """Read unit ``index``'s inbound carry (NM calls this before step 3)."""
        if fault is not None and fault.kind == "crash" and fault.phase == "carry":
            os._exit(13)  # phase=carry: leaf cells and filter done, no carry
        line = inbox.get()
        if not line:
            raise SystemExit(0)
        message = decode_line(line)
        if message.get("type") == "yield" and message.get("index") == index:
            raise _GiveWay()
        if message.get("type") != "carry" or message.get("index") != index:
            raise ValueError(
                f"expected the carry of unit {index}, got {message.get('type')!r}"
            )
        return carry_from_wire(message["carry"])

    disk = parent_ctx.disk
    try:
        while True:
            line = inbox.get()
            if not line:
                return 0
            message = decode_line(line)
            kind = message.get("type")
            if kind == "shutdown":
                return 0
            if kind != "unit":
                reply(
                    {"type": "error", "message": f"unexpected message {kind!r}"}
                )
                return 1
            index = message["index"]
            fault = injector.on_unit(index)
            if fault is not None and fault.kind == "crash" and fault.phase == "recv":
                os._exit(13)  # abrupt: no reply, no cleanup, like a real crash
            if fault is not None and fault.kind == "hang":
                heartbeats_mute.set()
                time.sleep(_HANG_SECONDS)  # the parent's deadline reaps us
                return 1
            try:
                if unit_delay:
                    time.sleep(unit_delay)
                # Every unit starts from the dispatch-time buffer, exactly
                # like a fresh fork: pulling many units onto one node must
                # not change the charged counters.
                disk.restore_buffer_state(dispatch_state)
                unit = WorkUnit.from_wire(message["unit"])
                carry = (
                    (lambda: fetch_carry(index, fault)) if handoff else None
                )
                try:
                    result = _execute_shard(
                        algorithm, parent_ctx, unit, index, carry=carry
                    )
                except _GiveWay:
                    continue  # the next message is the predecessor unit
                if fault is not None and fault.kind == "crash" and fault.phase == "work":
                    os._exit(13)  # computed, never replied
                if fault is not None and fault.kind == "error":
                    reply({"type": "error", "message": "injected fault: error"})
                    return 1
                if fault is not None and fault.kind == "drop":
                    # Swallow the result — and the heartbeats with it: a
                    # lost reply must look like *silence* to the parent
                    # (its deadline is what detects drops), not like a
                    # slow-but-alive computation.
                    heartbeats_mute.set()
                    injector.unit_completed()
                    continue
                if fault is not None and fault.kind == "corrupt":
                    with write_lock:
                        stdout.write(b'{"type": "result", #corrupt#\n')
                        stdout.flush()
                    injector.unit_completed()
                    continue
                reply(
                    {
                        "type": "result",
                        "index": result.index,
                        "pairs": [[p, q] for p, q in result.pairs],
                        "stats": stats_to_wire(result.stats),
                        "cell_stats": record_to_wire(result.cell_stats),
                        "filter_stats": record_to_wire(result.filter_stats),
                        "counters": counters_to_wire(result.counters),
                        "bytes_read": result.bytes_read,
                        "bytes_written": result.bytes_written,
                        "carry": carry_to_wire(result.carry) if handoff else None,
                    }
                )
                injector.unit_completed()
            except SystemExit:
                raise
            except BaseException as error:  # noqa: BLE001 - reported
                reply({"type": "error", "message": f"{type(error).__name__}: {error}"})
                return 1
    finally:
        heartbeats_stop.set()
        disk.close()


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as request:
        code = request.code
    # Every reply is flushed and the store is closed: skip the interpreter
    # teardown, which the parent would otherwise wait tens of ms for.
    os._exit(code or 0)
