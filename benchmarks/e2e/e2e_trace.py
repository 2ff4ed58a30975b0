"""Outside-in span tracer for the end-to-end benchmark.

The program carries no tracing code of its own yet, so the benchmark times
calls into each layer's public functions from the benchmark process: it
swaps each target for a timing wrapper while a traced repeat runs, and puts
the original back afterwards.

A target is patched in the module that *looks it up* at call time, not in
the module that defines it: ``nm_cij``, ``pm_cij``, ``voronoi.diagram`` and
``dynamic.maintenance`` import the Voronoi and filter functions by name,
``datasets.workload`` imports ``bulk_load_points`` by name and
``service.server`` imports ``encode_line`` by name, so patching the defining
module would miss every call.  Modules are fetched with
``importlib.import_module`` because ``import repro.join.nm_cij as m`` binds
the *function* the package re-exports under that name, not the submodule.

A missing target raises ``AttributeError`` on :meth:`Tracer.install`: a
renamed function must fail the benchmark, not silently drop a layer.

Spans nest on a per-thread stack (service windows and updates run on the
dataset's worker thread, while ``encode_line`` runs on the event loop).  A
span's *self time* is its duration minus the time of the spans it encloses,
so self times of all spans add up to the traced time without double
counting.  Subprocesses (distributed nodes) are invisible to the tracer;
forked pool workers inherit the wrappers, but what they record stays in
the child.
"""

from __future__ import annotations

import importlib
import threading
import time
import types
from typing import Callable, Dict, Iterable, List, Tuple

#: (span name, module that looks the function up, attribute path).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("storage.read", "repro.storage.disk", "DiskManager.read"),
    ("storage.write", "repro.storage.disk", "DiskManager.allocate"),
    ("storage.write", "repro.storage.disk", "DiskManager.write"),
    ("storage.fetch", "repro.storage.backends", "MemoryPageStore.read_page"),
    ("storage.fetch", "repro.storage.backends", "FilePageStore.read_page"),
    ("storage.fetch", "repro.storage.backends", "SQLitePageStore.read_page"),
    ("storage.fetch", "repro.storage.pageserver", "RemotePageStore.read_page"),
    # The stores call ``codec.decode_page_payload`` through the module at
    # call time, so the codec module itself is the lookup site.
    ("storage.decode", "repro.storage.codec", "decode_page_payload"),
    ("index.bulkload", "repro.datasets.workload", "bulk_load_points"),
    ("index.insert", "repro.index.rtree", "RTree.insert_point"),
    ("index.delete", "repro.index.rtree", "RTree.delete_point"),
    ("voronoi.leaf_cells", "repro.join.nm_cij", "compute_cells_for_leaf"),
    ("voronoi.leaf_cells", "repro.join.pm_cij", "compute_cells_for_leaf"),
    ("voronoi.leaf_cells", "repro.voronoi.diagram", "compute_cells_for_leaf"),
    ("voronoi.leaf_cells", "repro.dynamic.maintenance", "compute_cells_for_leaf"),
    ("voronoi.candidate_cells", "repro.join.nm_cij", "compute_voronoi_cells"),
    ("voronoi.candidate_cells", "repro.dynamic.maintenance", "compute_voronoi_cells"),
    ("filter.batch", "repro.join.nm_cij", "batch_conditional_filter"),
    ("filter.batch", "repro.dynamic.maintenance", "batch_conditional_filter"),
    # The engine's algorithm adapters import these at call time from the
    # defining modules, so the defining modules are the lookup sites.
    ("join.refine", "repro.join.nm_cij", "process_q_leaves"),
    ("join.mat", "repro.join.materialize", "materialize_voronoi_rtree"),
    ("fm.sync_join", "repro.join.fm_cij", "join_partitions"),
    ("engine.dispatch", "repro.engine.executors", "ShardedExecutor.execute"),
    ("engine.dispatch", "repro.engine.executors", "DistributedExecutor.execute"),
    ("engine.enumerate", "repro.engine.algorithms", "JoinAlgorithm.work_units"),
    ("engine.enumerate", "repro.engine.algorithms", "FMJoin.work_units"),
    ("engine.merge", "repro.engine.coordinator", "UnitCoordinator.merge"),
    ("engine.node_ready", "repro.engine.node", "NodeProcess.wait_ready"),
    ("engine.unit_rtt", "repro.engine.node", "NodeProcess.run_unit"),
    ("dynamic.apply_updates", "repro.dynamic.maintenance", "DynamicJoinSession.apply_updates"),
    ("dynamic.window_pairs", "repro.dynamic.maintenance", "DynamicJoinSession.window_pairs"),
    ("service.encode", "repro.service.server", "encode_line"),
)

#: The service's worker-queue entry point; wrapped specially (it is a
#: coroutine) to time how long each request waits for the worker thread.
SUBMIT_TARGET = ("repro.service.server", "DatasetState.submit")

#: Seconds a request waited between admission and the worker picking it up.
QUEUE_WAIT = "service.queue_wait"
#: The function a request runs on the worker thread.
WORKER_SPAN = "service.worker"

#: Spans whose individual inclusive durations are kept (for percentiles,
#: maxima and busy time); every other span only accumulates totals.
KEEP_DURATIONS = frozenset(
    {"engine.node_ready", "dynamic.apply_updates", "dynamic.window_pairs", WORKER_SPAN}
)


class _ThreadRecord:
    """One thread's span stack and accumulators (no locking on the hot path)."""

    __slots__ = ("stack", "self_time", "calls", "durations", "top_level")

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.top_level: List[Tuple[float, float]] = []


class Tracer:
    """Install timing wrappers, record spans, restore the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._records: List[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Patch every target; raises ``AttributeError`` if one is missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for name, module_name, path in TARGETS:
                owner, attr, original = _resolve(module_name, path)
                self._patch(owner, attr, self._wrap(name, original))
            owner, attr, original = _resolve(*SUBMIT_TARGET)
            self._patch(owner, attr, self._wrap_submit(original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    # -- recording ------------------------------------------------------
    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord()
            self._local.record = record
            with self._records_lock:
                self._records.append(record)
        return record

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        keep = name in KEEP_DURATIONS

        def traced(*args, **kwargs):
            record = self._record()
            stack = record.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = stack.pop()
                record.self_time[name] = record.self_time.get(name, 0.0) + duration - child
                record.calls[name] = record.calls.get(name, 0) + 1
                if keep:
                    record.durations.setdefault(name, []).append(duration)
                if stack:
                    stack[-1] += duration
                else:
                    record.top_level.append((start, end))

        traced.__wrapped__ = fn
        return traced

    def _wrap_submit(self, submit: Callable) -> Callable:
        clock = time.perf_counter

        async def traced_submit(state, fn):
            admitted = clock()

            def timed():
                record = self._record()
                record.durations.setdefault(QUEUE_WAIT, []).append(clock() - admitted)
                return fn()

            return await submit(state, self._wrap(WORKER_SPAN, timed))

        traced_submit.__wrapped__ = submit
        return traced_submit

    # -- results --------------------------------------------------------
    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``, in seconds."""
        return sum(r.self_time.get(name, 0.0) for r in self._snapshot())

    def calls(self, name: str) -> int:
        """How many spans called ``name`` completed."""
        return sum(r.calls.get(name, 0) for r in self._snapshot())

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of a :data:`KEEP_DURATIONS` span (or queue waits)."""
        out: List[float] = []
        for record in self._snapshot():
            out.extend(record.durations.get(name, ()))
        return out

    def coverage(self, windows: Iterable[Tuple[float, float]]) -> float:
        """Share of the ``windows`` covered by some thread's top-level span."""
        windows = sorted(windows)
        total = sum(end - start for start, end in windows)
        if total <= 0:
            return 0.0
        spans: List[Tuple[float, float]] = []
        for record in self._snapshot():
            spans.extend(record.top_level)
        covered = 0.0
        for start, end in _union(spans):
            for w_start, w_end in windows:
                covered += max(0.0, min(end, w_end) - max(start, w_start))
        return covered / total

    def _snapshot(self) -> List[_ThreadRecord]:
        with self._records_lock:
            return list(self._records)


def _resolve(module_name: str, path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, function)`` for a dotted path inside a module."""
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = vars(owner).get(attr)
    if not isinstance(original, types.FunctionType):
        raise AttributeError(
            f"trace target {module_name}.{path} is not a function defined "
            "there; was it renamed or moved?"
        )
    return owner, attr, original


def _union(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged
