"""The workloads of the end-to-end CIJ benchmark, their checks and metrics.

Every workload builds its inputs from the seed, hands the program only
points (``build_workload(points_p=..., points_q=...)``) — except the
service, which builds its dataset from ``DatasetSpec(seed=...)`` — and uses
the file page store with the paper's 2% LRU buffer.  Each repeat builds a
fresh workload: PM and FM leave their Voronoi trees in the store, and a
reused store would size a bigger buffer on the next reset and read fewer
pages.

A run measures several input sets, all drawn from its seed
(:func:`variant_seeds`), and repeats its workload on them in turn until
``seconds`` have passed (and at least ``Scale.min_repeats`` times, and once
per input set).  Untraced repeats feed the end-to-end metrics; with
tracing on, traced and untraced repeats alternate, the traced ones feed
the per-layer metrics and the pair gives the tracing overhead.

The end-to-end timings are in *reference-host seconds* (:mod:`e2e_probe`):
``setup_s`` is the median set-up, ``elapsed_s`` the mean over the input
sets of each set's median repeat.  A probe samples the
host's speed during the timed work, and each interval is divided by the
slowdown it saw.  Serial and service workloads run pinned to one CPU, so
the probe samples the core their work runs on; ``nm-parallel`` keeps every
CPU and the probe samples them in turn.  Traced runs use no probe: their
per-layer timings are raw seconds.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datasets.synthetic import DOMAIN, gaussian_points, uniform_points
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import JoinEngine
from repro.geometry.rect import Rect
from repro.service import DatasetSpec, JoinService

from e2e_client import NdjsonClient, RequestFailed
from e2e_probe import HostProbe
from e2e_trace import QUEUE_WAIT, WORKER_SPAN, Tracer

#: The paper's buffer: 2% of the data size on disk.
BUFFER_FRACTION = 0.02
#: Every workload pages through real files.
STORAGE = "file"
#: Closed-loop service clients (the machine the baseline ran on has 2 cores).
SERVICE_CLIENTS = 2
#: Side of the square service windows.
WINDOW_SIDE = 800.0
#: Fork-pool workers and node subprocesses of ``nm-parallel``.
PARALLELISM = 2
#: Seconds before a service request counts as failed.
REQUEST_TIMEOUT = 30.0
#: Clustered inputs: Zipf-sized Gaussian clusters (3% of the domain side)
#: around fixed centres, one layout for P and another for Q, plus 10%
#: uniform background.  The seed resamples points inside the layouts rather
#: than moving the clusters: with seeded centres, cluster placement alone
#: moved FM's page accesses by over 10% between seeds.
CLUSTERS = 10
CLUSTER_SPREAD = 0.03
LAYOUT_SEEDS = {"P": 101, "Q": 202}
LAYOUT_AREA = Rect(1500.0, 1500.0, 8500.0, 8500.0)
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes and repeat floor of one benchmark scale."""

    nm_points: int
    fm_points: int
    service_points: int
    service_rounds: int
    min_repeats: int
    #: Extra set-ups timed per batch run, on top of one per repeat.
    setup_samples: int
    #: Input sets per run (see :func:`variant_seeds`).
    variants: int


SCALES = {
    "full": Scale(
        nm_points=600,
        fm_points=2000,
        service_points=500,
        service_rounds=10,
        min_repeats=3,
        setup_samples=30,
        variants=6,
    ),
    "smoke": Scale(
        nm_points=200,
        fm_points=200,
        service_points=200,
        service_rounds=5,
        min_repeats=1,
        setup_samples=1,
        variants=1,
    ),
}


class Outcome:
    """A run's metrics, operations attempted and failed, and failed checks."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: List[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok: bool, what: str) -> None:
        self.op(ok)
        if not ok:
            self.check_failures.append(what)

    def finish(self, metrics: Dict[str, float]) -> "Outcome":
        self.metrics = metrics
        return self


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def variant_seeds(seed: int, count: int) -> List[int]:
    """The input seeds of run ``seed``: ``count`` of them, disjoint across runs.

    How long a workload takes depends on its inputs.  With one input set
    per run, ten seeds spread ``nm-uniform``'s join time by 6-9% and the
    service's closed loop by 7-14% (interquartile range over median), while
    ten runs on one input set spread by 3%.  A run therefore measures
    several input sets and reports the mean of their medians.
    """
    return [seed * count + k for k in range(count)]


def repeat_plan(
    began: float, seconds: float, scale: Scale, trace: bool
) -> Iterator[Tuple[int, bool]]:
    """Yield ``(variant, traced)`` until the floor is met and one more repeat
    of average length would end more than ``seconds`` after ``began``.

    ``began`` is the start of the run, so work before the repeats (extra
    set-ups, the serial reference joins) counts into the run's length.
    Untraced repeats cycle through the variants, and the floor covers each
    once.  With tracing, repeats alternate untraced/traced starting
    untraced, each pair on one variant, and the floor counts both kinds (at
    least one of each).
    """
    floor = max(2, scale.min_repeats) if trace else max(scale.min_repeats, scale.variants)
    start = clock()
    index = 0
    while index < floor or (now := clock()) + (now - start) / index < began + seconds:
        if trace:
            yield (index // 2) % scale.variants, index % 2 == 1
        else:
            yield index % scale.variants, False
        index += 1


@contextlib.contextmanager
def pinned(one_cpu: bool) -> Iterator[None]:
    """Run the block on the lowest allowed CPU when ``one_cpu``, then restore."""
    allowed = os.sched_getaffinity(0)
    if one_cpu:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def pairs_digest(pairs) -> str:
    return hashlib.sha256(repr(sorted(pairs)).encode("ascii")).hexdigest()


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile (the maximum for fewer than 20 values)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_of_medians(samples: Dict[int, List[float]]) -> float:
    """Mean over the variants of each variant's median sample."""
    return statistics.fmean(statistics.median(values) for values in samples.values())


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Largest child reaped before the run: a launcher script's helpers, which
#: the interpreter inherits through ``exec`` (about 3 MB behind a version
#: manager's ``python3`` shim).
CHILD_RSS_BEFORE = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child reaped
    during the run (fork workers and nodes are far above any launcher's)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if child <= CHILD_RSS_BEFORE:
        child = 0
    return (own + child) / 1024.0


def first_pair_pages(stats) -> int:
    """Page accesses at the first progress sample that reports pairs."""
    for sample in stats.progress:
        if sample.pairs_reported > 0:
            return sample.page_accesses
    return stats.total_page_accesses


def span_metrics(tracer: Tracer, windows: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer metrics read from the tracer (0 for layers not exercised)."""
    node_ready = tracer.durations("engine.node_ready")
    return {
        "storage.read_s": tracer.self_time("storage.read"),
        "storage.read_calls": tracer.calls("storage.read"),
        "storage.fetch_s": tracer.self_time("storage.fetch"),
        "storage.fetch_calls": tracer.calls("storage.fetch"),
        "storage.decode_s": tracer.self_time("storage.decode"),
        "storage.write_s": tracer.self_time("storage.write"),
        "index.bulkload_s": tracer.self_time("index.bulkload"),
        "index.insert_s": tracer.self_time("index.insert"),
        "index.delete_s": tracer.self_time("index.delete"),
        "voronoi.leaf_cells_s": tracer.self_time("voronoi.leaf_cells"),
        "voronoi.leaf_cells_calls": tracer.calls("voronoi.leaf_cells"),
        "voronoi.candidate_cells_s": tracer.self_time("voronoi.candidate_cells"),
        "filter.batch_s": tracer.self_time("filter.batch"),
        "filter.batch_calls": tracer.calls("filter.batch"),
        "join.refine_s": tracer.self_time("join.refine"),
        "join.mat_s": tracer.self_time("join.mat"),
        "fm.sync_join_s": tracer.self_time("fm.sync_join"),
        "engine.dispatch_s": tracer.self_time("engine.dispatch"),
        "engine.enumerate_s": tracer.self_time("engine.enumerate"),
        "engine.merge_s": tracer.self_time("engine.merge"),
        "engine.node_ready_s": max(node_ready, default=0.0),
        "engine.unit_rtt_s": tracer.self_time("engine.unit_rtt"),
        "dynamic.apply_updates_p50_ms": 1e3
        * median_or_zero(tracer.durations("dynamic.apply_updates")),
        "dynamic.window_pairs_p50_ms": 1e3
        * median_or_zero(tracer.durations("dynamic.window_pairs")),
        "service.queue_wait_p50_ms": 1e3 * median_or_zero(tracer.durations(QUEUE_WAIT)),
        "service.encode_s": tracer.self_time("service.encode"),
        "trace.coverage": tracer.coverage(windows),
    }


def median_metrics(per_repeat: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over repeats."""
    return {
        name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]
    }


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchWorkload:
    algorithm: str
    #: ``"uniform"`` or ``"clustered"`` inputs.
    inputs: str
    #: Engine overrides selecting the executor of each join in a repeat;
    #: every join runs on a fresh workload.
    executors: Tuple[Dict[str, object], ...] = ({},)

    @property
    def parallel(self) -> bool:
        return any(self.executors)


@dataclass(frozen=True)
class JoinTimes:
    """Clock readings of one join: set-up start, set-up end (join start), join end."""

    executor_kind: str
    start: float
    built: float
    done: float

    @property
    def window(self) -> Tuple[float, float]:
        return self.start, self.done


@dataclass
class BatchJoin:
    """One join on a fresh workload."""

    result: object
    executor: object
    hits: int
    logical_reads: int
    times: JoinTimes


#: The joins of one repeat, one per executor of the workload.
BatchRepeat = List[BatchJoin]


def make_points(inputs: str, n: int, seed: int):
    """P and Q for ``seed``: distinct generator seeds, so distinct sets."""
    if inputs == "uniform":
        return uniform_points(n, seed=2 * seed), uniform_points(n, seed=2 * seed + 1)
    return clustered(n, 2 * seed, "P"), clustered(n, 2 * seed + 1, "Q")


def clustered(n: int, seed: int, side: str):
    """``n`` points in ``side``'s cluster layout (see :data:`CLUSTERS`)."""
    centres = uniform_points(CLUSTERS, seed=LAYOUT_SEEDS[side], domain=LAYOUT_AREA)
    background = n // 10
    weights = [1.0 / (rank + 1) for rank in range(CLUSTERS)]
    sizes = [int((n - background) * w / sum(weights)) for w in weights]
    sizes[0] += n - background - sum(sizes)
    base = seed * (CLUSTERS + 1)
    points = uniform_points(background, seed=base)
    for k, (centre, size) in enumerate(zip(centres, sizes)):
        points += gaussian_points(
            size, seed=base + 1 + k, center=centre, spread_fraction=CLUSTER_SPREAD
        )
    if len({(p.x, p.y) for p in points}) != n:
        raise RuntimeError(f"clustered inputs for seed {seed} hold coincident points")
    return points


def build(inputs: str, n: int, seed: int):
    """Generate the inputs and build a fresh file-backed workload on them."""
    points_p, points_q = make_points(inputs, n, seed)
    return build_workload(
        WorkloadConfig(storage=STORAGE, buffer_fraction=BUFFER_FRACTION),
        points_p=points_p,
        points_q=points_q,
    )


def timed_setup(inputs: str, n: int, seed: int) -> Tuple[float, float]:
    """Clock readings around one set-up (the workload is then discarded)."""
    start = clock()
    workload = build(inputs, n, seed)
    end = clock()
    workload.close()
    return start, end


def batch_join(
    algorithm: str,
    inputs: str,
    n: int,
    seed: int,
    executor: Dict[str, object],
    tracer: Optional[Tracer] = None,
) -> BatchJoin:
    """Generate inputs, build a fresh file-backed workload, run one join."""
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        workload = build(inputs, n, seed)
        try:
            built = clock()
            engine = JoinEngine()
            result = engine.run(
                algorithm, workload.tree_p, workload.tree_q, domain=workload.domain, **executor
            )
            done = clock()
            counters = workload.disk.counters
            hits, logical_reads = counters.buffer_hits, counters.logical_reads
        finally:
            workload.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return BatchJoin(
        result=result,
        executor=engine.last_executor,
        hits=hits,
        logical_reads=logical_reads,
        times=JoinTimes(str(executor.get("executor", "serial")), start, built, done),
    )


#: Clock readings of a run's repeats, by variant.
RepeatTimes = Dict[int, List[List[JoinTimes]]]


def join_s(times: JoinTimes, probe: HostProbe) -> float:
    return probe.seconds(times.built, times.done)


def elapsed_s(repeats: RepeatTimes, probe: HostProbe) -> float:
    """Mean over the variants of the median repeat's join time."""
    return mean_of_medians(
        {
            variant: [sum(join_s(join, probe) for join in repeat) for repeat in runs]
            for variant, runs in repeats.items()
        }
    )


def speedup(
    references: Dict[int, BatchJoin], repeats: RepeatTimes, kind: str, probe: HostProbe
) -> float:
    """Median over the joins of executor ``kind`` of the serial NM join time
    on the same inputs over theirs (0 without serial references)."""
    ratios = [
        join_s(references[variant].times, probe) / join_s(join, probe)
        for variant, runs in repeats.items()
        if variant in references
        for repeat in runs
        for join in repeat
        if join.executor_kind == kind
    ]
    return median_or_zero(ratios)


def batch_layers(
    repeat: BatchRepeat, tracer: Tracer, reference: Optional[BatchJoin]
) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat; counts add up its joins."""

    def total(count) -> float:
        return sum(count(join.result) for join in repeat)

    computed_p = total(lambda r: r.stats.cells_computed_p)
    reused_p = total(lambda r: r.stats.cells_reused_p)
    candidates = total(lambda r: r.stats.filter_candidates)
    metrics = span_metrics(tracer, [join.times.window for join in repeat])
    metrics.update(
        {
            "storage.buffer_hit_ratio": ratio(
                sum(join.hits for join in repeat), sum(join.logical_reads for join in repeat)
            ),
            "storage.bytes_read": total(lambda r: r.storage.bytes_read),
            "voronoi.cells_computed": computed_p + total(lambda r: r.stats.cells_computed_q),
            "voronoi.refinements": total(lambda r: r.cell_stats.refinements),
            "voronoi.reuse_ratio": ratio(reused_p, reused_p + computed_p),
            "filter.candidates": candidates,
            "filter.points_examined": total(lambda r: r.filter_stats.points_examined),
            "filter.true_hit_ratio": ratio(total(lambda r: r.stats.filter_true_hits), candidates),
            "join.mat_page_accesses": total(lambda r: r.stats.mat_page_accesses),
            "join.join_page_accesses": total(lambda r: r.stats.join_page_accesses),
            "join.first_pair_pages": total(lambda r: first_pair_pages(r.stats)),
            "engine.cells_recomputed_p": 0,
            "engine.unit_skew": 0.0,
            "dynamic.cells_invalidated": 0,
            "dynamic.final_join_pages": 0,
            "service.worker_busy_ratio": 0.0,
        }
    )
    if reference is not None:
        metrics["engine.cells_recomputed_p"] = (
            computed_p - len(repeat) * reference.result.stats.cells_computed_p
        )
        skews = []
        for join in repeat:
            units = [len(v) for v in (join.executor.last_assignments or {}).values()]
            skews.append(ratio(max(units, default=0), min(units, default=0)))
        metrics["engine.unit_skew"] = max(skews)
    return metrics


def run_batch(
    spec: BatchWorkload, scale: Scale, seed: int, seconds: float, trace: bool, probe: HostProbe
) -> Outcome:
    began = clock()
    outcome = Outcome()
    n = scale.fm_points if spec.algorithm == "fm" else scale.nm_points
    seeds = variant_seeds(seed, scale.variants)
    references: Dict[int, BatchJoin] = {}
    if spec.parallel:
        # The serial NM run on identical inputs is the pair oracle for the
        # parallel executors, and the base of recomputation and speedup.
        for variant, variant_seed in enumerate(seeds):
            references[variant] = batch_join("nm", spec.inputs, n, variant_seed, {})
            outcome.op(True)
    # A set-up takes milliseconds, so a few repeats' worth of samples would
    # be noisy: time extra set-ups before the measured repeats.
    setups = [] if trace else [
        timed_setup(spec.inputs, n, seeds[k % len(seeds)]) for k in range(scale.setup_samples)
    ]
    # Each repeat is checked and measured as soon as it ends, and only its
    # clock readings are kept: holding every result until the end made peak
    # memory grow with the number of repeats, so with the host's speed.
    expected: Dict[int, List[Tuple[int, int, str]]] = {}
    untraced: RepeatTimes = {}
    traced: RepeatTimes = {}
    layers: List[Dict[str, float]] = []
    for index, (variant, is_traced) in enumerate(repeat_plan(began, seconds, scale, trace)):
        tracer = Tracer() if is_traced else None
        repeat = [
            batch_join(spec.algorithm, spec.inputs, n, seeds[variant], executor, tracer)
            for executor in spec.executors
        ]
        for _ in repeat:
            outcome.op(True)
        if variant not in expected:
            expected[variant] = [fingerprint(join) for join in repeat]
            if variant in references:
                check_executors(repeat, references[variant], outcome)
        check_repeat(index, repeat, expected[variant], n, outcome)
        if tracer is not None:
            layers.append(batch_layers(repeat, tracer, references.get(variant)))
        times = traced if is_traced else untraced
        times.setdefault(variant, []).append([join.times for join in repeat])

    if not trace:
        return outcome.finish(
            {
                "setup_s": statistics.median(
                    [probe.seconds(start, end) for start, end in setups]
                    + [
                        probe.seconds(join.start, join.built)
                        for runs in untraced.values()
                        for repeat in runs
                        for join in repeat
                    ]
                ),
                "elapsed_s": elapsed_s(untraced, probe),
                "page_accesses": sum(
                    pages for prints in expected.values() for pages, _, _ in prints
                ),
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    metrics = median_metrics(layers)
    # Both sides over the same variants: each traced repeat has an
    # untraced partner on its inputs.
    untraced_join = elapsed_s({v: untraced[v] for v in traced}, probe)
    traced_join = elapsed_s(traced, probe)
    metrics.update(
        {
            "engine.parallel_speedup": speedup(references, untraced, "sharded", probe),
            "engine.nodes_speedup": speedup(references, untraced, "distributed", probe),
            "service.update_p50_ms": 0.0,
            "service.window_p50_ms": 0.0,
            "service.join_p50_ms": 0.0,
            "service.req_p95_ms": 0.0,
            "service.qps": 0.0,
            "trace.overhead": traced_join / untraced_join - 1.0,
        }
    )
    return outcome.finish(metrics)


def fingerprint(join: BatchJoin) -> Tuple[int, int, str]:
    """Page accesses, first-pair pages and the sha256 of the sorted pairs."""
    stats = join.result.stats
    return (stats.total_page_accesses, first_pair_pages(stats), pairs_digest(join.result.pairs))


def check_repeat(
    index: int,
    repeat: BatchRepeat,
    expected: List[Tuple[int, int, str]],
    point_count: int,
    outcome: Outcome,
) -> None:
    """Counts and pairs as in the first repeat on the same inputs, and every
    point in some pair."""
    everyone = set(range(point_count))
    for join, wanted in zip(repeat, expected):
        kind = join.times.executor_kind
        found = fingerprint(join)
        outcome.check(
            found == wanted,
            f"repeat {index}, {kind}: (pages, first-pair pages, pairs sha256) "
            f"{found} != {wanted} of the first repeat on these inputs",
        )
        pairs = join.result.pairs
        outcome.check(
            {p for p, _ in pairs} == everyone and {q for _, q in pairs} == everyone,
            f"repeat {index}, {kind}: some point of P or Q is in no pair",
        )


def check_executors(repeat: BatchRepeat, reference: BatchJoin, outcome: Outcome) -> None:
    """Every parallel executor's pairs equal the serial NM pairs."""
    serial = pairs_digest(reference.result.pairs)
    for join in repeat:
        outcome.check(
            pairs_digest(join.result.pairs) == serial,
            f"{join.times.executor_kind} pairs differ from the serial NM pairs on the same inputs",
        )


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
@dataclass
class ServiceRepeat:
    #: Clock readings: before ``start()``, after it, after the closed loop.
    start: float
    started: float
    done: float
    latencies: Dict[str, List[float]]
    #: Page accesses of a fresh NM join over the final trees (0 when the
    #: repeat was not verified).
    final_pages: int
    final_digest: str
    busy_s: float = 0.0
    cells_invalidated: int = 0
    cells_computed: int = 0
    refinements: int = 0
    candidates: int = 0
    points_examined: int = 0

    @property
    def window(self) -> Tuple[float, float]:
        return self.start, self.done

    @property
    def loop_s(self) -> float:
        return self.done - self.started


#: One client's rounds: (window corners, update lines) per round.
ClientScript = List[Tuple[List[float], List[str]]]


def stratified(rng: random.Random, count: int, width: float, height: float):
    """``count`` points in ``[0, width] x [0, height]``, one in each cell of a
    grid of ``count`` cells, in random order."""
    cols = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    rows = count // cols
    cells = [(i, j) for i in range(cols) for j in range(rows)]
    rng.shuffle(cells)
    return [((i + rng.random()) * width / cols, (j + rng.random()) * height / rows)
            for i, j in cells]


def client_scripts(seed: int, rounds: int) -> List[ClientScript]:
    """Every client's windows and updates for ``seed``.

    Each round holds a window and an update of two inserts plus the delete
    of the client's previous P insert.  Window corners, P inserts and Q
    inserts are each stratified over the domain: what a request costs
    depends on where it lands, and with independent uniform positions the
    closed loop's time varied by 12% between seeds.  Oids are disjoint
    across clients, so the final point sets — and the final join answer —
    do not depend on how the clients interleave.
    """
    rng = random.Random(seed)
    slots = SERVICE_CLIENTS * rounds
    corners = stratified(rng, slots, DOMAIN.xmax - WINDOW_SIDE, DOMAIN.ymax - WINDOW_SIDE)
    inserts_p = stratified(rng, slots, DOMAIN.xmax, DOMAIN.ymax)
    inserts_q = stratified(rng, slots, DOMAIN.xmax, DOMAIN.ymax)
    scripts = []
    for client in range(SERVICE_CLIENTS):
        script = []
        for round_no in range(rounds):
            slot = client * rounds + round_no
            x0, y0 = corners[slot]
            base = 1_000_000 * (client + 1) + 10 * round_no
            (px, py), (qx, qy) = inserts_p[slot], inserts_q[slot]
            lines = [f"insert P {base} {px!r} {py!r}", f"insert Q {base + 1} {qx!r} {qy!r}"]
            if round_no >= 1:
                lines.append(f"delete P {base - 10}")
            script.append(([x0, y0, x0 + WINDOW_SIDE, y0 + WINDOW_SIDE], lines))
        scripts.append(script)
    return scripts


async def run_client(
    host: str,
    port: int,
    script: ClientScript,
    latencies: Dict[str, List[float]],
    outcome: Outcome,
) -> None:
    """One closed-loop client: window, update, join per round."""
    conn = NdjsonClient(host, port, timeout=REQUEST_TIMEOUT)
    await conn.connect()
    try:
        for window, updates in script:
            requests = (
                ("window", {"op": "window", "window": window}),
                ("update", {"op": "update", "updates": updates}),
                ("join", {"op": "join"}),
            )
            for op, payload in requests:
                start = clock()
                try:
                    await conn.request({"dataset": "default", **payload})
                except RequestFailed:
                    outcome.op(False)
                    await conn.connect()
                    continue
                latencies[op].append(clock() - start)
                outcome.op(True)
    finally:
        await conn.close()


def initial_pages(scale: Scale, seed: int) -> int:
    """Page accesses of NM over the trees the service starts from.

    The service builds its dataset from the same configuration; the join
    runs on a copy of its own, so the service's buffer stays untouched.
    The service's own counters cannot give this: they are reset after the
    bulk load, and its session keeps the disk's I/O accounting suspended.
    """
    config = WorkloadConfig(
        n_p=scale.service_points,
        n_q=scale.service_points,
        seed=seed,
        storage=STORAGE,
        buffer_fraction=BUFFER_FRACTION,
    )
    with build_workload(config) as workload:
        result = JoinEngine().run(
            "nm", workload.tree_p, workload.tree_q, domain=workload.domain
        )
    return result.stats.total_page_accesses


def fresh_join(state):
    """A from-scratch NM run over the service's final trees."""
    session = state.session
    state.workload.reset_measurement(buffer_fraction=BUFFER_FRACTION)
    return JoinEngine().run("nm", session.tree_p, session.tree_q, domain=session.domain)


async def service_repeat(
    scale: Scale, seed: int, outcome: Outcome, tracer: Optional[Tracer], verify: bool
) -> ServiceRepeat:
    """One service life: start, closed loop, final join, close.

    With ``verify`` the final served join is checked against a fresh
    engine run over the final trees.  Every repeat on the same inputs
    must serve the same final pairs, so checking the first one suffices.
    """
    spec = DatasetSpec(
        name="default",
        n_p=scale.service_points,
        n_q=scale.service_points,
        seed=seed,
        storage=STORAGE,
        max_queue=64,
    )
    service = JoinService([spec])
    latencies: Dict[str, List[float]] = {"window": [], "update": [], "join": []}
    scripts = client_scripts(seed, scale.service_rounds)
    if tracer is not None:
        tracer.install()
    try:
        try:
            start = clock()
            host, port = await service.start()
            started = clock()
            await asyncio.gather(
                *(
                    run_client(host, port, script, latencies, outcome)
                    for script in scripts
                )
            )
            done = clock()
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Checks run untraced: the served answer must equal a fresh run.
        conn = NdjsonClient(host, port, timeout=REQUEST_TIMEOUT)
        await conn.connect()
        try:
            served = await conn.request({"op": "join", "dataset": "default"})
        finally:
            await conn.close()
        served_pairs = [tuple(pair) for pair in served["pairs"]]
        state = service.datasets["default"]
        final_pages = 0
        if verify:
            fresh = await state.submit(lambda: fresh_join(state))
            outcome.check(
                served_pairs == sorted(fresh.pair_set()),
                "served join differs from a fresh engine run on the final trees",
            )
            final_pages = fresh.stats.total_page_accesses
        session = state.session
        repeat = ServiceRepeat(
            start=start,
            started=started,
            done=done,
            latencies=latencies,
            final_pages=final_pages,
            final_digest=pairs_digest(served_pairs),
            cells_invalidated=session.stats.cells_invalidated,
            cells_computed=len(session.cells_p)
            + len(session.cells_q)
            + session.stats.cells_invalidated,
            refinements=session.cell_stats.refinements,
            candidates=session.filter_stats.points_admitted,
            points_examined=session.filter_stats.points_examined,
        )
    finally:
        await service.close()
    if tracer is not None:
        repeat.busy_s = sum(tracer.durations(WORKER_SPAN))
    return repeat


def service_layers(repeat: ServiceRepeat, tracer: Tracer) -> Dict[str, float]:
    metrics = span_metrics(tracer, [repeat.window])
    metrics.update(
        {
            "storage.buffer_hit_ratio": 0.0,
            "storage.bytes_read": 0,
            "voronoi.cells_computed": repeat.cells_computed,
            "voronoi.refinements": repeat.refinements,
            "voronoi.reuse_ratio": 0.0,
            "filter.candidates": repeat.candidates,
            "filter.points_examined": repeat.points_examined,
            "filter.true_hit_ratio": 0.0,
            "join.mat_page_accesses": 0,
            "join.join_page_accesses": 0,
            "join.first_pair_pages": 0,
            "engine.cells_recomputed_p": 0,
            "engine.unit_skew": 0.0,
            "dynamic.cells_invalidated": repeat.cells_invalidated,
            "dynamic.final_join_pages": repeat.final_pages,
            "service.worker_busy_ratio": ratio(repeat.busy_s, repeat.loop_s),
        }
    )
    return metrics


def run_service(
    scale: Scale, seed: int, seconds: float, trace: bool, probe: HostProbe
) -> Outcome:
    began = clock()
    outcome = Outcome()
    seeds = variant_seeds(seed, scale.variants)
    # One NM join per input set would take a fifth of the run; the first
    # input set's pages are exact per seed all the same.
    pages = 0 if trace else initial_pages(scale, seeds[0])
    untraced: Dict[int, List[ServiceRepeat]] = {}
    traced: Dict[int, List[ServiceRepeat]] = {}
    layers: List[Dict[str, float]] = []
    for variant, is_traced in repeat_plan(began, seconds, scale, trace):
        tracer = Tracer() if is_traced else None
        verify = is_traced or not (variant in untraced or variant in traced)
        repeat = asyncio.run(service_repeat(scale, seeds[variant], outcome, tracer, verify))
        if tracer is not None:
            layers.append(service_layers(repeat, tracer))
        (traced if is_traced else untraced).setdefault(variant, []).append(repeat)
    for variant in sorted(set(untraced) | set(traced)):
        repeats = untraced.get(variant, []) + traced.get(variant, [])
        outcome.check(
            len({r.final_digest for r in repeats}) == 1,
            f"final served pairs differ between repeats on input seed {seeds[variant]}",
        )
    every = [r for repeats in untraced.values() for r in repeats]

    def pooled(ops: Sequence[str]) -> List[float]:
        return [t for r in every for op in ops for t in r.latencies[op]]

    def loop_s(repeats: Dict[int, List[ServiceRepeat]]) -> float:
        return mean_of_medians(
            {v: [probe.seconds(r.started, r.done) for r in runs] for v, runs in repeats.items()}
        )

    if not trace:
        return outcome.finish(
            {
                "setup_s": statistics.median(probe.seconds(r.start, r.started) for r in every),
                "elapsed_s": loop_s(untraced),
                "page_accesses": pages,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    metrics = median_metrics(layers)
    metrics.update(
        {
            "engine.parallel_speedup": 0.0,
            "engine.nodes_speedup": 0.0,
            "service.update_p50_ms": 1e3 * median_or_zero(pooled(("update",))),
            "service.window_p50_ms": 1e3 * median_or_zero(pooled(("window",))),
            "service.join_p50_ms": 1e3 * median_or_zero(pooled(("join",))),
            "service.req_p95_ms": 1e3 * p95(pooled(("window", "update", "join"))),
            "service.qps": statistics.median(
                ratio(sum(len(v) for v in r.latencies.values()), r.loop_s) for r in every
            ),
            # Both sides over the same variants, as for batch workloads.
            "trace.overhead": loop_s(traced) / loop_s({v: untraced[v] for v in traced}) - 1.0,
        }
    )
    return outcome.finish(metrics)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
BATCH_WORKLOADS = {
    "nm-uniform": BatchWorkload("nm", "uniform"),
    "fm-clustered": BatchWorkload("fm", "clustered"),
    "nm-parallel": BatchWorkload(
        "nm",
        "uniform",
        (
            {"executor": "sharded", "workers": PARALLELISM},
            {"executor": "distributed", "nodes": PARALLELISM},
        ),
    ),
}


def run(name: str, seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Run one workload and return its metrics and check results.

    Only ``nm-parallel`` keeps every CPU; the others run pinned to one.
    """
    chosen = SCALES[scale]
    batch = BATCH_WORKLOADS.get(name)
    with pinned(batch is None or not batch.parallel), HostProbe(enabled=not trace) as probe:
        if batch is None:
            return run_service(chosen, seed, seconds, trace, probe)
        return run_batch(batch, chosen, seed, seconds, trace, probe)

