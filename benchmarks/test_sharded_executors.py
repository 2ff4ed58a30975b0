"""Sharded-engine benchmark: FM-CIJ join-phase parallelism and the NM-CIJ
shard-boundary REUSE handoff.

Two claims are measured and written to ``benchmarks/results/``:

* **Sharded FM-CIJ** — the partitioned synchronous traversal distributes
  the join phase (the CPU-heavy polygon refinement walk) across forked
  workers with a byte-identical merged result.  Parallelism is asserted
  from the scheduling trace (at least two workers ran partitions, and the
  partitions were handed out once each), not from a wall clock: a join
  phase of a few tenths of a second loses to a loaded host.  The wall
  clocks are still recorded.
* **NM-CIJ boundary handoff** — two distributed nodes over a file store
  chain the REUSE buffer across unit boundaries, which drops the P-cell
  recomputation count of a parallel NM-CIJ to exactly the serial level;
  forked workers run independent units and recompute the boundary cells.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import median

from repro.datasets.synthetic import uniform_points
from repro.engine import default_engine
from repro.experiments.drivers.common import fresh_workload

# .txt tables carry wall clocks -> untracked sidecar (see conftest.py).
RESULTS_DIR = Path(__file__).parent / "results" / "local"

N_POINTS = int(os.environ.get("REPRO_SHARD_BENCH_POINTS", "1200"))
WORKERS = 4
#: Interleaved serial/sharded pairs behind the determinism check: two
#: sharded runs pull their partitions in two independent schedules, and
#: each must merge to the serial bytes.
ROUNDS = 2


def timed_run(algorithm, points_p, points_q, engine=None, storage=None, **overrides):
    workload = fresh_workload(points_p, points_q, storage=storage)
    try:
        start = time.perf_counter()
        result = (engine or default_engine()).run(
            algorithm,
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            **overrides,
        )
        elapsed = time.perf_counter() - start
        return result, elapsed
    finally:
        workload.close()


def write_table(name: str, lines) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines)
    (RESULTS_DIR / name).write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def test_sharded_fm_parallel_join(benchmark, bench_record):
    points_p = uniform_points(N_POINTS, seed=7)
    points_q = uniform_points(N_POINTS, seed=17)

    engine = default_engine()
    rounds = []
    traces = []
    for _ in range(ROUNDS):
        serial_run = timed_run("fm", points_p, points_q)
        sharded_run = timed_run(
            "fm", points_p, points_q, engine=engine, executor="sharded", workers=WORKERS
        )
        rounds.append((serial_run, sharded_run))
        traces.append(engine.last_executor.last_assignments)
    (serial, serial_wall), (sharded, sharded_wall) = rounds[0]

    write_table(
        "sharded_fm.txt",
        [
            f"sharded FM-CIJ ({N_POINTS} x {N_POINTS} points, {WORKERS} workers, "
            f"{os.cpu_count()} cpus)",
            f"{'config':10s} {'wall s':>8s} {'join s':>8s} {'pairs':>8s} {'pages':>8s}",
            f"{'serial':10s} {serial_wall:8.2f} {serial.stats.join_cpu_seconds:8.2f} "
            f"{len(serial.pairs):8d} {serial.stats.total_page_accesses:8d}",
            f"{'sharded':10s} {sharded_wall:8.2f} {sharded.stats.join_cpu_seconds:8.2f} "
            f"{len(sharded.pairs):8d} {sharded.stats.total_page_accesses:8d}",
        ],
    )

    bench_record(
        "sharded_fm",
        counters={
            "pairs": len(sharded.pairs),
            "serial_page_accesses": serial.stats.total_page_accesses,
            "sharded_page_accesses": sharded.stats.total_page_accesses,
        },
        info={
            "serial_wall_s": serial_wall,
            "sharded_wall_s": sharded_wall,
            "serial_join_s": median(s.stats.join_cpu_seconds for (s, _), _ in rounds),
            "sharded_join_s": median(x.stats.join_cpu_seconds for _, (x, _) in rounds),
        },
    )

    # Determinism: the merged shard output is byte-identical to the serial
    # coupled traversal, page accounting included — in every round.
    for (serial_run, _), (sharded_run, _) in rounds:
        assert sharded_run.pairs == serial_run.pairs
        assert (
            sharded_run.stats.total_page_accesses
            == serial_run.stats.total_page_accesses
        )

    # Parallelism: at least two forked workers ran partitions, and the
    # partition indices 0..n-1 were handed out exactly once each (with the
    # pairs equal to serial, no partition's output is missing either).
    for trace in traces:
        assert sum(1 for indices in trace.values() if indices) >= 2
        assigned = sorted(i for indices in trace.values() for i in indices)
        assert assigned == list(range(len(assigned)))

    benchmark(
        lambda: timed_run(
            "fm",
            points_p,
            points_q,
            executor="sharded",
            workers=WORKERS,
        )
    )


def test_nm_boundary_handoff_closes_work_gap(benchmark, bench_record):
    points_p = uniform_points(N_POINTS, seed=8)
    points_q = uniform_points(N_POINTS, seed=18)

    serial, _ = timed_run("nm", points_p, points_q)
    independent, _ = timed_run(
        "nm", points_p, points_q, executor="sharded", workers=2
    )
    # The chained run is the one timed, once: the counters below come from
    # the same run.
    handoff, _ = benchmark.pedantic(
        timed_run,
        args=("nm", points_p, points_q),
        kwargs={"storage": "file", "executor": "distributed", "nodes": 2},
        rounds=1,
        iterations=1,
    )

    def row(label, result):
        stats = result.stats
        return (
            f"{label:12s} {stats.cells_computed_p:10d} {stats.cells_reused_p:10d} "
            f"{len(result.pairs):8d}"
        )

    write_table(
        "sharded_nm_handoff.txt",
        [
            f"NM-CIJ shard-boundary REUSE ({N_POINTS} x {N_POINTS} points; "
            "no-handoff: 2 forked workers, handoff: 2 nodes over a file store)",
            f"{'config':12s} {'P computed':>10s} {'P reused':>10s} {'pairs':>8s}",
            row("serial", serial),
            row("no-handoff", independent),
            row("handoff", handoff),
        ],
    )

    bench_record(
        "sharded_nm_handoff",
        counters={
            "pairs": len(serial.pairs),
            "serial_cells_computed_p": serial.stats.cells_computed_p,
            "no_handoff_cells_computed_p": independent.stats.cells_computed_p,
            "handoff_cells_computed_p": handoff.stats.cells_computed_p,
            "handoff_cells_reused_p": handoff.stats.cells_reused_p,
        },
    )

    assert independent.pairs == handoff.pairs == serial.pairs
    # Independent forked units recompute the boundary cells; the handoff
    # eliminates every one of them, matching serial exactly.
    assert independent.stats.cells_computed_p > serial.stats.cells_computed_p
    assert handoff.stats.cells_computed_p == serial.stats.cells_computed_p
    assert handoff.stats.cells_reused_p == serial.stats.cells_reused_p
