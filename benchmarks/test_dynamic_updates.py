"""Dynamic-workload benchmark: incremental maintenance vs full rebuild.

For a range of update-batch sizes the same stream is absorbed twice:

* **incremental** — one :class:`~repro.dynamic.DynamicJoinSession` applies
  the batches; the cost is the number of exact Voronoi cells recomputed
  (``cells_invalidated``, the dominant cost of the join per the Figure 7
  breakdown) plus the wall-clock of ``apply_updates``.
* **rebuild** — after every batch the join is recomputed from scratch,
  which recomputes the cells of *every* live point.

The table written to ``benchmarks/results/local/dynamic_updates.txt`` reports
both, and the test asserts the paper-style claim: for small batches the
incremental path performs measurably fewer cell computations than the
rebuild (and never returns a different answer — the differential suite in
``tests/dynamic/`` enforces that on every stream; here it is sampled once
per batch size).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.datasets.workload import (
    DynamicWorkloadConfig,
    WorkloadConfig,
    build_workload,
    generate_update_batches,
)
from repro.dynamic import DynamicJoinSession
from repro.engine import JoinEngine

# .txt tables carry wall clocks -> untracked sidecar (see conftest.py).
RESULTS_DIR = Path(__file__).parent / "results" / "local"

#: Points per side of the base workload (override for larger machines).
N_POINTS = int(os.environ.get("REPRO_DYNAMIC_BENCH_POINTS", "400"))
BATCHES = 4
BATCH_SIZES = (1, 4, 16, 64)


def _run_stream(batch_size: int):
    """Absorb one stream incrementally, counting rebuild cost alongside."""
    engine = JoinEngine()
    workload = build_workload(WorkloadConfig(n_p=N_POINTS, n_q=N_POINTS, seed=29))
    session = DynamicJoinSession(workload.tree_p, workload.tree_q, domain=workload.domain)
    batches = generate_update_batches(
        workload,
        DynamicWorkloadConfig(batches=BATCHES, batch_size=batch_size, seed=71),
    )
    rebuild_cells = 0
    wall = 0.0
    for batch in batches:
        start = time.perf_counter()
        session.apply_updates(batch)
        wall += time.perf_counter() - start
        # What keeping the answer current by rebuilding would recompute
        # after this batch: the cells of every live point.
        rebuild_cells += session.point_count("P") + session.point_count("Q")
    # Sampled differential check: the incremental answer equals a rebuild.
    rebuilt = engine.run(
        "nm", session.tree_p, session.tree_q, domain=session.domain
    )
    final_ok = session.pair_set() == rebuilt.pair_set()
    stats = session.stats
    workload.close()
    return {
        "batch_size": batch_size,
        "updates": stats.updates_applied,
        "incremental_cells": stats.cells_invalidated,
        "rebuild_cells": rebuild_cells,
        "delta_pairs": stats.pairs_emitted + stats.pairs_retracted,
        "wall": wall,
        "matches_rebuild": final_ok,
    }


def test_incremental_maintenance_beats_rebuild(benchmark, bench_record):
    rows = [_run_stream(size) for size in BATCH_SIZES]

    lines = [
        f"dynamic updates: incremental delta-CIJ vs rebuild "
        f"({N_POINTS} x {N_POINTS} base points, {BATCHES} batches per stream)",
        f"{'batch':>6s} {'updates':>8s} {'incr cells':>11s} {'rebuild cells':>14s} "
        f"{'saving':>7s} {'pair delta':>11s} {'incr s':>7s} {'== rebuild':>11s}",
    ]
    for row in rows:
        saving = 1.0 - row["incremental_cells"] / row["rebuild_cells"]
        lines.append(
            f"{row['batch_size']:6d} {row['updates']:8d} "
            f"{row['incremental_cells']:11d} {row['rebuild_cells']:14d} "
            f"{saving:6.1%} {row['delta_pairs']:11d} {row['wall']:7.2f} "
            f"{str(row['matches_rebuild']):>11s}"
        )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines)
    (RESULTS_DIR / "dynamic_updates.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)

    bench_record(
        "dynamic_updates",
        counters={
            f"batch{row['batch_size']}_{key}": row[key]
            for row in rows
            for key in ("incremental_cells", "rebuild_cells", "delta_pairs")
        },
        info={f"batch{row['batch_size']}_wall_s": row["wall"] for row in rows},
    )

    # Correctness is non-negotiable at every scale.
    assert all(row["matches_rebuild"] for row in rows)
    # The headline claim: incremental maintenance touches fewer cells than
    # rebuilding, overwhelmingly so for small batches.
    small = rows[0]
    assert small["incremental_cells"] < small["rebuild_cells"] * 0.25
    for row in rows:
        assert row["incremental_cells"] < row["rebuild_cells"]
    # Cost scales with batch size (larger batches touch more cells).
    assert rows[0]["incremental_cells"] < rows[-1]["incremental_cells"]

    benchmark(lambda: _run_stream(4))
