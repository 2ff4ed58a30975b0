"""Overlapped-I/O benchmark: prefetch latency hiding on the fig8 workload.

The fig8 experiments measure I/O cost under the paper's synchronous fetch
model.  This benchmark replays the same workload shape (uniform pointsets,
2% LRU buffer) on the *file* backend with an injected per-page service
latency, and measures how much of that latency the prefetch pipeline hides:

* ``prefetch=off`` — every physical fetch stalls for the full service time
  (the synchronous baseline);
* ``prefetch=next_batch`` — the serial NM-CIJ issues each upcoming leaf
  batch's candidate pages while the current batch computes its cells;
* ``prefetch=next_shard`` — the sharded executor (one in-process worker)
  stages the next shard's opening pages while the current shard runs.

The table written to ``benchmarks/results/local/prefetch.txt`` reports stalled
vs overlapped milliseconds per mode; ``prefetch.json`` records the
deterministic counters for the CI baseline gate.  The invariant asserted
alongside the latency claim: pairs and logical page accounting are
byte-identical in every mode.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.datasets.synthetic import uniform_points
from repro.experiments.drivers.common import run_cij

# .txt tables carry wall clocks -> untracked sidecar (see conftest.py).
RESULTS_DIR = Path(__file__).parent / "results" / "local"

N_POINTS = int(os.environ.get("REPRO_PREFETCH_BENCH_POINTS", "400"))
#: Simulated per-page disk service time (seconds): ~2ms, a fast HDD seek
#: or a slow network volume — large enough to dominate the real reads.
LATENCY = float(os.environ.get("REPRO_PREFETCH_BENCH_LATENCY", "0.002"))


def run_mode(points_p, points_q, **overrides):
    return run_cij(
        "nm",
        points_p,
        points_q,
        storage="file",
        fetch_latency=LATENCY,
        **overrides,
    )


def test_prefetch_hides_stall_time_on_file_backend(benchmark, bench_record):
    points_p = uniform_points(N_POINTS, seed=8)
    points_q = uniform_points(N_POINTS, seed=18)
    sharded = dict(executor="sharded", workers=1)

    runs = {
        "off": run_mode(points_p, points_q),
        "next_batch": run_mode(points_p, points_q, prefetch="next_batch"),
        "sharded_off": run_mode(points_p, points_q, **sharded),
        "next_shard": run_mode(
            points_p, points_q, prefetch="next_shard", prefetch_depth=4, **sharded
        ),
    }

    lines = [
        f"prefetch latency hiding (NM-CIJ, {N_POINTS} x {N_POINTS} points, "
        f"file backend, {LATENCY * 1000:.1f} ms/page service time)",
        f"{'mode':12s} {'pairs':>7s} {'pages':>7s} {'issued':>7s} {'hits':>6s} "
        f"{'wasted':>7s} {'stall ms':>9s} {'overlap ms':>11s}",
    ]
    for mode, result in runs.items():
        io = result.storage
        lines.append(
            f"{mode:12s} {len(result.pairs):7d} "
            f"{result.stats.total_page_accesses:7d} "
            f"{io.pages_prefetched:7d} {io.prefetch_hits:6d} "
            f"{io.prefetch_wasted:7d} {io.stall_time * 1000:9.1f} "
            f"{io.overlap_time * 1000:11.1f}"
        )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines)
    (RESULTS_DIR / "prefetch.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)

    bench_record(
        "prefetch",
        counters={
            "pairs": len(runs["off"].pairs),
            "serial_page_accesses": runs["off"].stats.total_page_accesses,
            "sharded_page_accesses": runs["sharded_off"].stats.total_page_accesses,
            "next_batch_pages_prefetched": runs["next_batch"].storage.pages_prefetched,
            "next_batch_prefetch_hits": runs["next_batch"].storage.prefetch_hits,
            "next_batch_prefetch_wasted": runs["next_batch"].storage.prefetch_wasted,
            "next_shard_pages_prefetched": runs["next_shard"].storage.pages_prefetched,
            "next_shard_prefetch_hits": runs["next_shard"].storage.prefetch_hits,
            "next_shard_prefetch_wasted": runs["next_shard"].storage.prefetch_wasted,
        },
        info={
            f"{mode}_stall_ms": result.storage.stall_time * 1000
            for mode, result in runs.items()
        },
    )

    # Invariant: prefetching never changes the answer or the paper's
    # logical accounting.
    for mode in ("next_batch",):
        assert runs[mode].pairs == runs["off"].pairs
        assert (
            runs[mode].stats.total_page_accesses
            == runs["off"].stats.total_page_accesses
        )
    assert runs["next_shard"].pairs == runs["sharded_off"].pairs == runs["off"].pairs
    assert (
        runs["next_shard"].stats.total_page_accesses
        == runs["sharded_off"].stats.total_page_accesses
    )

    # The latency-hiding claim: prefetching converts stall into overlap.
    assert runs["next_batch"].storage.prefetch_hits > 0
    assert runs["next_batch"].storage.overlap_time > 0
    assert runs["next_batch"].storage.stall_time < runs["off"].storage.stall_time
    assert runs["next_shard"].storage.prefetch_hits > 0
    assert runs["next_shard"].storage.overlap_time > 0
    assert (
        runs["next_shard"].storage.stall_time
        < runs["sharded_off"].storage.stall_time
    )

    benchmark(lambda: run_mode(points_p, points_q, prefetch="next_batch"))
