"""Compare two benchmark sets against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both files are sets written by ``run.py --out``.  For every workload and
every end-to-end metric the untraced runs' medians are compared, and one
verdict is printed per pair:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``same`` — they differ by at most the bound;
* ``unresolved`` — either side's spread (interquartile range over median)
  is wider than the bound, so a difference cannot be told from noise;
  unless every NEW run beats every BASE run, which reads ``better``.

An :data:`EXACT` metric is a deterministic count: its bound only absorbs
the spread *between* seeds, which a comparison of the same seeds never
sees.  Its runs are paired by seed instead, and a rise on any shared seed
is ``worse``; a fall on some seed and a rise on none is ``better``.

Exits 1 on any ``worse``, or when NEW has more failed operations than BASE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: End-to-end metrics that are exact for a given seed (checks in every run
#: pin them identical across repeats).
EXACT = frozenset({"page_accesses"})


def load_set(path: Path) -> Tuple[Dict[str, Dict[str, Dict[int, float]]], Dict[str, int]]:
    """Untraced metric values by seed, and failed-operation totals, per workload."""
    document = json.loads(path.read_text(encoding="utf-8"))
    values: Dict[str, Dict[str, Dict[int, float]]] = {}
    failed: Dict[str, int] = {}
    for run in document["runs"]:
        workload = run["workload"]
        result = run.get("result")
        if result is None:  # the run itself crashed or timed out
            failed[workload] = failed.get(workload, 0) + 1
            continue
        failed[workload] = failed.get(workload, 0) + result["failed"]
        if run["trace"]:
            continue
        metrics = values.setdefault(workload, {})
        for name, body in result["metrics"].items():
            metrics.setdefault(name, {})[run["seed"]] = body["value"]
    return values, failed


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(base: List[float], new: List[float], bound: float, lower_is_better: bool) -> Tuple[str, float]:
    """The verdict and the relative change of the median (+ = worse)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = (new_median - base_median) / abs(base_median) if base_median else 0.0
    worse_by = change if lower_is_better else -change
    if max(spread(base), spread(new)) > bound:
        if lower_is_better:
            beats = max(new) < min(base)
        else:
            beats = min(new) > max(base)
        return ("better" if beats else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def exact_verdict(base: Dict[int, float], new: Dict[int, float],
                  lower_is_better: bool) -> Tuple[str, float]:
    """Verdict of an exact count, paired by seed; the median change rides along."""
    seeds = sorted(set(base) & set(new))
    sign = 1 if lower_is_better else -1
    worse = [seed for seed in seeds if sign * (new[seed] - base[seed]) > 0]
    better = [seed for seed in seeds if sign * (new[seed] - base[seed]) < 0]
    base_median = statistics.median(base[seed] for seed in seeds)
    new_median = statistics.median(new[seed] for seed in seeds)
    worse_by = sign * (new_median - base_median) / base_median if base_median else 0.0
    if worse:
        return f"worse (seeds {', '.join(map(str, worse))})", worse_by
    return ("better" if better else "same"), worse_by


def compare(base_path: Path, new_path: Path) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    base, base_failed = load_set(base_path)
    new, new_failed = load_set(new_path)
    status = 0
    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            exact = name in EXACT
            if not a or not b or (exact and not set(a) & set(b)):
                print(f"{workload:16s} {name:16s} missing on one side"
                      + (" (or no shared seed)" if exact else ""))
                status = 1
                continue
            lower_is_better = metric["better"] == "lower"
            if exact:
                outcome, worse_by = exact_verdict(a, b, lower_is_better)
            else:
                outcome, worse_by = verdict(list(a.values()), list(b.values()),
                                            metric["bound"], lower_is_better)
            bound = "exact" if exact else f"{metric['bound']:.0%}"
            print(f"{workload:16s} {name:16s} {statistics.median(a.values()):12.6g} "
                  f"{statistics.median(b.values()):12.6g} {worse_by:+9.2%} {bound:>6s}  {outcome}")
            if outcome.startswith("worse"):
                status = 1
    for workload in sorted(set(base_failed) | set(new_failed)):
        before, after = base_failed.get(workload, 0), new_failed.get(workload, 0)
        if after > before:
            print(f"{workload}: failed operations rose from {before} to {after}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
