"""End-to-end CIJ benchmark runner.

One workload, one seed (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload nm-uniform --seed 1 --seconds 30 --trace 0

prints failed checks to stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.

A whole set — every workload on :data:`RUNS` seeds from ``--seed`` on, each
run in its own subprocess, plus one traced run per workload — written to one
file that ``compare.py`` reads::

    python3 benchmarks/e2e/run.py --out set.json --seed 1

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Page-store temp files of a run live here, inside the checkout.
SCRATCH = HERE / ".tmp"
#: A run must finish within this (the first one also byte-compiles).
CHILD_TIMEOUT = 900
#: Untraced runs (consecutive seeds) per workload in a ``--out`` set.
RUNS = 10


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="workload to run (not with --out, which runs them all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="run a whole set and write it to this file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: no program at {SRC / 'repro'} (or no {SPEC_PATH.name}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    args = parse_args(argv, workloads)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if (args.out is None) == (args.workload is None):
        print("error: pass either one --workload or --out for a set", file=sys.stderr)
        return 2
    if args.out is not None:
        return run_set(args, seconds, workloads)
    result = run_one(args.workload, args.seed, seconds, bool(args.trace), args.scale, spec)
    print(json.dumps(result))
    return 0


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str, spec: Dict) -> Dict:
    """Run one workload in this process and return the result object."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import e2e_workloads

    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    saved = tempfile.tempdir, os.environ.get("TMPDIR")
    # Page-store files and node stderr files go inside the checkout.
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    try:
        outcome = e2e_workloads.run(name, seed, seconds, trace, scale)
    finally:
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[1]
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in outcome.check_failures:
        print(f"check failed: {problem}", file=sys.stderr)
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in wanted}
    if names != set(outcome.metrics):
        raise RuntimeError(
            f"{name}: metrics missing {sorted(names - set(outcome.metrics))}, "
            f"unexpected {sorted(set(outcome.metrics) - names)}"
        )
    return {
        "correct": not outcome.check_failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }


# ----------------------------------------------------------------------
# --out: a whole set, one subprocess per run
# ----------------------------------------------------------------------
def run_set(args: argparse.Namespace, seconds: float, workloads: List[str]) -> int:
    runs = []
    for name in workloads:
        plan = [(args.seed + i, 0) for i in range(RUNS)] + [(args.seed, 1)]
        for seed, trace in plan:
            started = time.perf_counter()
            record = run_child(name, seed, seconds, trace, args.scale)
            record.update({"workload": name, "seed": seed, "trace": trace,
                           "wall_s": time.perf_counter() - started})
            runs.append(record)
            status = "ok" if record.get("result", {}).get("correct") else "FAILED"
            print(f"{name} seed={seed} trace={trace}: {status} "
                  f"({record['wall_s']:.1f}s)", file=sys.stderr)
    document = {"meta": machine_meta(seconds, args.scale), "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print_summary(runs)
    return 0 if all(r.get("result", {}).get("correct") for r in runs) else 1


def run_child(name: str, seed: int, seconds: float, trace: int, scale: str) -> Dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT}s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr[-2000:]}"}
    return {"result": json.loads(lines[-1])}


def machine_meta(seconds: float, scale: str) -> Dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": sha, "run_seconds": seconds, "scale": scale}


def print_summary(runs: List[Dict]) -> None:
    """Median of every metric per workload and trace mode."""
    groups: Dict[tuple, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        result = run.get("result")
        if not result:
            continue
        group = groups.setdefault((run["workload"], run["trace"]), {})
        for metric, body in result["metrics"].items():
            group.setdefault(metric, []).append(body["value"])
            units[metric] = body["unit"]
    for (workload, trace), metrics in groups.items():
        print(f"{workload} ({'traced' if trace else 'untraced'}, {len(next(iter(metrics.values())))} runs)")
        for metric, values in metrics.items():
            print(f"  {metric:32s} {statistics.median(values):14.6g} {units[metric]}")


if __name__ == "__main__":
    sys.exit(main())
