"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Every workload runs once untraced and once traced, in-process, on about
200 points per side.  The printed result must name every metric of
``BENCHMARK.json`` with its unit and report no failed check; the tracer
must resolve every target (a renamed function fails here instead of
silently dropping a layer) and restore each one afterwards.
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load(name: str, filename: str):
    module_spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


run = _load("e2e_run", "run.py")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--scale", "smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        body = result["metrics"][metric["name"]]
        assert body["unit"] == metric["unit"]
        value = body["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)
        if not trace:
            assert value > 0, metric["name"]


def test_tracer_restores_every_target():
    trace = sys.modules.get("e2e_trace") or _load("e2e_trace", "e2e_trace.py")
    targets = list(trace.TARGETS) + [("submit",) + trace.SUBMIT_TARGET]
    originals = [trace._resolve(module, path) for _, module, path in targets]
    tracer = trace.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_tracer_refuses_a_missing_target(monkeypatch):
    trace = sys.modules.get("e2e_trace") or _load("e2e_trace", "e2e_trace.py")
    first = trace.TARGETS[0]
    monkeypatch.setattr(
        trace, "TARGETS", (first, ("storage.read", "repro.storage.disk", "DiskManager.renamed"))
    )
    owner, attr, original = trace._resolve(first[1], first[2])
    with pytest.raises(AttributeError, match="renamed"):
        trace.Tracer().install()
    assert vars(owner)[attr] is original


def test_compare_flags_a_regression(tmp_path, capsys):
    compare = _load("e2e_compare", "compare.py")
    names = [m["name"] for m in SPEC["end_to_end"]]

    def write(path, scale, extra_page_on_seed=None):
        runs = []
        for seed in range(5):
            metrics = {n: {"value": scale * (100 + seed), "unit": "x"} for n in names}
            if seed == extra_page_on_seed:
                metrics["page_accesses"]["value"] += 1
            runs.append({"workload": "nm-uniform", "seed": seed, "trace": 0,
                         "result": {"correct": True, "attempted": 1, "failed": 0,
                                    "metrics": metrics}})
        path.write_text(json.dumps({"meta": {}, "runs": runs}), encoding="utf-8")
        return path

    base = write(tmp_path / "base.json", 1.0)
    assert compare.main([str(base), str(write(tmp_path / "same.json", 1.0))]) == 0
    assert compare.main([str(base), str(write(tmp_path / "slow.json", 2.0))]) == 1
    assert "worse" in capsys.readouterr().out
    # One page more on one seed is far inside the median bound, but page
    # accesses are exact per seed.
    one_page = write(tmp_path / "one_page.json", 1.0, extra_page_on_seed=3)
    assert compare.main([str(base), str(one_page)]) == 1
    assert "worse (seeds 3)" in capsys.readouterr().out
    assert compare.main([str(one_page), str(base)]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "nm-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
