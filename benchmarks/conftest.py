"""Shared configuration for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper through
the drivers in :mod:`repro.experiments`, prints the reproduced series,
writes it under ``benchmarks/results/`` and asserts the qualitative claim
the paper makes about it.  The ``benchmark`` fixture additionally times a
representative core operation so ``pytest-benchmark`` statistics are
collected for each artefact.

Besides the human-readable ``.txt`` table, every artefact is recorded as a
machine-readable ``.json`` document (same basename) so CI can diff the
deterministic counters against the committed baselines in
``benchmarks/baselines/`` — see ``benchmarks/bench_compare.py``.  Two JSON
shapes exist:

* ``kind: "table"`` — the rows/columns of an ``ExperimentResult``
  (written automatically by the ``experiment_runner`` fixture);
* ``kind: "counters"`` — a flat name→number mapping recorded explicitly by
  a benchmark through the ``bench_record`` fixture, for artefacts that are
  not experiment tables (sharded-executor recomputation counts, dynamic
  update deltas, service throughput counters...).

Only *deterministic* values belong in rows/counters; machine-dependent
measurements (wall clocks, queue waits) go into the free-form ``info``
mapping, which the comparison script ignores.

The *committed* artefacts under ``benchmarks/results/`` carry only those
deterministic values: timing columns and the ``info`` mapping are split
off into an untracked sidecar under ``benchmarks/results/local/``
(gitignored) together with the human-readable ``.txt`` tables, so
re-running the suite leaves ``git status`` clean unless a gated counter
actually changed.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``tiny`` by default so the whole suite completes in a few minutes; use
``small`` or ``medium`` to approach the shapes reported in EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from bench_compare import is_timing_column
from repro.experiments import run_experiment

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
#: Untracked sidecar for machine-dependent output: full documents with
#: their timing columns and ``info`` mappings, plus the ``.txt`` tables.
LOCAL_DIR = RESULTS_DIR / "local"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``bench`` marker.

    The fast tier can then exclude the whole artefact suite with
    ``pytest -m "not bench"`` (see pytest.ini); CI runs the benchmarks in a
    separate, non-blocking job.
    """
    for item in items:
        if BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)

#: Benchmark scale; see repro.experiments.harness.SCALES.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


def _deterministic_view(document: dict) -> dict:
    """The committed projection of a document: gated values only.

    Tables lose their timing columns, counters documents lose ``info`` —
    exactly the values ``bench_compare`` never gates, so the projection
    changes nothing about the baseline comparison while keeping
    machine-dependent churn out of the tracked tree.
    """
    slim = dict(document)
    if document.get("kind") == "counters":
        slim.pop("info", None)
        return slim
    columns = document.get("columns", [])
    keep = [i for i, column in enumerate(columns) if not is_timing_column(column)]
    if len(keep) == len(columns):
        return slim
    slim["columns"] = [columns[i] for i in keep]
    slim["rows"] = [
        [row[i] for i in keep if i < len(row)] for row in document.get("rows", [])
    ]
    return slim


def write_result_json(name: str, document: dict) -> Path:
    """Persist one machine-readable artefact under ``benchmarks/results/``.

    The tracked file carries only the deterministic values; the full
    document (timings and ``info`` included) goes to the untracked
    ``results/local/`` sidecar.
    """
    LOCAL_DIR.mkdir(parents=True, exist_ok=True)
    (LOCAL_DIR / f"{name}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(
        json.dumps(_deterministic_view(document), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The scale name every benchmark should run its experiment at."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def experiment_runner():
    """Run an experiment once per session and persist its rendered table
    (``.txt`` for humans under ``results/local/``, ``.json`` for the CI
    baseline gate)."""
    cache = {}

    def run(experiment_id: str):
        if experiment_id not in cache:
            result = run_experiment(experiment_id, scale=BENCH_SCALE)
            LOCAL_DIR.mkdir(parents=True, exist_ok=True)
            path = LOCAL_DIR / f"{experiment_id}.txt"
            path.write_text(result.to_text() + "\n", encoding="utf-8")
            write_result_json(
                experiment_id,
                {
                    "name": experiment_id,
                    "kind": "table",
                    "scale": BENCH_SCALE,
                    "title": result.title,
                    "columns": result.columns,
                    "rows": result.rows,
                },
            )
            print()
            print(result.to_text())
            cache[experiment_id] = result
        return cache[experiment_id]

    return run


@pytest.fixture(scope="session")
def bench_record():
    """Record a non-table artefact's deterministic counters as JSON.

    ``bench_record(name, counters, info=None)`` — ``counters`` values must
    be reproducible run to run (operation counts, page accesses, hit
    counts); put timings and other machine-dependent measurements into
    ``info``, which the baseline comparison ignores.
    """

    def record(name: str, counters: dict, info: dict | None = None) -> Path:
        return write_result_json(
            name,
            {
                "name": name,
                "kind": "counters",
                "scale": BENCH_SCALE,
                "counters": counters,
                "info": info or {},
            },
        )

    return record
