"""Persistence helpers: datasets, join results and experiment reports.

A downstream user of the library typically wants to (a) run a join on their
own coordinate files, and (b) keep the result and the cost statistics next
to the data.  This module provides the small amount of I/O needed for that:

* pointsets as two-column CSV (``x,y`` with an optional ``id`` column),
* CIJ results as CSV pair lists plus a JSON sidecar with the statistics,
* experiment results (from :mod:`repro.experiments`) as JSON,
* the binary page codecs (:func:`encode_page_payload` /
  :func:`decode_page_payload`, re-exported from
  :mod:`repro.storage.codec`) that the file and SQLite storage backends
  use to move R-tree nodes as real bytes.

Only the standard library is used; all functions take ``pathlib.Path`` or
plain string paths.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.experiments.harness import ExperimentResult
from repro.geometry.point import Point
from repro.join.result import CIJResult, JoinStats, ProgressSample
from repro.storage.codec import decode_page_payload, encode_page_payload

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# pointsets
# ----------------------------------------------------------------------
def save_pointset(path: PathLike, points: Sequence[Point], oids: Optional[Sequence[int]] = None) -> None:
    """Write a pointset as CSV with columns ``id,x,y``."""
    if oids is None:
        oids = list(range(len(points)))
    if len(oids) != len(points):
        raise ValueError("oids and points must have the same length")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "y"])
        for oid, point in zip(oids, points):
            writer.writerow([oid, repr(point.x), repr(point.y)])


def load_pointset(path: PathLike) -> Tuple[List[int], List[Point]]:
    """Read a pointset written by :func:`save_pointset` (or any ``x,y`` CSV).

    Files without an ``id`` column get sequential identifiers.  Raises
    :class:`ValueError` on rows that cannot be parsed.
    """
    oids: List[int] = []
    points: List[Point] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty pointset file")
        fields = {name.strip().lower() for name in reader.fieldnames}
        if not {"x", "y"} <= fields:
            raise ValueError(f"{path}: expected at least 'x' and 'y' columns, found {sorted(fields)}")
        for index, row in enumerate(reader):
            normalised = {key.strip().lower(): value for key, value in row.items() if key}
            try:
                x = float(normalised["x"])
                y = float(normalised["y"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row {index + 2}: {row}") from exc
            oid = int(normalised["id"]) if normalised.get("id") not in (None, "") else index
            oids.append(oid)
            points.append(Point(x, y))
    return oids, points


# ----------------------------------------------------------------------
# CIJ results
# ----------------------------------------------------------------------
def save_cij_result(path: PathLike, result: CIJResult) -> None:
    """Write the pairs as CSV and the statistics as a ``.stats.json`` sidecar."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p_oid", "q_oid"])
        for pair in result.pairs:
            writer.writerow(list(pair))
    stats = result.stats
    payload = {
        "algorithm": stats.algorithm,
        "mat_page_accesses": stats.mat_page_accesses,
        "join_page_accesses": stats.join_page_accesses,
        "mat_cpu_seconds": stats.mat_cpu_seconds,
        "join_cpu_seconds": stats.join_cpu_seconds,
        "cells_computed_p": stats.cells_computed_p,
        "cells_computed_q": stats.cells_computed_q,
        "cells_reused_p": stats.cells_reused_p,
        "filter_candidates": stats.filter_candidates,
        "filter_true_hits": stats.filter_true_hits,
        "progress": [[s.page_accesses, s.pairs_reported] for s in stats.progress],
        "pair_count": len(result.pairs),
    }
    sidecar = path.with_suffix(path.suffix + ".stats.json")
    sidecar.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_cij_result(path: PathLike) -> CIJResult:
    """Read a result written by :func:`save_cij_result`.

    Raises :class:`ValueError` on a missing ``p_oid,q_oid`` header and on
    any row that is not exactly two integers, naming the file and line.
    """
    path = Path(path)
    pairs: List[Tuple[int, int]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty result file")
        if [name.strip().lower() for name in header] != ["p_oid", "q_oid"]:
            raise ValueError(f"{path}: expected a 'p_oid,q_oid' header, found {header}")
        for row in reader:
            if not row:
                continue
            try:
                p_oid, q_oid = (int(value) for value in row)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: malformed row {reader.line_num}: {row}"
                ) from exc
            pairs.append((p_oid, q_oid))
    sidecar = path.with_suffix(path.suffix + ".stats.json")
    stats = JoinStats(algorithm="UNKNOWN")
    if sidecar.exists():
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        stats = JoinStats(
            algorithm=payload.get("algorithm", "UNKNOWN"),
            mat_page_accesses=payload.get("mat_page_accesses", 0),
            join_page_accesses=payload.get("join_page_accesses", 0),
            mat_cpu_seconds=payload.get("mat_cpu_seconds", 0.0),
            join_cpu_seconds=payload.get("join_cpu_seconds", 0.0),
            cells_computed_p=payload.get("cells_computed_p", 0),
            cells_computed_q=payload.get("cells_computed_q", 0),
            cells_reused_p=payload.get("cells_reused_p", 0),
            filter_candidates=payload.get("filter_candidates", 0),
            filter_true_hits=payload.get("filter_true_hits", 0),
        )
        stats.progress = [
            ProgressSample(int(pages), int(count))
            for pages, count in payload.get("progress", [])
        ]
    return CIJResult(pairs=pairs, stats=stats)


# ----------------------------------------------------------------------
# experiment results
# ----------------------------------------------------------------------
def save_experiment_result(path: PathLike, result: ExperimentResult) -> None:
    """Write an experiment result (rows + metadata) as JSON."""
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_reference": result.paper_reference,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_experiment_result(path: PathLike) -> ExperimentResult:
    """Read an experiment result written by :func:`save_experiment_result`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        paper_reference=payload["paper_reference"],
        columns=list(payload["columns"]),
    )
    for row in payload["rows"]:
        result.add_row(*row)
    for note in payload.get("notes", []):
        result.add_note(note)
    return result
