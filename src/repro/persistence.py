"""Export helpers: pointsets and join results as plain files.

A downstream user of the library typically wants to keep the input points,
the result and the cost statistics next to each other in formats any tool
reads.  This module writes them:

* pointsets as CSV with the columns ``id,x,y``,
* CIJ results as a ``p_oid,q_oid`` CSV pair list plus a JSON sidecar with
  the statistics.

Only the standard library is used; all functions take ``pathlib.Path`` or
plain string paths.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.geometry.point import Point
from repro.join.result import CIJResult

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
