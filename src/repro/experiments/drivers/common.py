"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.synthetic import uniform_points
from repro.datasets.workload import Workload, WorkloadConfig, build_workload
from repro.engine import default_engine
from repro.geometry.point import Point
from repro.join.lower_bound import lower_bound_io
from repro.join.result import CIJResult

#: Default LRU buffer size as a fraction of the data size (paper: 2 %).
DEFAULT_BUFFER_FRACTION = 0.02

#: The three CIJ algorithms in the order the paper's plots list them,
#: mapped to their engine registry identifiers.
CIJ_ALGORITHMS: Dict[str, str] = {
    "FM-CIJ": "fm",
    "PM-CIJ": "pm",
    "NM-CIJ": "nm",
}


def fresh_workload(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
    seed: int = 0,
    storage: Optional[str] = None,
    storage_path: Optional[str] = None,
) -> Workload:
    """A brand-new workload (fresh disk, fresh trees) for one measured run.

    Each algorithm run gets its own workload so that pages materialised by a
    previous run never pollute the buffer sizing or the counters of the next.
    ``storage`` selects the page-store backend (``None`` honours
    ``$REPRO_STORAGE``, then memory), so every experiment can be replayed
    against file- or SQLite-backed pages unchanged.
    """
    config = WorkloadConfig(
        seed=seed,
        buffer_fraction=buffer_fraction,
        storage=storage,
        storage_path=storage_path,
    )
    return build_workload(config, points_p=points_p, points_q=points_q)


def run_cij(
    algorithm_name: str,
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
    storage: Optional[str] = None,
    storage_path: Optional[str] = None,
    **engine_overrides,
) -> CIJResult:
    """Run one CIJ algorithm on a fresh workload through the join engine.

    ``engine_overrides`` are :class:`repro.engine.EngineConfig` fields
    (``reuse_cells``, ``use_phi_pruning``, ``executor``, ``workers``, ...),
    so every experiment measures the same code path applications use.
    ``storage``/``storage_path`` place the workload; the engine reads the
    backend from the trees' disk.  The workload's backend resources are
    released once the result is in hand.
    """
    algorithm = CIJ_ALGORITHMS.get(algorithm_name, algorithm_name)
    workload = fresh_workload(
        points_p,
        points_q,
        buffer_fraction=buffer_fraction,
        storage=storage,
        storage_path=storage_path,
    )
    try:
        return default_engine().run(
            algorithm,
            workload.tree_p,
            workload.tree_q,
            domain=workload.domain,
            **engine_overrides,
        )
    finally:
        workload.close()


def lower_bound_for(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
) -> int:
    """The LB line: pages of both source trees (independent of the buffer)."""
    with fresh_workload(points_p, points_q) as workload:
        return lower_bound_io(workload.tree_p, workload.tree_q)


def uniform_pair(
    n_p: int, n_q: Optional[int] = None, seed: int = 0
) -> Tuple[List[Point], List[Point]]:
    """Two independent uniform pointsets over the paper's domain."""
    n_q = n_q if n_q is not None else n_p
    return (
        uniform_points(n_p, seed=seed),
        uniform_points(n_q, seed=seed + 10_000),
    )


def ratio_cardinalities(total: int, ratio_q_to_p: Tuple[int, int]) -> Tuple[int, int]:
    """Split ``total`` points between Q and P according to a ``|Q|:|P|`` ratio."""
    q_share, p_share = ratio_q_to_p
    n_q = total * q_share // (q_share + p_share)
    n_p = total - n_q
    return n_p, n_q
