"""repro — Common Influence Join (CIJ) for spatial pointsets.

A from-scratch reproduction of *"Common Influence Join: A Natural Join
Operation for Spatial Pointsets"* (Yiu, Mamoulis, Karras, ICDE 2008),
including the storage / R-tree substrate the paper's evaluation depends on.

Quickstart
----------
>>> from repro import common_influence_join, uniform_points
>>> p = uniform_points(200, seed=1)
>>> q = uniform_points(200, seed=2)
>>> result = common_influence_join(p, q)            # NM-CIJ by default
>>> len(result.pairs) > 0
True

The three algorithms of the paper (FM-CIJ, PM-CIJ, NM-CIJ) are available
through :func:`common_influence_join`'s ``method`` argument or directly from
:mod:`repro.join`; the Voronoi-cell machinery lives in :mod:`repro.voronoi`
and the simulated storage / R-tree substrate in :mod:`repro.storage` and
:mod:`repro.index`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.engine import EngineConfig
    from repro.geometry import Point, Rect
    from repro.join import CIJResult

__version__ = "1.2.0"

#: Exports loaded on first access (PEP 562): a node or page-server
#: interpreter imports this package but runs only part of it.
_ENGINE_EXPORTS = ("EngineConfig", "JoinEngine", "default_engine")
_GEOMETRY_EXPORTS = ("ConvexPolygon", "Point", "Rect")
_JOIN_EXPORTS = ("CIJResult", "brute_force_cij", "epsilon_distance_join",
                 "fm_cij", "nm_cij", "pm_cij")
_VORONOI_EXPORTS = ("VoronoiCell", "VoronoiDiagram", "compute_voronoi_cell")
_DATASETS_EXPORTS = ("DOMAIN", "clustered_points", "gaussian_points",
                     "real_like_dataset", "uniform_points")
_WORKLOAD_EXPORTS = ("DynamicWorkloadConfig", "WorkloadConfig", "build_workload",
                     "generate_update_batches")
_DYNAMIC_EXPORTS = ("DynamicJoinSession", "PairDelta", "Update", "UpdateBatch",
                    "load_update_stream")


def __getattr__(name):
    if name in _ENGINE_EXPORTS:
        from repro import engine as module
    elif name in _GEOMETRY_EXPORTS:
        from repro import geometry as module
    elif name in _JOIN_EXPORTS:
        from repro import join as module
    elif name in _VORONOI_EXPORTS:
        from repro import voronoi as module
    elif name in _DATASETS_EXPORTS:
        from repro import datasets as module
    elif name in _WORKLOAD_EXPORTS:
        from repro.datasets import workload as module
    elif name in _DYNAMIC_EXPORTS:
        from repro import dynamic as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Point",
    "Rect",
    "ConvexPolygon",
    "VoronoiCell",
    "VoronoiDiagram",
    "CIJResult",
    "EngineConfig",
    "JoinEngine",
    "default_engine",
    "common_influence_join",
    "compute_voronoi_cell",
    "fm_cij",
    "pm_cij",
    "nm_cij",
    "brute_force_cij",
    "epsilon_distance_join",
    "uniform_points",
    "gaussian_points",
    "clustered_points",
    "real_like_dataset",
    "build_workload",
    "WorkloadConfig",
    "DynamicWorkloadConfig",
    "DynamicJoinSession",
    "PairDelta",
    "Update",
    "UpdateBatch",
    "generate_update_batches",
    "load_update_stream",
    "DOMAIN",
]

def common_influence_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    method: str = "nm",
    domain: Optional[Rect] = None,
    buffer_fraction: float = 0.02,
    page_size: int = 1024,
    storage: Optional[str] = None,
    storage_path: Optional[str] = None,
    config: Optional[EngineConfig] = None,
    **overrides,
) -> CIJResult:
    """Compute ``CIJ(P, Q)`` end to end from two plain pointsets.

    This convenience wrapper builds the simulated disk, indexes both
    pointsets with R-trees, sizes the LRU buffer and runs the requested
    algorithm through the :class:`~repro.engine.JoinEngine`.  Pair
    identifiers in the result refer to the positional indices of the input
    sequences.

    Parameters
    ----------
    points_p, points_q:
        The two pointsets; both must be non-empty.
    method:
        ``"nm"`` (default, the paper's best algorithm), ``"pm"``, ``"fm"``
        or ``"brute"`` (the quadratic oracle baseline).
    domain:
        Space domain; defaults to ``config.domain`` if set, else the
        paper's ``[0, 10000]`` square extended to cover the data if
        necessary.
    buffer_fraction, page_size:
        Storage parameters (paper defaults: 2 % LRU buffer, 1 KB pages).
    storage, storage_path:
        Page-store backend the workload is built on (``"memory"``,
        ``"file"``, ``"sqlite"`` or ``"remote"``) and its backing path (for ``"remote"``: the ``HOST:PORT`` of a
        running page server, or ``None`` to spawn a private one).  The
        default honours ``$REPRO_STORAGE`` and falls back to memory; the
        serializing backends let the join page real bytes off disk for
        datasets larger than the buffer.  The distributed executor needs a
        shareable backend (``"file"``, ``"sqlite"`` or ``"remote"``).
    config, **overrides:
        The execution knobs: an :class:`~repro.engine.EngineConfig`
        (default ``EngineConfig()``) and individual fields to replace in
        it, e.g. ``executor="sharded", workers=4`` or
        ``executor="distributed", nodes=2, fault_plan=...``.  ``None``
        values are ignored.  The config is built before the workload, so
        an unknown field (``TypeError``) or a bad value (``ValueError``)
        fails before any page is written.  Merged pairs and deterministic
        counters are byte-identical across executors.
    """
    from repro.datasets import DOMAIN, WorkloadConfig, build_workload
    from repro.engine import default_engine
    from repro.engine.config import resolve_config
    from repro.geometry import Rect

    engine = default_engine()
    method_key = method.lower()
    if method_key not in engine.algorithm_names():
        raise ValueError(
            f"unknown method {method!r}; expected one of {engine.algorithm_names()}"
        )
    if not points_p or not points_q:
        raise ValueError("both pointsets must be non-empty")
    effective = resolve_config(config, overrides)
    if domain is None:
        domain = effective.domain
    if domain is None:
        data_mbr = Rect.from_points(list(points_p) + list(points_q))
        domain = DOMAIN.union(data_mbr)
    workload_config = WorkloadConfig(
        page_size=page_size,
        buffer_fraction=buffer_fraction,
        domain=domain,
        storage=storage,
        storage_path=storage_path,
    )
    workload = build_workload(workload_config, points_p=points_p, points_q=points_q)
    try:
        return engine.run(
            method_key, workload.tree_p, workload.tree_q, effective, domain=domain
        )
    finally:
        # The result carries pairs and statistics only; backend resources
        # (e.g. an owned temporary page file) can be released immediately.
        workload.close()
