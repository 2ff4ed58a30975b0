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

from typing import Optional, Sequence

from repro.datasets import (
    DOMAIN,
    clustered_points,
    gaussian_points,
    real_like_dataset,
    uniform_points,
)
from repro.datasets.workload import (
    DynamicWorkloadConfig,
    WorkloadConfig,
    build_workload,
    generate_update_batches,
)
from repro.dynamic import (
    DynamicJoinSession,
    PairDelta,
    Update,
    UpdateBatch,
    load_update_stream,
)
from repro.engine import EngineConfig, JoinEngine, default_engine
from repro.geometry import ConvexPolygon, Point, Rect
from repro.join import (
    CIJResult,
    brute_force_cij,
    epsilon_distance_join,
    fm_cij,
    k_closest_pairs,
    multiway_cij,
    nm_cij,
    pm_cij,
)
from repro.voronoi import VoronoiCell, VoronoiDiagram, compute_voronoi_cell

__version__ = "1.2.0"

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
    "multiway_cij",
    "brute_force_cij",
    "epsilon_distance_join",
    "k_closest_pairs",
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
    executor: str = "serial",
    workers: int = 2,
    nodes: int = 2,
    node_timeout: Optional[float] = None,
    node_retries: Optional[int] = None,
    fault_plan: Optional[str] = None,
    reuse_handoff: str = "auto",
    storage: Optional[str] = None,
    storage_path: Optional[str] = None,
    prefetch: str = "off",
    prefetch_depth: int = 2,
    fetch_latency: float = 0.0,
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
        Space domain; defaults to the paper's ``[0, 10000]`` square extended
        to cover the data if necessary.
    buffer_fraction, page_size:
        Storage parameters (paper defaults: 2 % LRU buffer, 1 KB pages).
    executor, workers, nodes:
        Execution strategy: ``"serial"`` (default), ``"sharded"`` — the
        join's work units (Hilbert-ordered ``R_Q`` leaves for NM-CIJ/
        PM-CIJ, top-level ``R'_P`` partitions of the synchronous traversal
        for FM-CIJ) pulled by ``workers`` local processes — or
        ``"distributed"``, the same units pulled by ``nodes`` worker
        subprocesses that reopen the shared backend read-only (requires a
        shareable backend: ``storage="file"``, ``"sqlite"`` or
        ``"remote"``).  Every CIJ variant
        shards; only the brute-force oracle does not.  Merged pairs and
        deterministic counters are byte-identical across executors.
    node_timeout, node_retries, fault_plan:
        Fault-tolerance knobs of the distributed tier: seconds of node
        silence before a hang is declared, how many times a failed unit
        may be retried on another node, and a deterministic
        fault-injection spec (:mod:`repro.engine.faults`) for testing.
        ``None`` keeps the engine defaults (60 s, 2 retries, no faults).
    reuse_handoff:
        Whether a sharded NM-CIJ hands its REUSE buffer across shard
        boundaries (``"auto"``/``"always"``/``"never"``; see
        :class:`repro.engine.EngineConfig`).
    storage, storage_path:
        Page-store backend (``"memory"``, ``"file"``, ``"sqlite"``,
        ``"remote"`` — or ``"remote+file"``/``"remote+sqlite"`` to pick a
        spawned page server's backing store) and its backing path (for
        ``"remote"``: the ``HOST:PORT`` of a running page server, or
        ``None`` to spawn a private one).  The default honours
        ``$REPRO_STORAGE`` and falls back to memory; the serializing
        backends let the join page real bytes off disk for datasets larger
        than the buffer.
    prefetch, prefetch_depth:
        Overlapped-I/O mode (``"off"``, ``"next_batch"``, ``"next_shard"``)
        and its unit lookahead; see :class:`repro.engine.EngineConfig`.
        The emitted pairs and logical hit/miss counters are identical in
        every mode — prefetching only hides physical fetch latency, which
        ``disk.storage_stats()`` reports as ``overlap_time``.
    fetch_latency:
        Simulated per-page disk service time in seconds (default 0); a
        positive value makes the latency hiding measurable.
    """
    engine = default_engine()
    method_key = method.lower()
    if method_key not in engine.algorithm_names():
        raise ValueError(
            f"unknown method {method!r}; expected one of {engine.algorithm_names()}"
        )
    if not points_p or not points_q:
        raise ValueError("both pointsets must be non-empty")
    if domain is None:
        data_mbr = Rect.from_points(list(points_p) + list(points_q))
        domain = DOMAIN.union(data_mbr)
    config = WorkloadConfig(
        page_size=page_size,
        buffer_fraction=buffer_fraction,
        domain=domain,
        storage=storage,
        storage_path=storage_path,
        fetch_latency=fetch_latency,
        prefetch=prefetch,
        prefetch_depth=prefetch_depth,
    )
    workload = build_workload(config, points_p=points_p, points_q=points_q)
    try:
        return engine.run(
            method_key,
            workload.tree_p,
            workload.tree_q,
            domain=domain,
            executor=executor,
            workers=workers,
            nodes=nodes,
            node_timeout=node_timeout,
            node_retries=node_retries,
            fault_plan=fault_plan,
            reuse_handoff=reuse_handoff,
            storage=storage,
            storage_path=storage_path,
            prefetch=config.prefetch,
            prefetch_depth=config.prefetch_depth,
        )
    finally:
        # The result carries pairs and statistics only; backend resources
        # (e.g. an owned temporary page file) can be released immediately.
        workload.close()
