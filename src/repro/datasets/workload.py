"""Workload construction: datasets plus their R-tree indexes on one disk.

Every experiment needs the same setup: generate (or load) two pointsets,
index each with an R-tree over a shared simulated disk, size the LRU buffer
as a percentage of the data size, and reset the I/O counters so that only
the measured algorithm is charged.  :func:`build_workload` performs those
steps and returns a small record the harness and the examples both use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.dynamic.updates import Update, UpdateBatch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.bulkload import bulk_load_points
from repro.index.rtree import RTree
from repro.storage.backends import default_storage_backend
from repro.storage.disk import DiskManager, PAGE_SIZE_DEFAULT


@dataclass
class WorkloadConfig:
    """Parameters shared by the experiment drivers."""

    #: Points in P (ignored when explicit points are supplied).
    n_p: int = 2000
    #: Points in Q.
    n_q: int = 2000
    #: Page size in bytes (the paper uses 1 KB).
    page_size: int = PAGE_SIZE_DEFAULT
    #: LRU buffer size as a fraction of the data size on disk (paper: 0.02).
    buffer_fraction: float = 0.02
    #: Random seed used by the default uniform generators.
    seed: int = 0
    #: Space domain.
    domain: Rect = DOMAIN
    #: Page-store backend (``memory``/``file``/``sqlite``/``remote``);
    #: ``None`` uses ``$REPRO_STORAGE`` or memory, so a CI matrix can
    #: retarget every workload-built test without touching the tests.
    storage: Optional[str] = None
    #: Backing path for the file/sqlite backends, or ``HOST:PORT`` of an
    #: already-running page server for ``remote`` (``None`` = owned temp
    #: file / a freshly spawned server).
    storage_path: Optional[str] = None


@dataclass
class Workload:
    """A fully prepared experiment input: two indexed pointsets, one disk."""

    disk: DiskManager
    tree_p: RTree
    tree_q: RTree
    points_p: List[Point]
    points_q: List[Point]
    domain: Rect

    def reset_measurement(self, buffer_fraction: Optional[float] = None) -> None:
        """Clear counters and the buffer before a measured run.

        When ``buffer_fraction`` is given the buffer is re-sized relative to
        the current data size on disk (both source trees).
        """
        if buffer_fraction is not None:
            self.disk.set_buffer_fraction(buffer_fraction)
        else:
            self.disk.buffer.clear()
        self.disk.reset_counters()

    def close(self) -> None:
        """Release the disk's backend resources (temp files are deleted)."""
        self.disk.close()

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def build_indexed_pointset(
    disk: DiskManager,
    tag: str,
    points: Sequence[Point],
    domain: Rect = DOMAIN,
    bulk: bool = True,
) -> RTree:
    """Index ``points`` with an R-tree whose construction I/O is not charged.

    The paper assumes the source trees already exist; their construction is
    therefore performed with I/O accounting suspended.  ``bulk`` selects
    Hilbert bulk loading (default) or one-by-one Guttman insertion, which is
    useful for tests that need a tree with "organically grown" node MBRs.
    """
    with disk.suspend_io_accounting():
        if bulk:
            tree = bulk_load_points(disk, tag, list(points), domain=domain)
        else:
            tree = RTree(disk, tag)
            for oid, point in enumerate(points):
                tree.insert_point(oid, point)
    return tree


@dataclass
class DynamicWorkloadConfig:
    """A dynamic workload: a base :class:`WorkloadConfig` plus an update stream.

    :func:`generate_update_batches` turns this into concrete
    :class:`~repro.dynamic.UpdateBatch` objects against a built workload;
    the dynamic benchmarks, the differential tests and the CLI examples all
    derive their streams from it so update workloads are reproducible from
    one seed.
    """

    #: Static base workload the stream starts from.
    base: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Number of update batches in the stream.
    batches: int = 5
    #: Insert/delete operations per batch.
    batch_size: int = 8
    #: Fraction of operations that are inserts (the rest are deletes).
    insert_fraction: float = 0.5
    #: Which sides receive updates: ``"P"``, ``"Q"`` or ``"both"``.
    sides: str = "both"
    #: Seed of the update stream (independent of the base data seed).
    seed: int = 0
    #: Never delete a side below this many points (a join needs data).
    min_side_size: int = 2

    def __post_init__(self) -> None:
        if self.sides not in ("P", "Q", "both"):
            raise ValueError(
                f"unknown sides {self.sides!r}; expected 'P', 'Q' or 'both'"
            )
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise ValueError("insert_fraction must lie in [0, 1]")
        if self.batches < 1 or self.batch_size < 1:
            raise ValueError("batches and batch_size must be positive")
        if self.min_side_size < 1:
            raise ValueError("min_side_size must be positive")


def generate_update_batches(
    workload: Workload, config: DynamicWorkloadConfig
) -> List[UpdateBatch]:
    """A reproducible insert/delete stream against a built workload.

    Inserts draw fresh points uniformly from the workload domain with oids
    above the existing ranges; deletes pick random currently-live oids.
    The generator tracks liveness across batches so every produced stream
    applies cleanly in order.
    """
    rng = random.Random(config.seed)
    live: Dict[str, Dict[int, Point]] = {
        "P": dict(enumerate(workload.points_p)),
        "Q": dict(enumerate(workload.points_q)),
    }
    taken = {
        side: {(p.x, p.y) for p in points.values()} for side, points in live.items()
    }
    next_oid = {side: max(live[side], default=-1) + 1 for side in ("P", "Q")}
    sides = ("P", "Q") if config.sides == "both" else (config.sides,)
    domain = workload.domain
    batches: List[UpdateBatch] = []
    for _ in range(config.batches):
        updates: List[Update] = []
        batch_deleted: Dict[str, set] = {"P": set(), "Q": set()}
        batch_inserted: Dict[str, set] = {"P": set(), "Q": set()}
        for _ in range(config.batch_size):
            side = rng.choice(sides)
            # A batch must not delete what it inserted (or deleted) itself:
            # batches are validated as atomic groups of distinct operations.
            deletable = [
                oid
                for oid in live[side]
                if oid not in batch_deleted[side] and oid not in batch_inserted[side]
            ]
            can_delete = len(live[side]) > config.min_side_size and deletable
            if rng.random() < config.insert_fraction or not can_delete:
                while True:
                    point = Point(
                        round(rng.uniform(domain.xmin, domain.xmax), 4),
                        round(rng.uniform(domain.ymin, domain.ymax), 4),
                    )
                    if (point.x, point.y) not in taken[side]:
                        break
                oid = next_oid[side]
                next_oid[side] += 1
                live[side][oid] = point
                taken[side].add((point.x, point.y))
                batch_inserted[side].add(oid)
                updates.append(Update("insert", side, oid, point))
            else:
                oid = rng.choice(sorted(deletable))
                point = live[side].pop(oid)
                taken[side].discard((point.x, point.y))
                batch_deleted[side].add(oid)
                updates.append(Update("delete", side, oid, point))
        batches.append(UpdateBatch(updates))
    return batches


def build_workload(
    config: Optional[WorkloadConfig] = None,
    points_p: Optional[Sequence[Point]] = None,
    points_q: Optional[Sequence[Point]] = None,
    bulk: bool = True,
) -> Workload:
    """Prepare a measured workload from a config and/or explicit pointsets."""
    config = config if config is not None else WorkloadConfig()
    if points_p is None:
        points_p = uniform_points(config.n_p, seed=config.seed)
    if points_q is None:
        points_q = uniform_points(config.n_q, seed=config.seed + 10_000)
    backend = config.storage if config.storage is not None else default_storage_backend()
    disk = DiskManager(
        page_size=config.page_size,
        storage=backend,
        storage_path=config.storage_path,
    )
    tree_p = build_indexed_pointset(disk, "RP", points_p, domain=config.domain, bulk=bulk)
    tree_q = build_indexed_pointset(disk, "RQ", points_q, domain=config.domain, bulk=bulk)
    workload = Workload(
        disk=disk,
        tree_p=tree_p,
        tree_q=tree_q,
        points_p=list(points_p),
        points_q=list(points_q),
        domain=config.domain,
    )
    workload.reset_measurement(buffer_fraction=config.buffer_fraction)
    return workload
