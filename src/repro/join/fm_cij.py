"""FM-CIJ: the full-materialisation CIJ algorithm (Algorithm 3).

Both Voronoi diagrams are computed (BatchVoronoi per source leaf), indexed
into bulk-loaded R-trees ``R'_P`` and ``R'_Q``, and finally joined with the
synchronous-traversal intersection join.  The algorithm is *blocking*: no
result pair is produced before both Voronoi R-trees exist.

The join phase is organised around the *partitioned* synchronous traversal
(:func:`repro.join.synchronous.partitioned_join_seeds`): the coupled walk
over both trees decomposes into one independent depth-first traversal per
top-level ``R'_P`` entry, each running against the MBR-pruned fan-in of the
top-level ``R'_Q`` entries.  Processing the partitions in order reproduces
the classic single-stack traversal byte for byte (pairs *and* page
accesses), and the engine's sharded executor distributes contiguous runs of
partitions across workers — so FM-CIJ shards exactly like the leaf-shaped
algorithms.

:func:`fm_cij` is the classic entry point, now a thin wrapper over
:class:`repro.engine.JoinEngine`; the join phase lives in
:func:`join_partitions`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.join.materialize import cells_intersect_entry
from repro.join.result import CIJResult, JoinStats
from repro.join.synchronous import (
    JoinPartition,
    join_from_seeds,
    partitioned_join_seeds,
)
from repro.storage.counters import IOCounters

#: Granularity (in produced pairs) of FM-CIJ's progressiveness samples.
PROGRESS_INTERVAL = 1000


def fm_join_partitions(voronoi_p: RTree, voronoi_q: RTree) -> List[JoinPartition]:
    """The shard units of FM-CIJ's join phase (top-level ``R'_P`` slices)."""
    return partitioned_join_seeds(voronoi_p, voronoi_q)


def join_partitions(
    voronoi_p: RTree,
    voronoi_q: RTree,
    partitions: Sequence[JoinPartition],
    stats: JoinStats,
    start_counters: IOCounters,
) -> List[Tuple[int, int]]:
    """Run the synchronous join over a sequence of partitions.

    This is the complete join phase when ``partitions`` is the full list
    from :func:`fm_join_partitions`, and one shard's work when it is a
    contiguous slice of it.  Progress samples are recorded every
    :data:`PROGRESS_INTERVAL` produced pairs relative to ``start_counters``
    (shard-local counters for a forked worker).
    """
    disk = voronoi_p.disk
    pairs: List[Tuple[int, int]] = []
    for partition in partitions:
        for entry_p, entry_q in join_from_seeds(
            voronoi_p, voronoi_q, partition.seeds, refine=cells_intersect_entry
        ):
            pairs.append((entry_p.oid, entry_q.oid))
            if len(pairs) % PROGRESS_INTERVAL == 0:
                accesses = disk.counters.diff(start_counters).page_accesses
                stats.record_progress(accesses, len(pairs))
    return pairs


def fm_cij(
    tree_p: RTree,
    tree_q: RTree,
    domain: Optional[Rect] = None,
) -> CIJResult:
    """Run FM-CIJ and return the result pairs with a full cost breakdown.

    Parameters
    ----------
    tree_p, tree_q:
        Source R-trees over the pointsets ``P`` and ``Q``.  They must share
        a single :class:`~repro.storage.disk.DiskManager` so that the page
        accesses of every phase land in the same counters.
    domain:
        Space domain ``U``; defaults to the union of the two tree MBRs.
    """
    from repro.engine import default_engine  # local import breaks the cycle

    return default_engine().run("fm", tree_p, tree_q, domain=domain)
