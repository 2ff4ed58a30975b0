"""PM-CIJ: the partial-materialisation CIJ algorithm (Algorithm 4).

Only the Voronoi diagram of ``P`` is materialised into a bulk-loaded R-tree
``R'_P``.  The algorithm then traverses ``R_Q`` leaf by leaf, computes the
Voronoi cells of each leaf's points in batch, and probes ``R'_P`` with a
single range query covering the batch (block index nested loops).  Compared
to FM-CIJ it saves the construction and the re-reading of ``R'_Q``; like
FM-CIJ it is blocking until ``R'_P`` exists.

The probe loop lives in :func:`probe_q_leaves` so the engine's sharded
executor can split the leaf sequence across workers once ``R'_P`` exists;
:func:`pm_cij` is the classic serial entry point, now a thin wrapper over
:class:`repro.engine.JoinEngine`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.index.entries import Node
from repro.index.rtree import RTree
from repro.join.result import CIJResult, JoinStats
from repro.storage.counters import IOCounters
from repro.voronoi.batch import compute_cells_for_leaf
from repro.voronoi.single import CellComputationStats


def probe_q_leaves(
    voronoi_p: RTree,
    tree_q: RTree,
    leaves: Iterable[Node],
    domain: Rect,
    stats: JoinStats,
    cell_stats: CellComputationStats,
    start_counters: IOCounters,
) -> List[Tuple[int, int]]:
    """Run the PM-CIJ probe pipeline over a sequence of ``R_Q`` leaves.

    For each leaf the Voronoi cells of its points are computed in batch and
    ``R'_P`` is probed with one range query enclosing the whole batch, as
    prescribed by Algorithm 4.  The output depends only on the leaves and
    the materialised diagram, so shard outputs concatenated in leaf order
    reproduce the serial pair list exactly.
    """
    disk = tree_q.disk
    pairs: List[Tuple[int, int]] = []
    for leaf in leaves:
        cells_q = compute_cells_for_leaf(
            tree_q, leaf.entries, domain, stats=cell_stats
        )
        stats.cells_computed_q += len(cells_q)
        # One range query whose region encloses all Voronoi cells of the
        # batch, as prescribed by Algorithm 4.
        batch_region = Rect.union_all(cell.mbr() for cell in cells_q.values())
        tree_p_candidates = voronoi_p.range_search(batch_region)
        for cell_q in cells_q.values():
            cell_q_mbr = cell_q.mbr()
            for entry_p in tree_p_candidates:
                if not entry_p.mbr.intersects(cell_q_mbr):
                    continue
                if entry_p.payload.intersects(cell_q):
                    pairs.append((entry_p.oid, cell_q.oid))
        accesses = disk.counters.diff(start_counters).page_accesses
        stats.record_progress(accesses, len(pairs))
    return pairs


def pm_cij(
    tree_p: RTree,
    tree_q: RTree,
    domain: Optional[Rect] = None,
) -> CIJResult:
    """Run PM-CIJ and return the result pairs with a full cost breakdown."""
    from repro.engine import default_engine  # local import breaks the cycle

    return default_engine().run("pm", tree_p, tree_q, domain=domain)
