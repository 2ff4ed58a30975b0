"""NM-CIJ: the non-blocking, no-materialisation CIJ algorithm (Algorithm 6).

The algorithm traverses ``R_Q`` leaf by leaf (Hilbert order).  For every
leaf it

1. computes the Voronoi cells of the leaf's points in batch (Algorithm 2),
2. runs the batch ConditionalFilter against ``R_P`` (Algorithm 5) to obtain
   the candidate set ``C_P``,
3. obtains the exact cells of the candidates — from the REUSE buffer filled
   by the previous leaf when possible, otherwise by a batch computation —
4. reports ``(p, q)`` whenever the two exact cells intersect; candidates
   lying *inside* a target cell are reported for that target without an
   intersection test.

No Voronoi R-tree is ever built, so result pairs start streaming out after
only a few page accesses, and the total I/O stays close to the lower bound
of reading both source trees once.

The per-leaf loop lives in :func:`process_q_leaves` so that the engine's
sharded executor can run disjoint Hilbert-contiguous slices of the leaf
sequence in parallel workers; :func:`nm_cij` is the classic serial entry
point, now a thin wrapper over :class:`repro.engine.JoinEngine`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.geometry.rect import Rect
from repro.index.entries import Node
from repro.index.rtree import RTree
from repro.join.conditional_filter import (
    FilterStats,
    batch_conditional_filter,
    candidate_cells_from_buffer,
)
from repro.join.result import CIJResult, JoinStats
from repro.storage.counters import IOCounters
from repro.voronoi.batch import compute_cells_for_leaf, compute_voronoi_cells
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import CellComputationStats


def process_q_leaves(
    tree_p: RTree,
    tree_q: RTree,
    leaves: Iterable[Node],
    domain: Rect,
    stats: JoinStats,
    cell_stats: CellComputationStats,
    filter_stats: FilterStats,
    start_counters: IOCounters,
    reuse_cells: bool = True,
    use_phi_pruning: bool = True,
    initial_reuse: Union[
        None, Dict[int, VoronoiCell], Callable[[], Optional[Dict[int, VoronoiCell]]]
    ] = None,
) -> Tuple[List[Tuple[int, int]], Dict[int, VoronoiCell]]:
    """Run the NM-CIJ per-leaf pipeline over a sequence of ``R_Q`` leaves.

    This is the complete join when ``leaves`` is the full Hilbert-ordered
    leaf stream (the serial executor passes the lazy iterator straight
    through, preserving the paper's interleaving of I/O and output), and
    one shard's work when it is a contiguous slice of that stream.  The
    produced pairs depend only on the leaves themselves, never on buffer
    state or the REUSE carry-over, so concatenating shard outputs in leaf
    order reproduces the serial pair list exactly.

    ``initial_reuse`` seeds the REUSE buffer for the first leaf: the
    sharded executor's boundary handoff passes shard *k*'s final buffer
    here so shard *k+1* reuses the cells the serial run would have carried
    across the boundary instead of recomputing them.  The final buffer
    (the cells of the last processed leaf) is returned alongside the pairs
    so it can be handed to the next shard in turn.  ``initial_reuse`` may
    also be a zero-argument callable returning that buffer: it is called
    once, right before step 3 of the first leaf, so a distributed node
    runs steps 1–2 while the previous unit is still finishing elsewhere.

    Progress samples are recorded after every leaf relative to
    ``start_counters`` (shard-local counters for a forked worker).
    """
    disk = tree_q.disk
    pairs: List[Tuple[int, int]] = []
    # Filled from ``initial_reuse`` right before the first step 3.
    reuse_buffer: Optional[Dict[int, VoronoiCell]] = None

    for leaf in leaves:
        # (1) Voronoi cells of the Q points in this leaf.
        cells_q = compute_cells_for_leaf(
            tree_q, leaf.entries, domain, stats=cell_stats
        )
        stats.cells_computed_q += len(cells_q)

        # (2) Filter phase: candidate P points for the whole batch.
        target_polygons = [cell.polygon for cell in cells_q.values()]
        candidates = batch_conditional_filter(
            target_polygons,
            tree_p,
            domain,
            use_phi_pruning=use_phi_pruning,
            stats=filter_stats,
        )
        stats.filter_candidates += len(candidates)

        # (3) Refinement phase: exact cells of the candidates, reusing the
        # cells computed for the previous leaf where possible.
        if reuse_buffer is None:
            reuse_buffer = _inbound_reuse(initial_reuse, reuse_cells)
        if reuse_cells:
            missing, cells_p = candidate_cells_from_buffer(candidates, reuse_buffer)
            stats.cells_reused_p += len(cells_p)
        else:
            missing, cells_p = list(candidates), {}
        if missing:
            computed = compute_voronoi_cells(
                tree_p, missing, domain, stats=cell_stats
            )
            stats.cells_computed_p += len(computed)
            cells_p.update(computed)

        # (4) Report intersecting pairs.  Candidates strictly inside a
        # target cell are guaranteed hits for that target (case 1 of
        # Section IV-A); the strict test keeps the shortcut consistent with
        # the exclude-zero-area tie convention of the exact predicate, and
        # points on the boundary simply fall through to it.
        joined_candidates = set()
        candidate_mbrs = {p_oid: cells_p[p_oid].mbr() for p_oid, _ in candidates}
        for q_oid, cell_q in cells_q.items():
            q_mbr = cell_q.mbr()
            for p_oid, p_point in candidates:
                cell_p = cells_p[p_oid]
                if cell_q.polygon.contains_point_interior(p_point) or (
                    candidate_mbrs[p_oid].intersects(q_mbr)
                    and cell_p.intersects(cell_q)
                ):
                    pairs.append((p_oid, q_oid))
                    joined_candidates.add(p_oid)
        stats.filter_true_hits += len(joined_candidates)

        # The REUSE buffer is replaced by the cells of the current batch.
        reuse_buffer = cells_p if reuse_cells else {}

        accesses = disk.counters.diff(start_counters).page_accesses
        stats.record_progress(accesses, len(pairs))

    if reuse_buffer is None:
        reuse_buffer = _inbound_reuse(initial_reuse, reuse_cells)
    return pairs, reuse_buffer


def _inbound_reuse(initial_reuse, reuse_cells: bool) -> Dict[int, VoronoiCell]:
    """The first leaf's REUSE buffer; fetches a deferred carry exactly once."""
    inbound = initial_reuse() if callable(initial_reuse) else initial_reuse
    return dict(inbound) if reuse_cells and inbound else {}


def nm_cij(
    tree_p: RTree,
    tree_q: RTree,
    domain: Optional[Rect] = None,
    reuse_cells: bool = True,
    use_phi_pruning: bool = True,
) -> CIJResult:
    """Run NM-CIJ and return the result pairs with a full cost breakdown.

    Parameters
    ----------
    tree_p, tree_q:
        Source R-trees over ``P`` and ``Q`` sharing one disk manager.
    domain:
        Space domain ``U``; defaults to the union of the two tree MBRs.
    reuse_cells:
        Enable the REUSE buffer that carries the exact ``P``-cells of the
        previous leaf batch over to the next one (Section IV-B); disabling
        it gives the NO-REUSE variant of Figure 11.
    use_phi_pruning:
        Enable the Lemma-3 non-leaf pruning rule inside the filter phase;
        disabling it is an ablation, not a paper configuration.
    """
    from repro.engine import default_engine  # local import breaks the cycle

    return default_engine().run(
        "nm",
        tree_p,
        tree_q,
        domain=domain,
        reuse_cells=reuse_cells,
        use_phi_pruning=use_phi_pruning,
    )
