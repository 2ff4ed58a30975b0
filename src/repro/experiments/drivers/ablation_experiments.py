"""Ablation experiments beyond the paper's main line.

These quantify design choices the paper asserts but does not plot:

* ``ablation_visit_order`` — BF-VOR's best-first visit order vs a plain
  depth-first order (the paper argues best-first "makes it more likely to
  discover early points near p_i").
* ``ablation_phi``        — NM-CIJ with and without the Lemma-3 Φ pruning of
  non-leaf entries in the ConditionalFilter.
* ``ablation_batch``      — BatchVoronoi vs per-point BF-VOR for the cells
  of one leaf (the motivation for Algorithm 2).
"""

from __future__ import annotations

import random
import time

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.experiments.drivers.common import run_cij, uniform_pair
from repro.experiments.harness import ExperimentResult, ExperimentScale, register
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_cells_for_leaf
from repro.voronoi.single import compute_voronoi_cell


@register("ablation_visit_order")
def ablation_visit_order(scale: ExperimentScale) -> ExperimentResult:
    """Best-first vs depth-first entry ordering inside BF-VOR."""
    result = ExperimentResult(
        experiment_id="ablation_visit_order",
        title="BF-VOR visit order ablation (best-first vs depth-first)",
        paper_reference="Section III-A design choice (not plotted in the paper)",
        columns=["visit order", "queries", "mean node accesses", "mean CPU (ms)"],
    )
    points = uniform_points(scale.base_cardinality, seed=20)
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    rng = random.Random(7)
    query_ids = rng.sample(range(len(points)), min(scale.single_cell_queries, len(points)))
    for order in ("best-first", "depth-first"):
        accesses = []
        cpu = []
        for oid in query_ids:
            disk.buffer.clear()
            disk.reset_counters()
            start = time.perf_counter()
            compute_voronoi_cell(tree, points[oid], DOMAIN, site_oid=oid, visit_order=order)
            cpu.append(time.perf_counter() - start)
            accesses.append(disk.counters.reads)
        result.add_row(
            order, len(query_ids), sum(accesses) / len(accesses), 1000 * sum(cpu) / len(cpu)
        )
    result.add_note(
        "Both orders return the exact cell; best-first tightens the cell early "
        "so Lemma-2 pruning kicks in sooner and fewer nodes are expanded."
    )
    return result


@register("ablation_phi")
def ablation_phi_pruning(scale: ExperimentScale) -> ExperimentResult:
    """NM-CIJ with the Lemma-3 Φ pruning rule enabled vs disabled."""
    result = ExperimentResult(
        experiment_id="ablation_phi",
        title="NM-CIJ filter ablation: Lemma-3 Φ pruning on vs off",
        paper_reference="Section IV-A pruning rule (not plotted in the paper)",
        columns=["variant", "page accesses", "result pairs", "CPU (s)"],
    )
    points_p, points_q = uniform_pair(scale.base_cardinality, seed=21)
    for variant, use_phi in (("with Φ pruning", True), ("without Φ pruning", False)):
        run = run_cij("NM-CIJ", points_p, points_q, use_phi_pruning=use_phi)
        result.add_row(
            variant,
            run.stats.total_page_accesses,
            len(run.pairs),
            run.stats.total_cpu_seconds,
        )
    result.add_note(
        "Disabling the rule never changes the result but forces the filter to "
        "expand every subtree it meets, inflating page accesses."
    )
    return result


@register("ablation_batch")
def ablation_batch_vs_single(scale: ExperimentScale) -> ExperimentResult:
    """BatchVoronoi vs repeated single-cell computation for one leaf node."""
    result = ExperimentResult(
        experiment_id="ablation_batch",
        title="Cells of one leaf: BatchVoronoi vs per-point BF-VOR",
        paper_reference="Motivation for Algorithm 2 (Section III-B)",
        columns=["method", "leaves sampled", "mean node accesses per leaf", "mean CPU per leaf (ms)"],
    )
    points = uniform_points(scale.base_cardinality, seed=22)
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    leaves = list(tree.iter_leaf_nodes())
    rng = random.Random(3)
    sample = rng.sample(leaves, min(10, len(leaves)))
    for method in ("BATCH", "SINGLE"):
        accesses = []
        cpu = []
        for leaf in sample:
            disk.buffer.clear()
            disk.reset_counters()
            start = time.perf_counter()
            if method == "BATCH":
                compute_cells_for_leaf(tree, leaf.entries, DOMAIN)
            else:
                for entry in leaf.entries:
                    compute_voronoi_cell(tree, entry.payload, DOMAIN, site_oid=entry.oid)
            cpu.append(time.perf_counter() - start)
            accesses.append(disk.counters.reads)
        result.add_row(
            method, len(sample), sum(accesses) / len(accesses), 1000 * sum(cpu) / len(cpu)
        )
    result.add_note(
        "BatchVoronoi reads the shared neighbourhood once instead of once per "
        "point, so both I/O and CPU per leaf drop."
    )
    return result
