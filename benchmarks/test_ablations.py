"""Ablation benches: design choices the paper asserts but does not plot."""

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_cells_for_leaf


def test_ablation_visit_order(benchmark, experiment_runner):
    """Best-first vs depth-first entry ordering inside BF-VOR."""
    result = experiment_runner("ablation_visit_order")
    accesses = {row[0]: row[2] for row in result.rows}
    assert accesses["best-first"] <= accesses["depth-first"]

    from repro.voronoi.single import compute_voronoi_cell

    points = uniform_points(500, seed=20)
    tree = build_indexed_pointset(DiskManager(), "RP", points, domain=DOMAIN)
    benchmark(
        lambda: compute_voronoi_cell(
            tree, points[42], DOMAIN, site_oid=42, visit_order="depth-first"
        )
    )


def test_ablation_phi_pruning(benchmark, experiment_runner):
    """NM-CIJ with the Lemma-3 Φ pruning rule on vs off."""
    result = experiment_runner("ablation_phi")
    pages = {row[0]: row[1] for row in result.rows}
    pairs = {row[2] for row in result.rows}
    assert len(pairs) == 1  # pruning never changes the result
    assert pages["with Φ pruning"] <= pages["without Φ pruning"]

    from repro.join.conditional_filter import batch_conditional_filter
    from repro.voronoi.diagram import brute_force_cell

    points_p = uniform_points(500, seed=21)
    points_q = uniform_points(40, seed=31)
    tree_p = build_indexed_pointset(DiskManager(), "RP", points_p, domain=DOMAIN)
    targets = [brute_force_cell(q, points_q, DOMAIN).polygon for q in points_q[:8]]
    benchmark(
        lambda: batch_conditional_filter(targets, tree_p, DOMAIN, use_phi_pruning=False)
    )


def test_ablation_batch_vs_single(benchmark, experiment_runner):
    """BatchVoronoi vs per-point BF-VOR for the cells of one leaf."""
    result = experiment_runner("ablation_batch")
    accesses = {row[0]: row[2] for row in result.rows}
    assert accesses["BATCH"] <= accesses["SINGLE"]
    # The I/O saving is the point of Algorithm 2; the CPU saving only shows
    # at larger leaf populations (paper Figure 6b), so it is not asserted.

    points = uniform_points(500, seed=22)
    tree = build_indexed_pointset(DiskManager(), "RP", points, domain=DOMAIN)
    leaf = next(tree.iter_leaf_nodes())
    benchmark(lambda: compute_cells_for_leaf(tree, leaf.entries, DOMAIN))
