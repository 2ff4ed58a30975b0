"""Drivers for the CIJ-computation experiments (Section V-B).

* ``fig7``   — MAT/JOIN cost breakdown of FM-CIJ, PM-CIJ and NM-CIJ.
* ``fig8a``  — effect of the LRU buffer size.
* ``fig8b``  — scalability with the datasize.
* ``fig9a``  — effect of the cardinality ratio |Q|:|P|.
* ``fig9b``  — output progressiveness (pairs produced vs page accesses).
* ``table3`` — result size and page accesses on real dataset pairs.
"""

from __future__ import annotations

from repro.datasets.real_like import real_like_dataset
from repro.experiments.drivers.common import (
    CIJ_ALGORITHMS,
    lower_bound_for,
    ratio_cardinalities,
    run_cij,
    uniform_pair,
)
from repro.experiments.harness import ExperimentResult, ExperimentScale, register


@register("fig7")
def fig7_cost_breakdown(scale: ExperimentScale) -> ExperimentResult:
    """Figure 7: I/O and CPU broken into materialisation and join phases."""
    result = ExperimentResult(
        experiment_id="fig7",
        title="Cost breakdown (MAT vs JOIN) of the three CIJ algorithms",
        paper_reference="Figure 7, |P|=|Q| uniform, 2% buffer",
        columns=[
            "algorithm",
            "MAT pages",
            "JOIN pages",
            "total pages",
            "MAT CPU (s)",
            "JOIN CPU (s)",
            "result pairs",
            "CPU ops",
        ],
    )
    points_p, points_q = uniform_pair(scale.base_cardinality, seed=7)
    for name in CIJ_ALGORITHMS:
        run = run_cij(name, points_p, points_q)
        # Deterministic CPU proxy: every heap pop, Lemma-1 clip and point
        # examination of the Voronoi and filter phases.  Wall-clock CPU is
        # kept for information but is load-dependent, so the benchmark
        # asserts the paper's "NM is the most CPU-intensive" claim on this
        # counter instead.
        cpu_ops = (
            run.cell_stats.heap_pops
            + run.cell_stats.refinements
            + run.cell_stats.points_examined
            + run.filter_stats.heap_pops
            + run.filter_stats.points_examined
        )
        result.add_row(
            name,
            run.stats.mat_page_accesses,
            run.stats.join_page_accesses,
            run.stats.total_page_accesses,
            run.stats.mat_cpu_seconds,
            run.stats.join_cpu_seconds,
            len(run.pairs),
            cpu_ops,
        )
    result.add_note(
        "NM-CIJ pays no materialisation I/O; its total should be well below "
        "PM-CIJ, which in turn is below FM-CIJ (paper Figure 7a)."
    )
    result.add_note(
        "NM-CIJ's CPU cost is the highest of the three (extra filter-phase "
        "work); in this pure-Python implementation the wall-clock gap is "
        "larger than the paper's 10-20% because the filter arithmetic is "
        "interpreted."
    )
    return result


@register("fig8a")
def fig8a_buffer_effect(scale: ExperimentScale) -> ExperimentResult:
    """Figure 8a: page accesses as a function of the LRU buffer size."""
    result = ExperimentResult(
        experiment_id="fig8a",
        title="Effect of the LRU buffer size on page accesses",
        paper_reference="Figure 8a, |P|=|Q| uniform, buffer 0-10% of data size",
        columns=["buffer %", "algorithm", "page accesses"],
    )
    points_p, points_q = uniform_pair(scale.base_cardinality, seed=8)
    lb = lower_bound_for(points_p, points_q)
    for fraction in (0.0, 0.01, 0.02, 0.05, 0.10):
        for name in CIJ_ALGORITHMS:
            run = run_cij(name, points_p, points_q, buffer_fraction=fraction)
            result.add_row(100 * fraction, name, run.stats.total_page_accesses)
        result.add_row(100 * fraction, "LB", lb)
    result.add_note(
        "All methods improve with a larger buffer; NM-CIJ converges towards LB "
        "(paper: only ~30% above LB at a 2% buffer)."
    )
    return result


@register("fig8b")
def fig8b_scalability(scale: ExperimentScale) -> ExperimentResult:
    """Figure 8b: page accesses as a function of the datasize."""
    result = ExperimentResult(
        experiment_id="fig8b",
        title="Scalability with the datasize (|P| = |Q| = n)",
        paper_reference="Figure 8b, uniform data, 2% buffer",
        columns=["datasize", "algorithm", "page accesses"],
    )
    for n in scale.sweep_cardinalities:
        points_p, points_q = uniform_pair(n, seed=8)
        for name in CIJ_ALGORITHMS:
            run = run_cij(name, points_p, points_q)
            result.add_row(n, name, run.stats.total_page_accesses)
        result.add_row(n, "LB", lower_bound_for(points_p, points_q))
    result.add_note("All methods scale roughly linearly; NM-CIJ stays closest to LB.")
    return result


@register("fig9a")
def fig9a_cardinality_ratio(scale: ExperimentScale) -> ExperimentResult:
    """Figure 9a: page accesses as a function of the cardinality ratio."""
    result = ExperimentResult(
        experiment_id="fig9a",
        title="Effect of the cardinality ratio |Q|:|P| (constant |P|+|Q|)",
        paper_reference="Figure 9a, |P|+|Q| constant (paper: 200K)",
        columns=["ratio |Q|:|P|", "algorithm", "page accesses"],
    )
    total = 2 * scale.base_cardinality
    for label, ratio in (("1:4", (1, 4)), ("1:2", (1, 2)), ("1:1", (1, 1)), ("2:1", (2, 1)), ("4:1", (4, 1))):
        n_p, n_q = ratio_cardinalities(total, ratio)
        points_p, points_q = uniform_pair(n_p, n_q, seed=9)
        for name in CIJ_ALGORITHMS:
            run = run_cij(name, points_p, points_q)
            result.add_row(label, name, run.stats.total_page_accesses)
        result.add_row(label, "LB", lower_bound_for(points_p, points_q))
    result.add_note(
        "PM-CIJ benefits from a smaller |P| (fewer cells to materialise); FM-CIJ "
        "is insensitive to the ratio; NM-CIJ remains the cheapest throughout."
    )
    return result


@register("fig9b")
def fig9b_output_progress(scale: ExperimentScale) -> ExperimentResult:
    """Figure 9b: result pairs produced as a function of current I/O."""
    result = ExperimentResult(
        experiment_id="fig9b",
        title="Output progressiveness (result pairs vs page accesses)",
        paper_reference="Figure 9b, |P|=|Q| uniform, 2% buffer",
        columns=["algorithm", "page accesses", "result pairs"],
    )
    points_p, points_q = uniform_pair(scale.base_cardinality, seed=9)
    for name in CIJ_ALGORITHMS:
        run = run_cij(name, points_p, points_q)
        samples = run.stats.progress
        # Downsample to at most 12 rows per algorithm to keep the table small.
        step = max(1, len(samples) // 12)
        kept = samples[::step]
        if samples and kept[-1] != samples[-1]:
            kept.append(samples[-1])
        for sample in kept:
            result.add_row(name, sample.page_accesses, sample.pairs_reported)
    result.add_note(
        "FM-CIJ and PM-CIJ report nothing until their Voronoi R-trees exist "
        "(blocking); NM-CIJ produces pairs from the first few page accesses."
    )
    return result


@register("table3")
def table3_real_dataset_joins(scale: ExperimentScale) -> ExperimentResult:
    """Table III: output size and page accesses on real dataset pairs."""
    result = ExperimentResult(
        experiment_id="table3",
        title="CIJ on real dataset pairs (stand-ins): result size and I/O",
        paper_reference="Table III; Q joined with P, 2% buffer",
        columns=[
            "Q",
            "P",
            "|Q|",
            "|P|",
            "CIJ pairs",
            "FM-CIJ pages",
            "PM-CIJ pages",
            "NM-CIJ pages",
        ],
    )
    pairs = [("SC", "PP"), ("CE", "LO"), ("CE", "SC"), ("LO", "PP"), ("PA", "SC"), ("PA", "PP")]
    for q_name, p_name in pairs:
        points_q = real_like_dataset(q_name, scale=scale.real_dataset_scale)
        points_p = real_like_dataset(p_name, scale=scale.real_dataset_scale)
        accesses = {}
        pair_count = 0
        for name in CIJ_ALGORITHMS:
            run = run_cij(name, points_p, points_q)
            accesses[name] = run.stats.total_page_accesses
            pair_count = len(run.pairs)
        result.add_row(
            q_name,
            p_name,
            len(points_q),
            len(points_p),
            pair_count,
            accesses["FM-CIJ"],
            accesses["PM-CIJ"],
            accesses["NM-CIJ"],
        )
    result.add_note(
        "Expected ordering on every pair: NM-CIJ < PM-CIJ < FM-CIJ page accesses; "
        "the output size is comparable to the input size (paper Table III)."
    )
    return result
