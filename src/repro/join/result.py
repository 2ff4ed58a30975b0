"""Result and statistics records shared by the three CIJ algorithms.

Every experiment in the paper reports one (or more) of: page accesses split
into materialisation (MAT) and join processing (JOIN), CPU time, the output
progressiveness curve, the false-hit ratio of the filter step, and the
number of exact Voronoi cells computed for points of P.  The
:class:`JoinStats` record carries all of them so that one run of an
algorithm can feed several figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:  # imported lazily to keep the result record dependency-free
    from repro.join.conditional_filter import FilterStats
    from repro.storage.backends import StorageStats
    from repro.voronoi.single import CellComputationStats


@dataclass(frozen=True)
class ProgressSample:
    """One point of the output-progressiveness curve (Figure 9b)."""

    page_accesses: int
    pairs_reported: int


@dataclass
class JoinStats:
    """Cost breakdown of one CIJ execution."""

    algorithm: str
    #: Physical page accesses spent materialising Voronoi R-trees (MAT).
    mat_page_accesses: int = 0
    #: Physical page accesses spent producing join results (JOIN).
    join_page_accesses: int = 0
    #: Wall-clock seconds spent in the materialisation phase.
    mat_cpu_seconds: float = 0.0
    #: Wall-clock seconds spent in the join phase.
    join_cpu_seconds: float = 0.0
    #: Exact Voronoi cells computed for points of P (counts recomputations).
    cells_computed_p: int = 0
    #: Exact Voronoi cells computed for points of Q.
    cells_computed_q: int = 0
    #: Cells of P obtained from the REUSE buffer instead of recomputation.
    cells_reused_p: int = 0
    #: Σ s_i — filter-phase candidates over all leaf batches (NM-CIJ only).
    filter_candidates: int = 0
    #: Σ s'_i — candidates that produced at least one join pair per batch.
    filter_true_hits: int = 0
    #: Output progressiveness samples (page accesses → pairs reported).
    progress: List[ProgressSample] = field(default_factory=list)

    @property
    def total_page_accesses(self) -> int:
        """MAT + JOIN page accesses — the headline metric of the paper."""
        return self.mat_page_accesses + self.join_page_accesses

    @property
    def total_cpu_seconds(self) -> float:
        """MAT + JOIN CPU time."""
        return self.mat_cpu_seconds + self.join_cpu_seconds

    @property
    def false_hit_ratio(self) -> float:
        """FHR = (Σ s_i − Σ s'_i) / Σ s'_i (Section V-B); 0 when undefined."""
        if self.filter_true_hits == 0:
            return 0.0
        return (self.filter_candidates - self.filter_true_hits) / self.filter_true_hits

    def record_progress(self, page_accesses: int, pairs_reported: int) -> None:
        """Append one progressiveness sample."""
        self.progress.append(ProgressSample(page_accesses, pairs_reported))

    def accumulate(self, other: "JoinStats") -> None:
        """Add another record's scalar counters into this one.

        Used by the sharded executor to merge per-shard statistics; the
        ``algorithm`` label and the ``progress`` curve are left to the
        caller, which knows the shard ordering.  Scalars are summed
        generically so a counter added to the dataclass can never be
        silently dropped from sharded-run statistics.
        """
        for field_info in fields(self):
            if field_info.name in ("algorithm", "progress"):
                continue
            setattr(
                self,
                field_info.name,
                getattr(self, field_info.name) + getattr(other, field_info.name),
            )


@dataclass
class CIJResult:
    """The pairs produced by a CIJ algorithm together with its statistics.

    Runs executed through :class:`repro.engine.JoinEngine` additionally
    carry the Voronoi-computation and filter-phase work counters, which the
    standalone entry points used to accumulate internally and then discard.
    """

    pairs: List[Tuple[int, int]]
    stats: JoinStats
    cell_stats: Optional["CellComputationStats"] = None
    filter_stats: Optional["FilterStats"] = None
    #: Physical byte movement of the run's disk, snapshotted when the
    #: engine run ends (lifetime values of the workload's disk manager, not
    #: a per-run delta).
    storage: Optional["StorageStats"] = None

    def pair_set(self) -> Set[Tuple[int, int]]:
        """The result as a set (order-insensitive comparison in tests)."""
        return set(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)
