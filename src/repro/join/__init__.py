"""Join operators over R-tree-indexed pointsets.

The package contains the paper's three CIJ algorithms, the classical join
operators they are compared against in the introduction, the synchronous
traversal join used as a subroutine, and the brute-force baseline:

* :func:`~repro.join.fm_cij.fm_cij` — full materialisation (Algorithm 3),
* :func:`~repro.join.pm_cij.pm_cij` — partial materialisation (Algorithm 4),
* :func:`~repro.join.nm_cij.nm_cij` — non-blocking, no materialisation
  (Algorithms 5 and 6) with the REUSE cell buffer,
* :func:`~repro.join.synchronous.join_from_seeds` — the R-tree intersection
  join of Brinkhoff et al., in the partitioned form FM-CIJ runs,
* :func:`~repro.join.distance.epsilon_distance_join` and
  :func:`~repro.join.allnn.all_nearest_neighbors` — related-work operators
  the examples contrast CIJ with,
* :func:`~repro.join.baseline.brute_force_cij` — the quadratic,
  index-free baseline (``--method brute``),
* :func:`~repro.join.lower_bound.lower_bound_io` — the LB line of the plots.
"""

from repro.join.result import CIJResult, JoinStats, ProgressSample
from repro.join.baseline import brute_force_cij
from repro.join.lower_bound import lower_bound_io
from repro.join.distance import epsilon_distance_join
from repro.join.allnn import all_nearest_neighbors
from repro.join.conditional_filter import batch_conditional_filter
from repro.join.fm_cij import fm_cij
from repro.join.pm_cij import pm_cij
from repro.join.nm_cij import nm_cij

__all__ = [
    "CIJResult",
    "JoinStats",
    "ProgressSample",
    "brute_force_cij",
    "lower_bound_io",
    "epsilon_distance_join",
    "all_nearest_neighbors",
    "batch_conditional_filter",
    "fm_cij",
    "pm_cij",
    "nm_cij",
]
