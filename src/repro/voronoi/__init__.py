"""Voronoi-cell computation over R-tree-indexed pointsets.

This subpackage contains the paper's side contribution and its baselines:

* :func:`~repro.voronoi.single.compute_voronoi_cell` — **BF-VOR**
  (Algorithm 1): exact single-cell computation in one best-first traversal,
* :func:`~repro.voronoi.batch.compute_voronoi_cells` — **BatchVoronoi**
  (Algorithm 2): concurrent cell computation for a group of nearby points,
* :func:`~repro.voronoi.tpvor.compute_voronoi_cell_tpvor` — the TP-VOR
  baseline [Zhang et al. 2003] driven by repeated TPNN traversals,
* :class:`~repro.voronoi.diagram.VoronoiDiagram` and builders (ITER, BATCH
  and a brute-force oracle) used by FM-CIJ, PM-CIJ and the test-suite.
"""

from repro.voronoi.cell import VoronoiCell
from repro.voronoi.single import compute_voronoi_cell
from repro.voronoi.batch import compute_voronoi_cells
from repro.voronoi.tpvor import compute_voronoi_cell_tpvor
from repro.voronoi.diagram import (
    VoronoiDiagram,
    brute_force_cell,
    brute_force_diagram,
    compute_voronoi_diagram,
)

__all__ = [
    "VoronoiCell",
    "compute_voronoi_cell",
    "compute_voronoi_cells",
    "compute_voronoi_cell_tpvor",
    "VoronoiDiagram",
    "compute_voronoi_diagram",
    "brute_force_cell",
    "brute_force_diagram",
]
