"""Brute-force CIJ baseline (``--method brute``).

The baseline computes both Voronoi diagrams directly from Equation 2
(clipping the domain by every bisector) and tests all cell pairs for
intersection.  It is quadratic and index-free, which makes it slow but
trivially correct; the test-suite validates the three R-tree algorithms
against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.join.result import CIJResult, JoinStats
from repro.voronoi.diagram import brute_force_diagram


def brute_force_cij(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    domain: Rect,
    oids_p: Optional[Sequence[int]] = None,
    oids_q: Optional[Sequence[int]] = None,
) -> CIJResult:
    """Compute ``CIJ(P, Q)`` from first principles (no indexes, no pruning)."""
    diagram_p = brute_force_diagram(points_p, domain, oids=oids_p)
    diagram_q = brute_force_diagram(points_q, domain, oids=oids_q)
    pairs = diagram_p.intersecting_pairs(diagram_q)
    stats = JoinStats(algorithm="BRUTE")
    return CIJResult(pairs=pairs, stats=stats)
