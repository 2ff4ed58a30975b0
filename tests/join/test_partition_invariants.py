"""Invariants of the join that hold at any size: partition and coverage.

The brute-force oracle is quadratic in ``|P| * |Q|``.  Two properties that
follow from the paper's definition are linear in the number of result
pairs instead, so they can check a join where no oracle reaches:

* *partition* — the common-influence regions ``V(p) ∩ V(q)`` of the result
  pairs tile the domain ``U``: their areas sum to ``area(U)``.  A missing
  pair of positive area makes the sum fall short, a spurious one makes it
  overshoot.  Each region's edges may sit up to ``BOUNDARY_EPS`` off the
  exact bisectors, so the sum may differ from ``area(U)`` by at most
  ``BOUNDARY_EPS`` times the summed region perimeters;
* *coverage* — every ``p`` and every ``q`` appears in some pair (each cell
  has positive area and lies in ``U``, so some cell of the other set
  overlaps it).

The cells come from :func:`~repro.voronoi.diagram.brute_force_diagram`,
independent of the algorithms under test.  The checks run on serial NM,
PM and FM only: every other executor and store is already pinned
byte-identical to serial (``tests/engine/test_storage_equivalence.py``,
``tests/join/test_pinned_digests.py``), so one check per input suffices.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import pytest

from repro.datasets.synthetic import DOMAIN, clustered_points, uniform_points
from repro.experiments.drivers.common import run_cij
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.voronoi.diagram import brute_force_diagram


def _perimeter(polygon) -> float:
    vertices = polygon.vertices
    return sum(
        math.dist((a.x, a.y), (b.x, b.y))
        for a, b in zip(vertices, vertices[1:] + vertices[:1])
    )


def assert_partition_and_coverage(
    pairs: Iterable[Tuple[int, int]],
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    domain: Rect,
    diagrams=None,
) -> float:
    """Assert both invariants for a join result; returns the relative area
    error.  ``diagrams`` may pass precomputed ``(diagram_p, diagram_q)``."""
    pairs = list(pairs)
    if diagrams is None:
        diagrams = (
            brute_force_diagram(points_p, domain),
            brute_force_diagram(points_q, domain),
        )
    diagram_p, diagram_q = diagrams
    covered_area = 0.0
    perimeters = 0.0
    for p, q in pairs:
        region = diagram_p.cell_of(p).polygon.intersection(diagram_q.cell_of(q).polygon)
        covered_area += region.area()
        perimeters += _perimeter(region)
    domain_area = domain.width * domain.height
    error = abs(covered_area - domain_area)
    assert error <= BOUNDARY_EPS * perimeters, (
        f"pair regions cover {covered_area!r} of area(U) = {domain_area!r}"
    )
    assert {p for p, _ in pairs} == set(range(len(points_p))), "uncovered p"
    assert {q for _, q in pairs} == set(range(len(points_q))), "uncovered q"
    return error / domain_area


def _grid(side: int, origin: int, step: int):
    return [Point(origin + step * i, origin + step * j) for i in range(side) for j in range(side)]


#: Inputs: uniform, skewed clusters, and integer grids whose bisectors meet
#: in vertices of degree 4 and share the lines x = 5000 and y = 5000.
INPUTS = {
    "uniform": (uniform_points(300, seed=41), uniform_points(280, seed=42)),
    "clustered": (
        clustered_points(300, clusters=4, seed=43),
        clustered_points(280, clusters=3, seed=44),
    ),
    "grid": (_grid(14, 450, 700), _grid(10, 500, 1000)),
}

_DIAGRAMS: dict = {}


def _diagrams(name):
    if name not in _DIAGRAMS:
        points_p, points_q = INPUTS[name]
        _DIAGRAMS[name] = (
            brute_force_diagram(points_p, DOMAIN),
            brute_force_diagram(points_q, DOMAIN),
        )
    return _DIAGRAMS[name]


@pytest.mark.parametrize("storage", ["memory", "file"])
@pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
@pytest.mark.parametrize("name", list(INPUTS))
def test_result_pairs_partition_and_cover_the_domain(name, algorithm, storage):
    points_p, points_q = INPUTS[name]
    result = run_cij(algorithm, points_p, points_q, storage=storage)
    assert_partition_and_coverage(
        result.pairs, points_p, points_q, DOMAIN, diagrams=_diagrams(name)
    )


class TestTheCheckerFails:
    """The checker must catch what it claims to catch."""

    POINTS_P, POINTS_Q = INPUTS["uniform"]

    def reference_pairs(self):
        return run_cij("fm", self.POINTS_P, self.POINTS_Q, storage="memory").pairs

    def test_missing_pair_breaks_the_partition(self):
        pairs = self.reference_pairs()
        with pytest.raises(AssertionError, match="pair regions cover"):
            assert_partition_and_coverage(
                pairs[1:], self.POINTS_P, self.POINTS_Q, DOMAIN, _diagrams("uniform")
            )

    def test_pair_counted_twice_breaks_the_partition(self):
        """A region counted twice overshoots area(U), as the region of any
        spurious pair would."""
        pairs = self.reference_pairs()
        with pytest.raises(AssertionError, match="pair regions cover"):
            assert_partition_and_coverage(
                pairs + pairs[:1], self.POINTS_P, self.POINTS_Q, DOMAIN, _diagrams("uniform")
            )

    def test_uncovered_point_is_reported(self):
        """A site without a pair fails coverage even where the regions of
        the pairs that exist tile ``U``."""
        points_p = self.POINTS_P + [Point(1.0, 1.0)]
        with pytest.raises(AssertionError, match="uncovered p"):
            assert_partition_and_coverage(
                self.reference_pairs(), points_p, self.POINTS_Q, DOMAIN, _diagrams("uniform")
            )
