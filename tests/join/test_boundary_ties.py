"""Boundary-tie semantics: zero-area cell contact is excluded everywhere.

PR 2's randomized property testing surfaced a seed-era divergence: on
degenerate inputs where bisectors of the two pointsets fall exactly
colinear, a P-cell and a Q-cell touch in a zero-area segment.  The
brute-force oracle (closed polygon test) counted such pairs while the
algorithms' epsilon-guarded predicates rejected them, so the oracle and
FM/PM/NM disagreed about what the join *is*.

The library-wide tie convention is now **exclude**: a pair joins only when
the common influence region has positive area.  The convention lives in
:meth:`repro.voronoi.cell.VoronoiCell.intersects`
(:meth:`ConvexPolygon.intersects_interior`), which the oracle and all three
algorithms share; these tests pin the exact degenerate input from the
ROADMAP and the predicate-level behaviour.
"""

import pytest

from repro import common_influence_join
from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from tests.oracles import brute_force_cij_pairs, definitional_cij_pairs
from repro.voronoi.diagram import brute_force_diagram

#: The ROADMAP's exact degenerate input: the bisector of the two P points
#: and the bisector of Q1/Q2 both fall exactly on x = 203.625.
POINTS_P = [Point(0.0, 0.0), Point(407.25, 0.0)]
POINTS_Q = [Point(37.5, 67.0), Point(66.5, 50.0), Point(340.75, 50.0)]
DOMAIN = Rect(0.0, 0.0, 10_000.0, 10_000.0)

#: The data-tight domain of the pinned input.
TIGHT_DOMAIN = Rect(0.0, 0.0, 407.25, 67.0)

#: Under the exclude convention the colinear contacts (P0, Q2) and (P1, Q1)
#: — both zero-area segments on x = 203.625 — are not join pairs.
EXPECTED_PAIRS = {(0, 0), (0, 1), (1, 0), (1, 2)}
ZERO_AREA_CONTACTS = {(0, 2), (1, 1)}


class TestPinnedDegenerateInput:
    def test_bisectors_are_exactly_colinear(self):
        """The input really is degenerate: both relevant cell borders lie on
        the same vertical line, so the contacts below have zero area."""
        diagram_p = brute_force_diagram(POINTS_P, DOMAIN)
        diagram_q = brute_force_diagram(POINTS_Q, DOMAIN)
        for p_oid, q_oid in ZERO_AREA_CONTACTS:
            region = diagram_p.cell_of(p_oid).common_region(
                diagram_q.cell_of(q_oid)
            )
            assert region.area() == 0.0

    @pytest.mark.parametrize(
        "p, q",
        [(POINTS_P[0], POINTS_P[1]), (POINTS_Q[1], POINTS_Q[2])],
        ids=["P0-P1", "Q1-Q2"],
    )
    def test_both_bisectors_clip_exactly_on_the_shared_line(self, p, q):
        """Each clip keeps the domain's left edge and cuts exactly on
        x = 203.625, with no rounding drift in either bisector."""
        square = ConvexPolygon.from_rect(DOMAIN)
        clipped = square.clip_halfplane(bisector_halfplane(p, q))
        assert {v.x for v in clipped.vertices} == {0.0, 203.625}

    def test_brute_oracle_excludes_zero_area_contact(self):
        assert brute_force_cij_pairs(POINTS_P, POINTS_Q, DOMAIN) == EXPECTED_PAIRS

    def test_definitional_oracle_agrees(self):
        assert definitional_cij_pairs(POINTS_P, POINTS_Q, DOMAIN) == EXPECTED_PAIRS

    @pytest.mark.parametrize("method", ["nm", "pm", "fm"])
    def test_algorithms_agree_with_oracle(self, method):
        result = common_influence_join(
            POINTS_P, POINTS_Q, method=method, domain=DOMAIN
        )
        assert result.pair_set() == EXPECTED_PAIRS, method

    @pytest.mark.parametrize("method", ["nm", "pm", "fm"])
    def test_tight_domain_also_agrees(self, method):
        """The divergence originally reproduced with the data-tight domain
        (the default when none is given); pin that variant too."""
        tight = TIGHT_DOMAIN
        oracle = brute_force_cij_pairs(POINTS_P, POINTS_Q, tight)
        result = common_influence_join(
            POINTS_P, POINTS_Q, method=method, domain=tight
        )
        assert result.pair_set() == oracle
        assert oracle == definitional_cij_pairs(POINTS_P, POINTS_Q, tight)

    def test_every_point_still_participates(self):
        """Footnote 3 survives the exclude convention: dropping zero-area
        contacts never orphans a point, because each cell's interior always
        properly overlaps some cell of the other diagram."""
        pairs = brute_force_cij_pairs(POINTS_P, POINTS_Q, DOMAIN)
        assert {p for p, _ in pairs} == {0, 1}
        assert {q for _, q in pairs} == {0, 1, 2}


def _pinned_half_domains():
    """The two cells of ``P`` in the tight domain: they meet on the pinned
    line x = 203.625 in a zero-area segment."""
    domain = ConvexPolygon.from_rect(TIGHT_DOMAIN)
    left = domain.clip_halfplane(bisector_halfplane(POINTS_P[0], POINTS_P[1]))
    right = domain.clip_halfplane(bisector_halfplane(POINTS_P[1], POINTS_P[0]))
    return left, right


class TestPredicateConvention:
    @pytest.mark.parametrize(
        "a, b",
        [
            (
                ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0)),
                ConvexPolygon.from_rect(Rect(10.0, 0.0, 20.0, 10.0)),
            ),
            _pinned_half_domains(),
        ],
        ids=["squares", "pinned-colinear-cells"],
    )
    def test_touching_squares_do_not_join(self, a, b):
        assert a.intersects(b)  # closed test (filter phases): touch counts
        assert not a.intersects_interior(b)  # join predicate: excluded

    def test_corner_contact_does_not_join(self):
        a = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0))
        b = ConvexPolygon.from_rect(Rect(10.0, 10.0, 20.0, 20.0))
        assert not a.intersects_interior(b)

    def test_proper_overlap_joins(self):
        a = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0))
        b = ConvexPolygon.from_rect(Rect(9.0, 9.0, 20.0, 20.0))
        assert a.intersects_interior(b)
        assert b.intersects_interior(a)

    def test_interior_containment_is_strict(self):
        square = ConvexPolygon.from_rect(Rect(0.0, 0.0, 10.0, 10.0))
        assert square.contains_point_interior(Point(5.0, 5.0))
        assert not square.contains_point_interior(Point(10.0, 5.0))
        assert square.contains_point(Point(10.0, 5.0))  # closed test still true
