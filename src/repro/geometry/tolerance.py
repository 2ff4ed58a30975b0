"""The numeric tolerance policy shared by every geometric predicate.

Every float comparison in the geometry layer that decides a *topological*
question (is this point inside? do these cells overlap? did this bisector
contribute an edge?) needs a tolerance, and the answers are only mutually
consistent when the predicates agree on what "on the boundary" means.  The
library had grown four independent epsilons (``1e-7`` in ``polygon.py``,
``1e-9`` in ``halfplane.py`` and ``influence.py``, ``1e-6`` in
``dynamic/maintenance.py``), which made it possible for a point within
``[1e-9, 1e-7]`` of a clip boundary to be *outside* the halfplane according
to :meth:`~repro.geometry.halfplane.Halfplane.contains` yet *kept* by
:meth:`~repro.geometry.polygon.ConvexPolygon.clip_halfplane` — a latent
inconsistency that becomes an observable bug the moment two predicates are
combined (and makes differential testing of alternative implementations
meaningless near boundaries).  This module is now the single source of
truth; the constants are grouped by the *kind* of comparison they guard:

``BOUNDARY_EPS``
    Geometric boundary tolerance of the polygon/halfplane predicates
    (clipping, the separating-axis tests, point containment, vertex
    deduplication).  It is expressed in *domain units per unit of normal
    length*: predicates scale it by the norm of the edge or halfplane
    normal, so ``BOUNDARY_EPS`` is effectively "distance to the boundary
    below which a point counts as on it".  The experiment domain is
    ``[0, 10000]``, so ``1e-7`` sits comfortably between the coordinate
    noise floor (~1e-12 at that magnitude) and the smallest feature the
    algorithms care about.

``CONTAINMENT_EPS``
    Slack of the Φ(L, p) influence-region membership test (Equation 3),
    which compares two already-computed *distances*.  Distances are
    non-negative and well-conditioned, so this tolerance can be much
    tighter than the boundary epsilon; it only needs to absorb the final
    rounding of the two square roots being compared.  The library itself
    applies Lemma 3 in an exact per-vertex form without a slack; the
    literal per-side Φ test is the test-suite's oracle
    (``tests/oracles.py``), which reads its slack from here.

``TIE_SLACK``
    Slack of the dynamic-maintenance invalidation scan, which must decide
    whether a deleted site *may have* contributed an edge to a cell.  The
    test is intentionally one-sided — the slack only ever *adds* cells to
    the dirty set, and recomputation then proves them unchanged — so it is
    deliberately the loosest of the three: missing a tie would silently
    corrupt the maintained answer, while a false positive merely costs one
    redundant recomputation.
"""

from __future__ import annotations

#: Geometric boundary tolerance of polygon/halfplane predicates, in domain
#: units per unit of normal length (see module docstring).
BOUNDARY_EPS = 1e-7

#: Distance-comparison slack of the Φ influence-region test (the oracle
#: in ``tests/oracles.py``).
CONTAINMENT_EPS = 1e-9

#: One-sided tie slack of the dynamic-maintenance invalidation scan.
TIE_SLACK = 1e-6
