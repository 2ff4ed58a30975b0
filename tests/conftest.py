"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Tier-1 is a deterministic gate: derandomize hypothesis so every run draws
# the same examples.  Randomized exploration runs via HYPOTHESIS_PROFILE=
# explore (locally and in the scheduled, non-blocking CI job): since the
# exclude-zero-area boundary-tie convention landed, the brute oracle and
# FM/PM/NM agree even on tolerance-degenerate configurations such as
# exactly colinear Voronoi bisectors (pinned in
# tests/join/test_boundary_ties.py).
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.storage.disk import DiskManager


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
def coordinates(min_value: float = 0.0, max_value: float = 10_000.0):
    """Finite coordinates inside the paper's normalised domain."""
    return st.floats(
        min_value=min_value,
        max_value=max_value,
        allow_nan=False,
        allow_infinity=False,
        width=32,
    )


def points_strategy():
    """A single point inside the domain."""
    return st.builds(Point, coordinates(), coordinates())


def grid_points_strategy(step: float = 0.25):
    """Points snapped to a grid, guaranteeing a minimum pairwise separation.

    Voronoi-based properties use these: sites closer than the geometric
    tolerance of the polygon machinery produce degenerate sliver cells that
    no finite-precision implementation (including the paper's) can represent.
    """
    cells = int(10_000 / step)
    return st.builds(
        lambda ix, iy: Point(ix * step, iy * step),
        st.integers(min_value=0, max_value=cells),
        st.integers(min_value=0, max_value=cells),
    )


def distinct_pointsets(min_size: int = 2, max_size: int = 12):
    """Small lists of distinct, well-separated points (Voronoi sites)."""
    return st.lists(
        grid_points_strategy(),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda p: (p.x, p.y),
    )


def near_colinear_pointsets(min_size: int = 2, max_size: int = 10):
    """Distinct sites within 1e-6 of the horizontal line y = 5000.

    Every bisector is then a near-vertical line almost parallel to its
    neighbours', the worst case for rounding in bisector clipping.  The
    x coordinates keep the grid separation of :func:`distinct_pointsets`;
    a zero jitter makes the sites exactly colinear.
    """
    jitter = st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False)
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=40_000), jitter),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda pair: pair[0],
    ).map(lambda pairs: [Point(ix * 0.25, 5000.0 + dy) for ix, dy in pairs])


#: Parametrizes a ``@given(data=st.data())`` test over both site-set
#: strategies; the test draws ``data.draw(pointsets(min_size=..., ...))``.
site_set_strategies = pytest.mark.parametrize(
    "pointsets",
    [distinct_pointsets, near_colinear_pointsets],
    ids=["grid", "near-colinear"],
)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def domain() -> Rect:
    """The paper's [0, 10000]^2 space domain."""
    return DOMAIN


@pytest.fixture
def disk() -> DiskManager:
    """A fresh simulated disk with a small buffer."""
    return DiskManager(buffer_pages=8)


@pytest.fixture
def small_workload():
    """Two small uniform pointsets, indexed, with measurement reset."""
    config = WorkloadConfig(n_p=120, n_q=100, seed=7, buffer_fraction=0.05)
    return build_workload(config)


@pytest.fixture
def tiny_pointsets():
    """Two tiny pointsets used by exact-equivalence tests."""
    return uniform_points(40, seed=1), uniform_points(35, seed=2)
