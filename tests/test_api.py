"""Tests for the top-level public API (repro.common_influence_join)."""

import ast
import importlib
import pathlib

import pytest

import repro
from repro import DOMAIN, brute_force_cij, common_influence_join, uniform_points
from repro.geometry.point import Point


class TestCommonInfluenceJoin:
    def test_default_method_matches_oracle(self):
        points_p = uniform_points(50, seed=201)
        points_q = uniform_points(45, seed=202)
        result = common_influence_join(points_p, points_q)
        oracle = brute_force_cij(points_p, points_q, DOMAIN)
        assert result.pair_set() == oracle.pair_set()
        assert result.stats.algorithm == "NM-CIJ"

    def test_all_methods_agree(self):
        points_p = uniform_points(40, seed=203)
        points_q = uniform_points(35, seed=204)
        results = {
            method: common_influence_join(points_p, points_q, method=method).pair_set()
            for method in ("nm", "pm", "fm")
        }
        assert results["nm"] == results["pm"] == results["fm"]

    def test_method_is_case_insensitive(self):
        points_p = uniform_points(10, seed=205)
        points_q = uniform_points(10, seed=206)
        result = common_influence_join(points_p, points_q, method="FM")
        assert result.stats.algorithm == "FM-CIJ"

    def test_unknown_method_rejected(self):
        points = uniform_points(5, seed=207)
        with pytest.raises(ValueError):
            common_influence_join(points, points, method="quantum")

    def test_empty_inputs_rejected(self):
        points = uniform_points(5, seed=208)
        with pytest.raises(ValueError):
            common_influence_join([], points)
        with pytest.raises(ValueError):
            common_influence_join(points, [])

    def test_domain_extends_to_cover_out_of_range_data(self):
        points_p = [Point(-500.0, 20.0), Point(400.0, 900.0)]
        points_q = [Point(11_000.0, 5000.0), Point(300.0, 200.0)]
        result = common_influence_join(points_p, points_q)
        assert len(result.pairs) >= 2

    def test_pair_ids_are_positional_indices(self):
        points_p = [Point(100.0, 100.0)]
        points_q = [Point(9000.0, 9000.0), Point(200.0, 150.0)]
        result = common_influence_join(points_p, points_q)
        assert result.pair_set() == {(0, 0), (0, 1)}

    def test_version_and_public_names_exported(self):
        """Lazily exported names (PEP 562) resolve and are listed by dir()."""
        import repro.service

        assert repro.__version__
        for package in (repro, repro.service):
            for name in package.__all__:
                assert hasattr(package, name), name
            assert set(package.__all__) <= set(dir(package))


PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parents[1]


def exported_names():
    """``(package, name)`` for every name in the ``__all__`` of ``repro``
    and of each of its subpackages."""
    exported = []
    for init in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        parts = init.parent.relative_to(PACKAGE_ROOT.parent).parts
        package = importlib.import_module(".".join(parts))
        exported.extend((package.__name__, name) for name in getattr(package, "__all__", ()))
    return exported


def referenced_names():
    """Every ``Name`` and ``Attribute`` in the modules of ``src/repro``
    (the package ``__init__``s excluded), ``benchmarks/`` and ``examples/``."""
    sources = [path for path in PACKAGE_ROOT.rglob("*.py") if path.name != "__init__.py"]
    for folder in ("benchmarks", "examples"):
        sources.extend((REPO_ROOT / folder).rglob("*.py"))
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


class TestEveryExportHasACaller:
    """A public name earns its place by a caller outside the tests: the
    library itself, a benchmark or an example.  A name only tests reach
    belongs under ``tests/`` (see ``tests/oracles.py``) or nowhere."""

    def test_every_exported_name_is_referenced_outside_the_tests(self):
        referenced = referenced_names()
        unreferenced = [entry for entry in exported_names() if entry[1] not in referenced]
        assert not unreferenced, (
            "exported names with no caller in src/repro, benchmarks/ or "
            f"examples/: {unreferenced}"
        )

    def test_scan_sees_the_exports_and_their_callers(self):
        """Guard the guard: if the package walk or the AST walk rot, the
        scan would pass vacuously — so pin that it finds the subpackages'
        exports, a caller in an example and one inside the library, and
        that the test oracles are outside what it reads."""
        exported = exported_names()
        packages = {package for package, _ in exported}
        assert {"repro", "repro.join", "repro.geometry", "repro.storage"} <= packages
        assert len(exported) > 100
        referenced = referenced_names()
        # Called only by examples/quickstart.py.
        assert "epsilon_distance_join" in referenced
        # Called by NM-CIJ and the dynamic session inside the library.
        assert "batch_conditional_filter" in referenced
        # Test-only names are invisible to the scan.
        assert "definitional_cij_pairs" not in referenced
        assert "brute_force_cij_pairs" not in referenced
