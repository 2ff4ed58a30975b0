"""Tests for the export format of pointsets and join results.

Nothing in the library reads these files back, so the tests pin the files
themselves: the CSV headers, the rows, and the keys of the statistics
sidecar that ``examples/visualize_and_export.py`` writes.
"""

import csv
import json

import pytest

from repro import common_influence_join
from repro.datasets.synthetic import uniform_points
from repro.geometry.point import Point
from repro.join.result import CIJResult, JoinStats
from repro.persistence import save_cij_result, save_pointset

SIDECAR_KEYS = {
    "algorithm",
    "mat_page_accesses",
    "join_page_accesses",
    "mat_cpu_seconds",
    "join_cpu_seconds",
    "cells_computed_p",
    "cells_computed_q",
    "cells_reused_p",
    "filter_candidates",
    "filter_true_hits",
    "progress",
    "pair_count",
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestPointsetExport:
    def test_header_ids_and_exact_coordinates(self, tmp_path):
        points = uniform_points(50, seed=401)
        path = tmp_path / "points.csv"
        save_pointset(path, points, oids=list(range(100, 150)))
        header, *rows = _rows(path)
        assert header == ["id", "x", "y"]
        assert [int(oid) for oid, _, _ in rows] == list(range(100, 150))
        # Coordinates are written with repr, so float() restores every bit.
        assert [Point(float(x), float(y)) for _, x, y in rows] == points

    def test_default_ids_are_positions(self, tmp_path):
        path = tmp_path / "points.csv"
        save_pointset(path, [Point(1.5, 2.5), Point(0.1, 1e-12)])
        assert _rows(path) == [["id", "x", "y"], ["0", "1.5", "2.5"], ["1", "0.1", "1e-12"]]

    def test_mismatched_oids_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_pointset(tmp_path / "x.csv", uniform_points(3, seed=1), oids=[1])

    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, 9_999.999999999998, 5e-324, -1234.5678e-9]
    )
    def test_coordinate_survives_the_text_round_trip(self, tmp_path, value):
        path = tmp_path / "points.csv"
        save_pointset(path, [Point(value, -value)])
        (_, x, y), = _rows(path)[1:]
        assert (float(x), float(y)) == (value, -value)

    def test_empty_pointset_writes_header_only(self, tmp_path):
        path = tmp_path / "points.csv"
        save_pointset(path, [])
        assert _rows(path) == [["id", "x", "y"]]

    def test_plain_string_path_accepted(self, tmp_path):
        path = str(tmp_path / "points.csv")
        save_pointset(path, [Point(1.0, 2.0)])
        assert _rows(path)[1] == ["0", "1.0", "2.0"]


class TestCIJResultExport:
    def test_pairs_and_sidecar(self, tmp_path):
        points_p = uniform_points(30, seed=402)
        points_q = uniform_points(25, seed=403)
        result = common_influence_join(points_p, points_q, method="nm")
        path = tmp_path / "result.csv"
        save_cij_result(path, result)
        header, *rows = _rows(path)
        assert header == ["p_oid", "q_oid"]
        assert [(int(p), int(q)) for p, q in rows] == list(result.pairs)
        payload = json.loads((tmp_path / "result.csv.stats.json").read_text("utf-8"))
        assert set(payload) == SIDECAR_KEYS
        assert payload["algorithm"] == "NM-CIJ"
        assert payload["pair_count"] == len(result.pairs)
        assert (
            payload["mat_page_accesses"] + payload["join_page_accesses"]
            == result.stats.total_page_accesses
        )
        assert payload["progress"] == [
            [s.page_accesses, s.pairs_reported] for s in result.stats.progress
        ]

    def test_empty_result_writes_header_only(self, tmp_path):
        path = tmp_path / "pairs.csv"
        save_cij_result(path, CIJResult(pairs=[], stats=JoinStats("NM-CIJ")))
        assert _rows(path) == [["p_oid", "q_oid"]]
        payload = json.loads((tmp_path / "pairs.csv.stats.json").read_text("utf-8"))
        assert payload["pair_count"] == 0

    def test_sidecar_name_appends_to_the_full_file_name(self, tmp_path):
        # A path without a suffix still gets its sidecar beside it, and a
        # plain string path is accepted like a Path.
        path = str(tmp_path / "pairs")
        save_cij_result(path, CIJResult(pairs=[(3, 4)], stats=JoinStats("FM-CIJ")))
        assert _rows(path) == [["p_oid", "q_oid"], ["3", "4"]]
        payload = json.loads((tmp_path / "pairs.stats.json").read_text("utf-8"))
        assert payload["algorithm"] == "FM-CIJ"
        assert payload["pair_count"] == 1
