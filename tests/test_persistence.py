"""Tests for dataset / result persistence."""

import pytest

from repro.datasets.synthetic import uniform_points
from repro.experiments.harness import ExperimentResult
from repro.join.result import CIJResult, JoinStats
from repro.persistence import (
    load_cij_result,
    load_experiment_result,
    load_pointset,
    save_cij_result,
    save_experiment_result,
    save_pointset,
)
from repro import common_influence_join


class TestPointsetRoundTrip:
    def test_round_trip_preserves_points_and_ids(self, tmp_path):
        points = uniform_points(50, seed=401)
        path = tmp_path / "points.csv"
        save_pointset(path, points, oids=list(range(100, 150)))
        oids, loaded = load_pointset(path)
        assert oids == list(range(100, 150))
        assert loaded == points

    def test_mismatched_oids_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_pointset(tmp_path / "x.csv", uniform_points(3, seed=1), oids=[1])

    def test_load_without_id_column_assigns_sequential_ids(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n1.5,2.5\n3.0,4.0\n", encoding="utf-8")
        oids, points = load_pointset(path)
        assert oids == [0, 1]
        assert points[1].x == 3.0

    def test_load_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lon,lat\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_pointset(path)

    def test_load_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("x,y\n1.0,not-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_pointset(path)


class TestCIJResultRoundTrip:
    def test_round_trip_preserves_pairs_and_stats(self, tmp_path):
        points_p = uniform_points(30, seed=402)
        points_q = uniform_points(25, seed=403)
        result = common_influence_join(points_p, points_q, method="nm")
        path = tmp_path / "result.csv"
        save_cij_result(path, result)
        loaded = load_cij_result(path)
        assert loaded.pair_set() == result.pair_set()
        assert loaded.stats.algorithm == "NM-CIJ"
        assert loaded.stats.total_page_accesses == result.stats.total_page_accesses
        assert [s.page_accesses for s in loaded.stats.progress] == [
            s.page_accesses for s in result.stats.progress
        ]

    def test_load_without_sidecar_still_returns_pairs(self, tmp_path):
        path = tmp_path / "pairs.csv"
        save_cij_result(path, CIJResult(pairs=[(1, 2), (3, 4)], stats=JoinStats("NM-CIJ")))
        (tmp_path / "pairs.csv.stats.json").unlink()
        loaded = load_cij_result(path)
        assert loaded.pair_set() == {(1, 2), (3, 4)}
        assert loaded.stats.algorithm == "UNKNOWN"

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_cij_result(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p_oid,q_oid\n1,2\n3\n", 3),  # one value
            ("p_oid,q_oid\n1,2\n4,5,6\n", 3),  # three values
            ("p_oid,q_oid\n1,2\n\n7,x\n", 4),  # not an integer
        ],
    )
    def test_load_rejects_rows_that_are_not_two_integers(self, tmp_path, text, line):
        path = tmp_path / "malformed.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"malformed\.csv: malformed row {line}"):
            load_cij_result(path)

    def test_load_requires_the_header(self, tmp_path):
        """A headerless file must not silently lose its first pair."""
        path = tmp_path / "headerless.csv"
        path.write_text("7,8\n9,10\n", encoding="utf-8")
        with pytest.raises(ValueError, match="p_oid,q_oid"):
            load_cij_result(path)


class TestExperimentResultRoundTrip:
    def test_round_trip(self, tmp_path):
        result = ExperimentResult("fig0", "demo", "nowhere", columns=["algo", "pages"])
        result.add_row("NM-CIJ", 12)
        result.add_row("FM-CIJ", 40)
        result.add_note("shape holds")
        path = tmp_path / "fig0.json"
        save_experiment_result(path, result)
        loaded = load_experiment_result(path)
        assert loaded.experiment_id == "fig0"
        assert loaded.columns == ["algo", "pages"]
        assert loaded.rows == [["NM-CIJ", 12], ["FM-CIJ", 40]]
        assert loaded.notes == ["shape holds"]
