"""Unit tests for the update records, stream format and session guards."""

import pytest

from repro.dynamic import (
    PairDelta,
    Update,
    UpdateBatch,
    UpdateStats,
    UpdateStreamError,
    format_update_stream,
    load_update_stream,
    parse_update_stream,
)
from repro.engine import EngineConfig, JoinEngine
from repro.geometry.point import Point


class TestUpdateRecords:
    def test_insert_requires_a_point(self):
        with pytest.raises(ValueError, match="must carry the point"):
            Update("insert", "P", 1)

    def test_unknown_op_and_side_rejected(self):
        with pytest.raises(ValueError, match="unknown update op"):
            Update("upsert", "P", 1, Point(1, 2))
        with pytest.raises(ValueError, match="unknown update side"):
            Update("insert", "R", 1, Point(1, 2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one update"):
            UpdateBatch([])

    def test_duplicate_op_in_batch_rejected(self):
        with pytest.raises(ValueError, match="duplicate delete"):
            UpdateBatch([Update("delete", "P", 1), Update("delete", "P", 1)])

    def test_insert_then_delete_same_oid_rejected(self):
        with pytest.raises(ValueError, match="both inserts and deletes"):
            UpdateBatch(
                [Update("insert", "Q", 5, Point(1, 2)), Update("delete", "Q", 5)]
            )

    def test_by_side_preserves_stream_order(self):
        batch = UpdateBatch(
            [
                Update("insert", "P", 1, Point(1, 1)),
                Update("delete", "Q", 2),
                Update("insert", "P", 3, Point(2, 2)),
            ]
        )
        assert [u.oid for u in batch.by_side("P")] == [1, 3]
        assert [u.oid for u in batch.by_side("Q")] == [2]

    def test_pair_delta_len_and_emptiness(self):
        delta = PairDelta(added=((1, 2),), removed=((3, 4), (5, 6)), stats=UpdateStats())
        assert len(delta) == 3 and not delta.is_empty()
        assert PairDelta(added=(), removed=(), stats=UpdateStats()).is_empty()

    def test_update_stats_accumulate_sums_every_counter(self):
        total = UpdateStats()
        total.accumulate(UpdateStats(batches_applied=1, cells_invalidated=7))
        total.accumulate(UpdateStats(batches_applied=1, pairs_retracted=2))
        assert total.batches_applied == 2
        assert total.cells_invalidated == 7 and total.pairs_retracted == 2


class TestStreamFormat:
    def test_parse_batches_comments_and_separators(self):
        text = """
        # a comment
        insert P 10 1.5 2.5   # trailing comment
        delete Q 3
        ---
        insert Q 11 7.0 8.0
        """
        batches = parse_update_stream(text.splitlines())
        assert [len(b) for b in batches] == [2, 1]
        assert batches[0].updates[0] == Update("insert", "P", 10, Point(1.5, 2.5))
        assert batches[0].updates[1] == Update("delete", "Q", 3)

    def test_format_parse_roundtrip(self):
        batches = [
            UpdateBatch([Update("insert", "P", 1, Point(0.125, 9_999.75))]),
            UpdateBatch([Update("delete", "Q", 2), Update("insert", "Q", 3, Point(1, 2))]),
        ]
        parsed = parse_update_stream(format_update_stream(batches).splitlines())
        assert parsed == batches

    def test_load_update_stream_reads_files(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("insert P 1 2.0 3.0\n---\ndelete P 1\n", encoding="utf-8")
        batches = load_update_stream(str(path))
        assert [len(b) for b in batches] == [1, 1]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("upsert P 1 2 3", "unknown operation"),
            ("insert X 1 2 3", "unknown side"),
            ("insert P one 2 3", "object id must be an integer"),
            ("insert P 1 two 3", "coordinates must be numbers"),
            ("insert P 1 2", "takes 4 arguments"),
            ("delete P 1 2.0 3.0", "takes 2 arguments"),
        ],
    )
    def test_malformed_lines_carry_the_line_number(self, line, message):
        with pytest.raises(UpdateStreamError, match="line 2") as excinfo:
            parse_update_stream(["delete Q 7", line])
        assert message in str(excinfo.value)

    def test_duplicate_op_reported_at_its_own_line(self):
        with pytest.raises(UpdateStreamError, match="line 2.*duplicate delete"):
            parse_update_stream(["delete Q 7", "delete Q 7", "---"])

    def test_insert_delete_conflict_reported_at_its_own_line(self):
        with pytest.raises(UpdateStreamError, match="line 3.*both inserts and deletes"):
            parse_update_stream(["delete P 1", "insert Q 5 1.0 2.0", "delete Q 5"])

    def test_separator_resets_batch_consistency_tracking(self):
        batches = parse_update_stream(["delete Q 7", "---", "delete Q 7"])
        assert [len(b) for b in batches] == [1, 1]


class TestSessionGuards:
    def test_sharded_config_rejected(self, small_workload):
        engine = JoinEngine()
        with pytest.raises(ValueError, match="serial executor"):
            engine.open_dynamic(
                small_workload.tree_p,
                small_workload.tree_q,
                EngineConfig(executor="sharded"),
            )

    def test_trees_must_share_a_disk(self, small_workload):
        from repro.datasets.workload import WorkloadConfig, build_workload

        other = build_workload(WorkloadConfig(n_p=20, n_q=20))
        with pytest.raises(ValueError, match="share one DiskManager"):
            JoinEngine().open_dynamic(small_workload.tree_p, other.tree_q)

    def test_invalid_updates_rejected_before_any_state_change(self, small_workload):
        engine = JoinEngine()
        session = engine.open_dynamic(
            small_workload.tree_p, small_workload.tree_q, domain=small_workload.domain
        )
        pairs_before = session.pair_set()
        existing = session.cells_p[0].site
        cases = [
            (Update("delete", "P", 99_999), "no such point"),
            (Update("insert", "P", 0, Point(1.0, 1.0)), "already stored"),
            (Update("insert", "P", 77_000, existing), "already exists at"),
            (Update("delete", "P", 0, Point(-5.0, -5.0)), "does not match"),
        ]
        for update, message in cases:
            batch = UpdateBatch(
                [Update("insert", "Q", 88_000, Point(123.0, 456.0)), update]
            )
            with pytest.raises(ValueError, match=message):
                session.apply_updates(batch)
        # Duplicate coordinates are rejected within one batch too (the twin
        # being pending rather than stored must make no difference).
        with pytest.raises(ValueError, match="already exists at"):
            session.apply_updates(
                UpdateBatch(
                    [
                        Update("insert", "P", 88_100, Point(77.0, 88.0)),
                        Update("insert", "P", 88_101, Point(77.0, 88.0)),
                    ]
                )
            )
        # Validation runs before application: nothing changed.
        session.check_consistency()
        assert session.pair_set() == pairs_before
        assert 88_000 not in session.cells_q
        assert 88_100 not in session.cells_p and 88_101 not in session.cells_p
