"""Unit tests for the update records, stream format and session guards."""

import pytest

from repro.dynamic import (
    PairDelta,
    Update,
    UpdateBatch,
    UpdateStats,
    UpdateStreamError,
    load_update_stream,
    parse_update_stream,
)
from repro.datasets.synthetic import DOMAIN
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.dynamic.maintenance import DynamicJoinSession
from repro.geometry.point import Point
from tests.oracles import brute_force_cij_pairs


class TestUpdateRecords:
    def test_insert_requires_a_point(self):
        with pytest.raises(ValueError, match="must carry the point"):
            Update("insert", "P", 1)

    def test_unknown_op_and_side_rejected(self):
        with pytest.raises(ValueError, match="unknown update op"):
            Update("upsert", "P", 1, Point(1, 2))
        with pytest.raises(ValueError, match="unknown update side"):
            Update("insert", "R", 1, Point(1, 2))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_rejected(self, x):
        with pytest.raises(ValueError, match="must be finite"):
            Update("insert", "P", 1, Point(x, 500.0))
        with pytest.raises(ValueError, match="must be finite"):
            Update("delete", "Q", 1, Point(500.0, x))

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

    def test_parse_yields_equal_batches(self):
        batches = [
            UpdateBatch([Update("insert", "P", 1, Point(0.125, 9_999.75))]),
            UpdateBatch([Update("delete", "Q", 2), Update("insert", "Q", 3, Point(1, 2))]),
        ]
        text = "insert P 1 0.125 9999.75\n---\ndelete Q 2\ninsert Q 3 1.0 2.0\n"
        parsed = parse_update_stream(text.splitlines())
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
            ("insert P 999 nan 500", "coordinates must be finite"),
            ("insert P 999 500 -inf", "coordinates must be finite"),
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

    def test_operation_and_side_are_case_insensitive(self):
        (batch,) = parse_update_stream(["INSERT p 4 1.0 2.0", "Delete q 9"])
        assert batch.updates == (
            Update("insert", "P", 4, Point(1.0, 2.0)),
            Update("delete", "Q", 9),
        )

    def test_repeated_separators_make_no_empty_batches(self):
        batches = parse_update_stream(["---", "-", "delete P 1", "-----", "", "---"])
        assert [len(b) for b in batches] == [1]

    def test_separator_resets_batch_consistency_tracking(self):
        batches = parse_update_stream(["delete Q 7", "---", "delete Q 7"])
        assert [len(b) for b in batches] == [1, 1]


class TestSessionGuards:
    def test_trees_must_share_a_disk(self, small_workload):
        other = build_workload(WorkloadConfig(n_p=20, n_q=20))
        with pytest.raises(ValueError, match="share one DiskManager"):
            DynamicJoinSession(small_workload.tree_p, other.tree_q)

    def test_invalid_updates_rejected_before_any_state_change(self, small_workload):
        session = DynamicJoinSession(
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


class TestRejectedBatchLeavesNoTrace:
    """A batch the session rejects changes nothing: no tree write, no cell,
    no pair — the session still equals a rebuild and accepts later work."""

    @staticmethod
    def _session():
        workload = build_workload(WorkloadConfig(n_p=60, n_q=50, seed=3))
        assert workload.domain == DOMAIN
        return DynamicJoinSession(workload.tree_p, workload.tree_q, domain=DOMAIN)

    @pytest.mark.parametrize(
        "point", [Point(20_000.0, 20_000.0), Point(-0.5, 500.0), Point(500.0, 10_000.5)]
    )
    def test_insert_outside_the_domain_is_rejected_before_any_write(self, point):
        session = self._session()
        pairs_before = session.pair_set()
        sizes_before = (len(session.tree_p), len(session.tree_q))
        batch = UpdateBatch(
            [
                Update("insert", "Q", 88_000, Point(123.0, 456.0)),
                Update("insert", "P", 999, point),
            ]
        )
        with pytest.raises(ValueError, match="outside the session domain"):
            session.apply_updates(batch)
        session.check_consistency()
        assert session.pair_set() == pairs_before
        assert (len(session.tree_p), len(session.tree_q)) == sizes_before
        assert 999 not in session.cells_p and 88_000 not in session.cells_q
        assert session.stats.batches_applied == 0

    def test_insert_on_the_domain_boundary_is_accepted(self):
        # The domain is closed: a site on its edge has a well-defined cell.
        session = self._session()
        session.apply_updates(
            UpdateBatch([Update("insert", "P", 999, Point(10_000.0, 500.0))])
        )
        session.check_consistency()
        points_p = {oid: cell.site for oid, cell in session.cells_p.items()}
        points_q = {oid: cell.site for oid, cell in session.cells_q.items()}
        assert session.pair_set() == brute_force_cij_pairs(
            list(points_p.values()),
            list(points_q.values()),
            DOMAIN,
            oids_p=list(points_p),
            oids_q=list(points_q),
        )
