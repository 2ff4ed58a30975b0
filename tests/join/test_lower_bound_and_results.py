"""Tests for the lower bound and the result records."""

import pytest

from repro.join.lower_bound import lower_bound_io
from repro.join.result import CIJResult, JoinStats, ProgressSample


class TestLowerBound:
    def test_lower_bound_is_sum_of_node_counts(self, small_workload):
        lb = lower_bound_io(small_workload.tree_p, small_workload.tree_q)
        assert lb == small_workload.tree_p.node_count() + small_workload.tree_q.node_count()

    def test_lower_bound_counts_no_io(self, small_workload):
        small_workload.disk.reset_counters()
        lower_bound_io(small_workload.tree_p, small_workload.tree_q)
        assert small_workload.disk.counters.page_accesses == 0


class TestResultRecords:
    def test_false_hit_ratio_definition(self):
        stats = JoinStats(algorithm="NM-CIJ", filter_candidates=110, filter_true_hits=100)
        assert stats.false_hit_ratio == pytest.approx(0.1)

    def test_false_hit_ratio_with_no_hits_is_zero(self):
        assert JoinStats(algorithm="NM-CIJ").false_hit_ratio == 0.0

    def test_totals_combine_phases(self):
        stats = JoinStats(
            algorithm="FM-CIJ",
            mat_page_accesses=10,
            join_page_accesses=5,
            mat_cpu_seconds=1.0,
            join_cpu_seconds=0.5,
        )
        assert stats.total_page_accesses == 15
        assert stats.total_cpu_seconds == pytest.approx(1.5)

    def test_progress_recording(self):
        stats = JoinStats(algorithm="NM-CIJ")
        stats.record_progress(5, 0)
        stats.record_progress(9, 12)
        assert stats.progress == [ProgressSample(5, 0), ProgressSample(9, 12)]

    def test_result_pair_set_and_len(self):
        result = CIJResult(pairs=[(1, 2), (1, 2), (3, 4)], stats=JoinStats(algorithm="X"))
        assert len(result) == 3
        assert result.pair_set() == {(1, 2), (3, 4)}
