"""Tests for the I/O counters."""

from repro.storage.counters import IOCounters


class TestIOCounters:
    def test_read_hit_vs_miss_accounting(self):
        counters = IOCounters()
        counters.record_read("RP", hit=False)
        counters.record_read("RP", hit=True)
        assert counters.reads == 1
        assert counters.logical_reads == 2
        assert counters.buffer_hits == 1
        assert counters.by_tag == {"RP": 1}

    def test_write_accounting(self):
        counters = IOCounters()
        counters.record_write("RQ")
        counters.record_write("RQ")
        assert counters.writes == 2
        assert counters.by_tag == {"RQ": 2}

    def test_page_accesses_is_reads_plus_writes(self):
        counters = IOCounters()
        counters.record_read("a", hit=False)
        counters.record_write("b")
        assert counters.page_accesses == 2

    def test_reset_zeroes_everything(self):
        counters = IOCounters()
        counters.record_read("a", hit=False)
        counters.record_write("a")
        counters.reset()
        assert counters.page_accesses == 0
        assert counters.logical_reads == 0
        assert counters.by_tag == {}

    def test_snapshot_is_independent(self):
        counters = IOCounters()
        counters.record_read("a", hit=False)
        snap = counters.snapshot()
        counters.record_read("a", hit=False)
        assert snap.reads == 1
        assert counters.reads == 2

    def test_diff_since_snapshot(self):
        counters = IOCounters()
        counters.record_read("a", hit=False)
        snap = counters.snapshot()
        counters.record_read("b", hit=False)
        counters.record_write("b")
        delta = counters.diff(snap)
        assert delta.reads == 1
        assert delta.writes == 1
        assert delta.by_tag == {"b": 2}

    def test_diff_drops_zero_tags(self):
        counters = IOCounters()
        counters.record_read("a", hit=False)
        snap = counters.snapshot()
        delta = counters.diff(snap)
        assert delta.by_tag == {}
