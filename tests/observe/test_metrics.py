"""MetricsRegistry / MetricsSnapshot unit tests."""

from repro.observe import COST_TERMS, MetricsRegistry, MetricsSnapshot


class TestCounters:
    def test_base_counters_present(self):
        m = MetricsRegistry()
        for name in MetricsRegistry.BASE_COUNTERS:
            assert m.get(name) == 0

    def test_incr_creates_and_accumulates(self):
        m = MetricsRegistry()
        m.incr("faults_drop")
        m.incr("faults_drop")
        m.incr("bytes_sent", 128)
        assert m.get("faults_drop") == 2
        assert m.get("bytes_sent") == 128
        assert m.get("unknown", default=7) == 7

    def test_counters_dict_is_stats_compatible(self):
        # Historical code does `proc.stats["x"] = proc.stats.get("x", 0) + 1`
        m = MetricsRegistry()
        m.counters["arena_hits"] = m.counters.get("arena_hits", 0) + 1
        assert m.get("arena_hits") == 1


class TestTerms:
    def test_add_term_buckets_by_phase_and_term(self):
        m = MetricsRegistry(attributing=True)
        m.add_term("wire", "beta", 1.0)
        m.add_term("wire", "beta", 0.5)
        m.add_term("wire", "occupancy", 2.0)
        m.add_term("pack", "per_element", 4.0)
        assert m.terms[("wire", "beta")] == 1.5
        snap = m.snapshot()
        assert snap.term_totals() == {
            "beta": 1.5, "occupancy": 2.0, "per_element": 4.0
        }
        assert snap.phase_totals() == {"wire": 3.5, "pack": 4.0}
        assert snap.attributed_seconds() == 7.5

    def test_cost_terms_taxonomy(self):
        assert COST_TERMS == (
            "alpha", "beta", "occupancy", "per_element", "rto", "other"
        )


class TestSnapshotDiff:
    def test_snapshot_is_immutable_copy(self):
        m = MetricsRegistry(attributing=True)
        m.incr("messages_sent")
        m.add_term("wire", "beta", 1.0)
        snap = m.snapshot()
        m.incr("messages_sent")
        m.add_term("wire", "beta", 1.0)
        assert snap.counters["messages_sent"] == 1
        assert snap.terms[("wire", "beta")] == 1.0
        assert isinstance(snap, MetricsSnapshot)

    def test_diff_drops_unchanged_keys(self):
        m = MetricsRegistry(attributing=True)
        m.incr("messages_sent", 3)
        m.add_term("wire", "beta", 1.0)
        before = m.snapshot()
        m.incr("bytes_sent", 64)
        m.add_term("wire", "alpha", 0.25)
        delta = m.snapshot().diff(before)
        assert delta.counters == {"bytes_sent": 64}
        assert delta.terms == {("wire", "alpha"): 0.25}
        assert delta.attributed_seconds() == 0.25
