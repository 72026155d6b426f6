"""Phase-timer and report-merging tests."""

import pytest

from repro.vmachine.timing import PhaseTimer, TimingReport, merge_timings


def make_report(**phases) -> TimingReport:
    r = TimingReport()
    for k, v in phases.items():
        r.add(k, v)
    return r


class TestTimingReport:
    def test_add_accumulates(self):
        r = TimingReport()
        r.add("a", 0.5)
        r.add("a", 0.25)
        assert r.get_ms("a") == pytest.approx(750.0)

    def test_total(self):
        r = make_report(a=0.1, b=0.2)
        assert r.total_ms() == pytest.approx(300.0)

    def test_missing_phase_zero(self):
        assert TimingReport().get_ms("x") == 0.0


class TestPhaseTimer:
    def test_samples_supplied_clock(self):
        clock = [0.0]
        t = PhaseTimer(lambda: clock[0])
        with t.phase("p"):
            clock[0] += 2.0
        assert t.report.get_ms("p") == pytest.approx(2000.0)

    def test_exception_still_records(self):
        clock = [0.0]
        t = PhaseTimer(lambda: clock[0])
        with pytest.raises(RuntimeError):
            with t.phase("p"):
                clock[0] += 1.0
                raise RuntimeError
        assert t.report.get_ms("p") == pytest.approx(1000.0)

    def test_outer_phase_includes_nested_phases(self):
        clock = [0.0]
        t = PhaseTimer(lambda: clock[0])
        with t.phase("outer"):
            clock[0] += 1.0
            with t.phase("inner"):
                clock[0] += 2.0
            clock[0] += 4.0
        assert t.report.get_ms("inner") == pytest.approx(2000.0)
        assert t.report.get_ms("outer") == pytest.approx(7000.0)
        assert t.report.total_ms() == pytest.approx(9000.0)


class TestMerge:
    def test_max_merge(self):
        merged = merge_timings([make_report(a=1.0, b=2.0), make_report(a=3.0)])
        assert merged.phases["a"] == 3.0
        assert merged.phases["b"] == 2.0

    def test_sum_merge(self):
        merged = merge_timings(
            [make_report(a=1.0), make_report(a=2.0)], how="sum"
        )
        assert merged.phases["a"] == 3.0

    def test_mean_merge_counts_missing_as_zero(self):
        merged = merge_timings(
            [make_report(a=2.0), make_report(b=2.0)], how="mean"
        )
        assert merged.phases["a"] == 1.0
        assert merged.phases["b"] == 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            merge_timings([make_report(a=1.0)], how="median")
