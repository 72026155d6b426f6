"""Per-phase logical time: a phase is a span, a rank keeps each span
name's inclusive total, and a run reports it as its slowest rank does."""

import pytest

from repro.observe.metrics import MetricsSnapshot
from repro.vmachine import IBM_SP2, ProgramSpec, VirtualMachine, run_programs
from repro.vmachine.cost_model import CostModel
from repro.vmachine.process import Process


@pytest.fixture
def proc():
    return Process(rank=0, nprocs=1, cost_model=CostModel(IBM_SP2))


class TestTimingReport:
    def test_add_accumulates(self, proc):
        with proc.span("a"):
            proc.charge(0.5)
        with proc.span("a"):
            proc.charge(0.25)
        before = proc.metrics.snapshot()
        with proc.span("a"):
            proc.charge(0.125)
        assert before.span_seconds["a"] == pytest.approx(0.75)
        # the snapshot diff carries only what the later span added
        assert proc.metrics.snapshot().diff(before).span_seconds == {
            "a": pytest.approx(0.125)}

    def test_total(self, proc):
        with proc.span("a"):
            proc.charge(0.1)
        with proc.span("b"):
            proc.charge(0.2)
        # disjoint spans: their totals sum to the clock they cover
        assert sum(proc.metrics.span_seconds.values()) == pytest.approx(0.3)
        assert sum(proc.metrics.span_seconds.values()) == proc.clock

    def test_missing_phase_zero(self):
        assert MetricsSnapshot().span_seconds.get("x", 0.0) == 0.0
        res = VirtualMachine(2, IBM_SP2).run(lambda comm: None)
        assert res.span_ms("x") == 0.0


class TestPhaseTimer:
    def test_samples_supplied_clock(self, proc):
        with proc.span("p"):
            proc.advance_to(2.0)
        assert proc.metrics.span_seconds["p"] == pytest.approx(2.0)

    def test_outer_phase_includes_nested_phases(self, proc):
        with proc.span("outer"):
            proc.charge(1.0)
            with proc.span("inner"):
                proc.charge(2.0)
            proc.charge(4.0)
        totals = proc.metrics.span_seconds
        assert totals["inner"] == pytest.approx(2.0)
        assert totals["outer"] == pytest.approx(7.0)
        # inclusive per name: the inner span counts again in the outer one
        assert sum(totals.values()) == pytest.approx(9.0)


class TestMerge:
    def test_max_merge(self):
        def program(seconds):
            def fn(ctx):
                with ctx.comm.process.span("p"):
                    ctx.comm.process.charge(seconds * (ctx.rank + 1))
                if ctx.program == "a":
                    with ctx.comm.process.span("only_a"):
                        ctx.comm.process.charge(0.5)
            return fn

        res = run_programs([ProgramSpec("a", 2, program(1.0)),
                            ProgramSpec("b", 3, program(2.0))])
        assert res["a"].span_ms("p") == pytest.approx(2000.0)
        assert res["b"].span_ms("p") == pytest.approx(6000.0)
        # the larger over the programs; a program without the span is zero
        assert res.span_ms("p") == res["b"].span_ms("p")
        assert res.span_ms("only_a") == pytest.approx(500.0)
        assert res["b"].span_ms("only_a") == 0.0
