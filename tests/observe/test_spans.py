"""Span-stack semantics on a real virtual processor."""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import VirtualMachine
from repro.vmachine.cost_model import CostModel, IBM_SP2
from repro.vmachine.process import Process


def make_proc(observe: bool = True) -> Process:
    p = Process(0, 1, CostModel(IBM_SP2))
    if observe:
        p.enable_observability()
    return p


class TestSpanStack:
    def test_phase_tracks_innermost(self):
        p = make_proc()
        assert p.phase == "" and p.phase_path == ""
        with p.span("outer"):
            assert p.phase == "outer"
            with p.span("inner"):
                assert p.phase == "inner"
                assert p.phase_path == "outer/inner"
            assert p.phase == "outer"
        assert p.phase == ""

    def test_span_never_charges_clock(self):
        p = make_proc()
        before = p.clock
        with p.span("pack"):
            with p.span("nested"):
                pass
        assert p.clock == before

    def test_records_only_when_observing(self):
        p = make_proc(observe=False)
        with p.span("pack"):
            pass
        assert p.spans is None  # stack maintained, log not kept
        p2 = make_proc(observe=True)
        with p2.span("pack"):
            pass
        (rec,) = p2.spans
        assert rec.name == "pack" and rec.depth == 0 and rec.path == "pack"

    def test_record_fields(self):
        p = make_proc()
        with p.span("outer"):
            p.charge(1.0)
            with p.span("inner"):
                p.charge(0.5)
        inner, outer = p.spans  # closed in LIFO order
        assert (inner.name, inner.depth, inner.path) == ("inner", 1, "outer/inner")
        assert (outer.name, outer.depth, outer.path) == ("outer", 0, "outer")
        assert inner.duration == pytest.approx(0.5)
        assert outer.duration == pytest.approx(1.5)
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_exception_unwinds_stack(self):
        p = make_proc()
        with pytest.raises(ValueError):
            with p.span("outer"):
                with p.span("inner"):
                    raise ValueError("boom")
        assert p.phase == ""
        assert [s.name for s in p.spans] == ["inner", "outer"]


    def test_records_are_exact(self):
        """The path is built at exit, from the spans still open beneath:
        it must be the entry-time path, siblings and all."""
        from repro.observe.spans import SpanRecord

        p = make_proc()
        with p.span("a"):
            p.charge(0.25)
            with p.span("b"):
                p.charge(0.5)
                with p.span("c"):
                    p.charge(1.0)
            with p.span("d"):
                p.charge(2.0)
        assert p.spans == [
            SpanRecord("c", 0.75, 1.75, 0, 2, "a/b/c"),
            SpanRecord("b", 0.25, 1.75, 0, 1, "a/b"),
            SpanRecord("d", 1.75, 3.75, 0, 1, "a/d"),
            SpanRecord("a", 0.0, 3.75, 0, 0, "a"),
        ]

    def test_enabling_observability_inside_a_span(self):
        """Spans opened before logging was on still close cleanly, with
        the record they would have had."""
        p = make_proc(observe=False)
        with p.span("outer"):
            with p.span("inner"):
                p.enable_observability()
                p.charge(1.0)
            with p.span("later"):
                pass
        assert [(s.name, s.depth, s.path, s.start, s.end) for s in p.spans] == [
            ("inner", 1, "outer/inner", 0.0, 1.0),
            ("later", 1, "outer/later", 1.0, 1.0),
            ("outer", 0, "outer", 0.0, 1.0),
        ]


class TestAttribution:
    def test_charges_bucketed_by_phase_and_term(self):
        p = make_proc()
        with p.span("wire"):
            p.charge(2.0, term="occupancy")
        p.charge(1.0)  # untagged, outside any span
        assert p.metrics.terms[("wire", "occupancy")] == pytest.approx(2.0)
        assert p.metrics.terms[("", "other")] == pytest.approx(1.0)
        assert p.metrics.snapshot().attributed_seconds() == pytest.approx(p.clock)

    def test_advance_to_is_alpha(self):
        p = make_proc()
        with p.span("wire"):
            p.advance_to(3.0)
        assert p.metrics.terms[("wire", "alpha")] == pytest.approx(3.0)
        assert p.clock == 3.0

    def test_attribution_off_by_default(self):
        p = make_proc(observe=False)
        p.charge(1.0)
        assert p.metrics.terms == {}

    def test_stats_property_aliases_counters(self):
        p = make_proc(observe=False)
        p.stats["custom"] = p.stats.get("custom", 0) + 2
        assert p.metrics.get("custom") == 2


def _copy(comm):
    """A schedule build and one move with both local and remote
    elements: every leaf span kind of the executor."""
    n = 16
    perm = np.random.default_rng(0).permutation(n * n)
    A = BlockPartiArray.from_global(comm, np.arange(n * n, dtype=float).reshape(n, n))
    B = ChaosArray.zeros(comm, perm % comm.size)
    sched = mc_compute_schedule(
        comm, "blockparti", A, mc_new_set_of_regions(SectionRegion(Section.full((n, n)))),
        "chaos", B, mc_new_set_of_regions(IndexRegion(perm)),
        ScheduleMethod.COOPERATION,
    )
    mc_copy(comm, sched, A, B)


class TestLeafSpans:
    LEAVES = {"pack", "unpack", "copy:local", "wire"}

    @staticmethod
    def names(result) -> set:
        return set().union(*(m.span_seconds for m in result.metrics))

    def test_leaf_totals_only_when_labelled(self, clean_repro_env):
        off = VirtualMachine(4).run(_copy)
        assert not self.names(off) & self.LEAVES
        assert {"schedule:build", "copy:execute"} <= self.names(off)
        for settings in ({"trace": True}, {"observe": True}):
            on = VirtualMachine(4, **settings).run(_copy)
            assert self.LEAVES <= self.names(on), settings
            for name in self.names(off):
                assert on.span_ms(name) == off.span_ms(name), (settings, name)

    def test_snapshot_diff_carries_span_totals(self):
        p = make_proc(observe=False)
        with p.span("a"):
            p.charge(1.0)
        before = p.metrics.snapshot()
        with p.span("b"):
            p.charge(0.5)
        delta = p.metrics.snapshot().diff(before)
        assert delta.span_seconds == {"b": 0.5}
        assert before.span_seconds == {"a": 1.0}


class TestResultPlumbing:
    def test_vm_observe_collects_spans_and_metrics(self):
        def spmd(comm):
            with comm.process.span("work"):
                comm.barrier()
            return comm.rank

        res = VirtualMachine(2, observe=True).run(spmd)
        assert len(res.spans) == 2 and len(res.metrics) == 2
        for rank, (spans, metrics, clock) in enumerate(
            zip(res.spans, res.metrics, res.clocks)
        ):
            assert any(s.name == "work" for s in spans)
            assert metrics.attributed_seconds() == pytest.approx(
                clock, abs=1e-9
            )
        # observe implies tracing
        assert all(len(t) > 0 for t in res.traces)

    def test_vm_default_has_empty_observability(self):
        res = VirtualMachine(2).run(lambda comm: comm.barrier())
        assert all(s == [] for s in res.spans)
        assert all(m.terms == {} for m in res.metrics)
