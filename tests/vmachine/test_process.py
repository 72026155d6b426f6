"""Unit tests for the virtual processor context."""

import gc
import weakref

import pytest

from repro.vmachine.cost_model import IBM_SP2, CostModel
from repro.vmachine.process import Process, current_process


@pytest.fixture
def proc():
    return Process(rank=0, nprocs=4, cost_model=CostModel(IBM_SP2))


class TestClock:
    def test_starts_at_zero(self, proc):
        assert proc.clock == 0.0

    def test_charge_advances(self, proc):
        proc.charge(1e-3)
        proc.charge(2e-3)
        assert proc.clock == pytest.approx(3e-3)

    def test_negative_charge_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.charge(-1.0)

    def test_advance_to_future(self, proc):
        proc.advance_to(5e-3)
        assert proc.clock == 5e-3

    def test_advance_to_past_is_noop(self, proc):
        proc.charge(1e-2)
        proc.advance_to(5e-3)
        assert proc.clock == pytest.approx(1e-2)

    def test_charge_helpers_use_cost_model(self, proc):
        proc.charge_flops(1000)
        assert proc.clock == pytest.approx(1000 * IBM_SP2.gamma_flop)
        proc.charge_deref_irregular(10)
        proc.charge_deref_regular(10)
        proc.charge_mem(100)
        proc.charge_pack(10)
        proc.charge_hash(10)
        proc.charge_locate(2, 50)
        proc.charge_startup()
        expected = (
            1000 * IBM_SP2.gamma_flop
            + 10 * IBM_SP2.deref
            + 10 * IBM_SP2.deref_regular
            + 100 * IBM_SP2.gamma_byte
            + 10 * IBM_SP2.pack_per_elem
            + 10 * IBM_SP2.hash_ref
            + 2 * IBM_SP2.locate_run + 50 * IBM_SP2.locate_elem
            + IBM_SP2.startup
        )
        assert proc.clock == pytest.approx(expected)


class TestTimer:
    """A phase is a span: ``metrics.span_seconds`` keeps each name's
    logical time, inclusive of the spans nested in it."""

    def test_phase_accumulates_logical_time(self, proc):
        with proc.span("work"):
            proc.charge(2e-3)
        with proc.span("work"):
            proc.charge(3e-3)
        assert proc.metrics.span_seconds == {"work": 2e-3 + 3e-3}

    def test_untimed_phase_reads_zero(self, proc):
        assert proc.metrics.snapshot().span_seconds == {}
        with proc.span("idle"):
            pass
        assert proc.metrics.span_seconds == {"idle": 0.0}

    def test_nested_phases(self, proc):
        with proc.span("outer"):
            proc.charge(1e-3)
            with proc.span("inner"):
                proc.charge(2e-3)
            proc.charge(4e-3)
        totals = proc.metrics.span_seconds
        assert totals["inner"] == pytest.approx(2e-3)
        # outer includes inner's time (it wraps it on the same clock)
        assert totals["outer"] == pytest.approx(7e-3)
        assert totals["outer"] == proc.clock
        # a nested phase counts once in every span enclosing it
        assert sum(totals.values()) == pytest.approx(9e-3)

    def test_exception_still_records(self, proc):
        with pytest.raises(RuntimeError):
            with proc.span("p"):
                proc.charge(1e-3)
                raise RuntimeError
        assert proc.metrics.span_seconds == {"p": 1e-3}
        assert proc.phase == ""

    def test_observing_changes_no_total(self, proc):
        observed = Process(rank=0, nprocs=4, cost_model=CostModel(IBM_SP2))
        observed.enable_observability()
        for p in (proc, observed):
            with p.span("outer"):
                p.charge(1e-3)
                with p.span("inner"):
                    p.charge(2e-3)
        assert proc.metrics.span_seconds == observed.metrics.span_seconds
        assert [s.duration for s in observed.spans] == [
            observed.metrics.span_seconds["inner"],
            observed.metrics.span_seconds["outer"],
        ]


class TestLifetime:
    def test_dropped_process_is_freed_by_reference_counting(self):
        """Nothing a process owns points back at it, so dropping the last
        reference frees it — with its trace, span log and arena — at
        once, not when the cyclic collector next runs."""
        gc.collect()
        gc.disable()
        try:
            p = Process(rank=0, nprocs=1, cost_model=CostModel(IBM_SP2))
            p.enable_observability()
            p.trace = []
            with p.span("work"):
                p.charge(1e-3)
            p.arena.checkout(64).release()
            ref = weakref.ref(p)
            del p
            assert ref() is None
        finally:
            gc.enable()


class TestBinding:
    def test_current_process_outside_run_raises(self):
        with pytest.raises(RuntimeError, match="no virtual process"):
            current_process()

    def test_bind_unbind(self, proc):
        proc.bind()
        try:
            assert current_process() is proc
        finally:
            proc.unbind()
        with pytest.raises(RuntimeError):
            current_process()


class TestStats:
    def test_initial_counters(self, proc):
        assert proc.stats["messages_sent"] == 0
        assert proc.stats["bytes_received"] == 0
