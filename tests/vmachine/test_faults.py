"""Fault-injection layer: seeded determinism, fault taxonomy, receipts,
slowdown and crash events."""

import numpy as np
import pytest

from repro.vmachine import VirtualMachine
from repro.vmachine.comm import CONTEXT_STRIDE
from repro.vmachine.faults import (
    CrashEvent,
    FaultPlan,
    FaultRates,
    FaultRule,
    RankLostError,
    SimulatedCrash,
    tag_class,
)
from repro.vmachine.machine import SPMDError

TAG_DATA = (1 << 20) + 2


def run(nprocs, fn, *, faults=None, trace=False, check_leaks=True, **kw):
    vm = VirtualMachine(
        nprocs, trace=trace, check_leaks=check_leaks, faults=faults,
        recv_timeout_s=kw.pop("recv_timeout_s", 20.0),
    )
    return vm.run(fn, **kw)


class TestTagClass:
    def test_classes(self):
        assert tag_class(5) == "user"
        assert tag_class((1 << 24) + 3) == "collective"
        assert tag_class(1 << 20) == "sched"          # SRCINFO
        assert tag_class((1 << 20) + 1) == "sched"    # PIECES
        assert tag_class((1 << 20) + 3) == "sched"    # DESCRIPTOR
        assert tag_class(TAG_DATA) == "data"
        assert tag_class((1 << 23) | TAG_DATA) == "control"   # rel ack
        # A reliability data envelope inherits the wrapped tag's class.
        assert tag_class((1 << 22) | TAG_DATA) == "data"
        assert tag_class((1 << 22) | 7) == "user"

    def test_context_blocks_are_stripped(self):
        assert tag_class(3 * CONTEXT_STRIDE + TAG_DATA) == "data"
        assert tag_class(7 * CONTEXT_STRIDE + (1 << 24) + 1) == "collective"


class TestRatesValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FaultRates(drop=1.5)
        with pytest.raises(ValueError):
            FaultRates(dup=-0.1)

    def test_any_active(self):
        assert not FaultRates().any_active
        assert FaultRates(delay=0.2).any_active


class TestRuleTargeting:
    def test_default_targets_data_only(self):
        rule = FaultRule(rates=FaultRates(drop=1.0))
        assert rule.matches(0, 1, "data")
        assert not rule.matches(0, 1, "sched")
        assert not rule.matches(0, 1, "collective")

    def test_src_dst_filters(self):
        rule = FaultRule(rates=FaultRates(drop=1.0), src=0, dst=2)
        assert rule.matches(0, 2, "data")
        assert not rule.matches(1, 2, "data")
        assert not rule.matches(0, 1, "data")

    def test_rates_are_walked_once_per_channel_and_class(self, monkeypatch):
        """A plan's rules are matched once per (src, dst, tag class), not
        per message: collectives drawing a new wire tag per call add no
        walks, and every answer is the rule walk's."""
        walks = []
        original = FaultRule.matches

        def spy(self, src, dst, klass):
            walks.append((src, dst, klass))
            return original(self, src, dst, klass)

        monkeypatch.setattr(FaultRule, "matches", spy)
        drop = FaultRates(drop=0.5)
        plan = FaultPlan(seed=1, rules=[
            FaultRule(rates=drop, src=0, dst=1, classes=("user",)),
            FaultRule(rates=FaultRates(), classes=("collective",))])

        def spmd(comm):
            for _ in range(10):
                comm.allreduce(comm.rank, lambda a, b: a + b)
            return comm.rank

        run(3, spmd, faults=plan)
        # each channel's collective class walked once: past the first
        # rule to the second
        assert walks and all(walks.count(w) == 2 for w in walks)
        assert {k for _, _, k in walks} == {"collective"}
        walks.clear()
        plan = FaultPlan(seed=1, rules=plan.rules)
        for _ in range(2):
            assert plan.rates_for(0, 1, 5) is drop
            assert plan.rates_for(1, 0, 5) is None
            assert plan.rates_for(0, 1, (1 << 24) + 3) is None
        assert FaultPlan(rates=drop, enabled=False).rates_for(
            0, 1, TAG_DATA) is None


class TestFaultEffects:
    def test_drop_returns_lost_receipt_and_never_delivers(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=1.0), classes=("user",))

        def spmd(comm):
            if comm.rank == 0:
                receipt = comm.send(1, 123, tag=4)
                assert receipt.dropped and receipt.lost
            return comm.process.stats.get("faults_drop", 0)

        res = run(2, spmd, faults=plan)
        assert res.values[0] == 1

    def test_corrupt_is_counted_separately(self):
        plan = FaultPlan(seed=1, rates=FaultRates(corrupt=1.0),
                         classes=("user",))

        def spmd(comm):
            if comm.rank == 0:
                receipt = comm.send(1, "x", tag=4)
                assert receipt.corrupted and receipt.lost
            return comm.process.stats.get("faults_corrupt", 0)

        res = run(2, spmd, faults=plan)
        assert res.values[0] == 1

    def test_dup_delivers_both_copies(self):
        plan = FaultPlan(seed=1, rates=FaultRates(dup=1.0), classes=("user",))

        def spmd(comm):
            if comm.rank == 0:
                receipt = comm.send(1, 9, tag=4)
                assert receipt.duplicated == 1 and receipt.delivered == 2
                return None
            return [comm.recv(0, 4), comm.recv(0, 4)]

        res = run(2, spmd, faults=plan)
        assert res.values[1] == [9, 9]

    def test_delay_inflates_arrival(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=4)
                return None
            comm.recv(0, 4)
            return comm.process.clock

        base = run(2, spmd).values[1]
        plan = FaultPlan(seed=1, rates=FaultRates(delay=1.0),
                         classes=("user",))
        delayed = run(2, spmd, faults=plan).values[1]
        lo, hi = FaultRates().delay_range_s
        assert base + lo <= delayed <= base + hi + 1e-12

    def test_reorder_held_message_is_overtaken_by_next_send(self):
        plan = FaultPlan(seed=1, rates=FaultRates(reorder=1.0),
                         classes=("user",))

        def spmd(comm):
            if comm.rank == 0:
                r1 = comm.send(1, "a", tag=4)
                assert r1.held and not r1.lost
                assert comm.process.faults.held_count(0, 1) == 1
                r2 = comm.send(1, "b", tag=4)
                # second message also held (rate 1.0)
                assert r2.held
                assert comm.process.faults.held_count(0, 1) == 2
                n = comm.process.faults.flush_channel(0, 1)
                assert n == 2
                return None
            # FIFO among the flushed batch is preserved.
            return [comm.recv(0, 4), comm.recv(0, 4)]

        res = run(2, spmd, faults=plan)
        assert res.values[1] == ["a", "b"]

    def test_partial_reorder_overtaking(self):
        """With a seed where some messages are held, a later delivery on
        the channel flushes the held ones *behind* itself (overtaking)."""
        plan = FaultPlan(seed=3, rates=FaultRates(reorder=0.5),
                         classes=("user",))

        def spmd(comm):
            n = 12
            if comm.rank == 0:
                held_any = False
                for i in range(n):
                    r = comm.send(1, i, tag=4)
                    held_any = held_any or r.held
                comm.process.faults.flush_channel(0, 1)
                return held_any
            return [comm.recv(0, 4) for _ in range(n)]

        res = run(2, spmd, faults=plan)
        assert res.values[0] is True  # this seed holds at least one of 12
        got = res.values[1]
        # All messages eventually arrive, just not necessarily in order.
        assert sorted(got) == list(range(12))

    def test_unfaulted_classes_pass_through(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=1.0),
                         classes=("data",))

        def spmd(comm):
            if comm.rank == 0:
                receipt = comm.send(1, 5, tag=4)  # "user" class: untouched
                assert receipt.delivered == 1 and not receipt.lost
                return None
            return comm.recv(0, 4)

        assert run(2, spmd, faults=plan).values[1] == 5

    def test_disabled_plan_is_a_no_op(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=1.0),
                         classes=("user",), enabled=False)

        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, 5, tag=4)
                return None
            return comm.recv(0, 4)

        assert run(2, spmd, faults=plan).values[1] == 5


class TestDeterminism:
    @staticmethod
    def _chaos(comm):
        n = 30
        if comm.rank == 0:
            receipts = []
            for i in range(n):
                r = comm.send(1, np.arange(4) + i, tag=4)
                receipts.append((r.delivered, r.dropped, r.held,
                                 r.duplicated, round(r.delay_s, 12)))
            comm.process.faults.flush_channel(0, 1)
            return receipts
        s = dict(comm.process.stats)
        return s

    def test_same_seed_same_receipt_sequence(self):
        mk = lambda: FaultPlan(  # noqa: E731
            seed=42,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("user",),
        )
        a = run(2, self._chaos, faults=mk(), check_leaks=False).values[0]
        b = run(2, self._chaos, faults=mk(), check_leaks=False).values[0]
        assert a == b

    def test_different_seed_differs(self):
        mk = lambda s: FaultPlan(  # noqa: E731
            seed=s,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("user",),
        )
        a = run(2, self._chaos, faults=mk(1), check_leaks=False).values[0]
        b = run(2, self._chaos, faults=mk(2), check_leaks=False).values[0]
        assert a != b

    def test_fault_events_are_traced(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=1.0), classes=("user",))

        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=4)
            return None

        res = run(2, spmd, faults=plan, trace=True)
        kinds = [ev.kind for ev in res.traces[0]]
        assert "fault:drop" in kinds


class TestSlowdown:
    def test_slow_rank_clock_scales(self):
        def spmd(comm):
            comm.process.charge_flops(1_000_000)
            return comm.process.clock

        base = run(2, spmd).values
        plan = FaultPlan(seed=0, slowdown={1: 3.0})
        slow = run(2, spmd, faults=plan).values
        assert slow[0] == pytest.approx(base[0])
        assert slow[1] == pytest.approx(3.0 * base[1])


class TestCrashEvents:
    def test_crash_event_needs_trigger(self):
        with pytest.raises(ValueError):
            CrashEvent(rank=1)

    def test_crash_after_sends_raises_and_peer_degrades(self):
        plan = FaultPlan(
            seed=0, crashes=[CrashEvent(rank=1, after_sends=1)]
        )

        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=4)
                comm.recv(1, 5)
                # Blocked on a message the dead rank never sends: the
                # failure detector must surface RankLostError promptly.
                comm.recv(1, 6)
            else:
                comm.send(0, "y", tag=5)       # first send succeeds
                comm.recv(0, 4)
                comm.send(0, "z", tag=6)       # second send: crash fires

        with pytest.raises(SPMDError) as ei:
            run(2, spmd, faults=plan, check_leaks=False)
        err = ei.value
        roots = {e.rank: e.exception for e in err.root_causes}
        assert isinstance(roots[1], SimulatedCrash)
        assert err.lost_ranks == [0]
        lost = [e.exception for e in err.errors if e.rank == 0][0]
        assert isinstance(lost, RankLostError)
        assert lost.lost_rank == 1
        assert "SimulatedCrash" in lost.reason

    def test_crash_at_time(self):
        plan = FaultPlan(
            seed=0, crashes=[CrashEvent(rank=0, at_time_s=0.0)]
        )

        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=4)  # first transport op: crash fires
            return None

        with pytest.raises(SPMDError) as ei:
            run(2, spmd, faults=plan, check_leaks=False)
        assert any(
            isinstance(e.exception, SimulatedCrash)
            for e in ei.value.root_causes
        )

    def test_rank_lost_error_carries_pending_dump(self):
        plan = FaultPlan(seed=0, crashes=[CrashEvent(rank=1, after_sends=0)])

        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, "unread", tag=9)
                comm.send(0, b"abcd", tag=7)  # self-send: stays pending
                comm.recv(1, 5)
            else:
                comm.send(0, "never leaves", tag=5)

        with pytest.raises(SPMDError) as ei:
            run(2, spmd, faults=plan, check_leaks=False)
        lost = [e.exception for e in ei.value.errors if e.rank == 0][0]
        assert isinstance(lost, RankLostError)
        assert any(src == 0 and n == 4 for src, _tag, n in lost.pending)
        assert "undelivered envelopes" in str(lost)
