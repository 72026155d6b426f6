"""Reliable-delivery protocol: in-order delivery over a faulty channel,
retransmission accounting, duplicate suppression, fencing, and failure
surfacing."""

import pytest

from repro.vmachine import VirtualMachine
from repro.vmachine.faults import (
    CrashEvent,
    FaultPlan,
    FaultRates,
    RankLostError,
)
from repro.vmachine.machine import SPMDError
from repro.vmachine.reliability import (
    REL_ACK,
    REL_DATA,
    Reliability,
    ReliabilityConfig,
)

TAG = 11  # plain user tag; rules below target the "user" class


def run(nprocs, fn, *, faults=None, trace=False, check_leaks=True,
        recv_timeout_s=20.0):
    vm = VirtualMachine(nprocs, trace=trace, check_leaks=check_leaks,
                        faults=faults, recv_timeout_s=recv_timeout_s)
    return vm.run(fn)


def _pipeline(n, cfg=None):
    """Rank 0 reliably streams ``n`` integers to rank 1; both return their
    (values, stats) observations."""

    def spmd(comm):
        rel = Reliability(cfg)
        if comm.rank == 0:
            for i in range(n):
                rel.send(comm, 1, i, TAG)
            rel.fence()
            return dict(comm.process.stats)
        got = [rel.recv(comm, 0, TAG) for _ in range(n)]
        return got, dict(comm.process.stats)

    return spmd


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(base_rto_s=-1.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)


class TestReliableDelivery:
    def test_clean_channel_delivers_in_order(self):
        res = run(2, _pipeline(20))
        got, _stats = res.values[1]
        assert got == list(range(20))

    def test_survives_drops_with_retransmits(self):
        plan = FaultPlan(seed=7, rates=FaultRates(drop=0.4),
                         classes=("user",))
        res = run(2, _pipeline(40), faults=plan)
        sender_stats = res.values[0]
        got, _ = res.values[1]
        assert got == list(range(40))
        assert sender_stats["rel_retransmits"] > 0
        assert sender_stats["rel_rto_wait_s"] > 0
        assert sender_stats["faults_drop"] > 0

    def test_corruption_is_retransmitted_too(self):
        plan = FaultPlan(seed=5, rates=FaultRates(corrupt=0.4),
                         classes=("user",))
        res = run(2, _pipeline(40), faults=plan)
        got, _ = res.values[1]
        assert got == list(range(40))
        assert res.values[0]["rel_retransmits"] > 0

    def test_duplicates_are_suppressed(self):
        plan = FaultPlan(seed=3, rates=FaultRates(dup=0.5),
                         classes=("user",))
        res = run(2, _pipeline(40), faults=plan)
        got, recv_stats = res.values[1]
        assert got == list(range(40))
        assert recv_stats["rel_dups_discarded"] > 0

    def test_reorder_holdback_is_resequenced(self):
        plan = FaultPlan(seed=9, rates=FaultRates(reorder=0.4),
                         classes=("user",))
        res = run(2, _pipeline(40), faults=plan)
        got, _ = res.values[1]
        assert got == list(range(40))
        # the sender's fault plan actually held something back
        assert res.values[0]["faults_hold"] > 0

    def test_full_chaos_mix(self):
        plan = FaultPlan(
            seed=12,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2,
                             corrupt=0.1),
            classes=("user",),
        )
        res = run(2, _pipeline(60), faults=plan)
        got, _ = res.values[1]
        assert got == list(range(60))

    def test_rto_backoff_is_charged_to_the_logical_clock(self):
        """Reliability overhead must be visible in logical time: the same
        workload over a lossy channel finishes later than over a clean
        one, by at least the charged RTO waits."""

        def spmd(comm):
            rel = Reliability(ReliabilityConfig(base_rto_s=1e-3))
            if comm.rank == 0:
                for i in range(30):
                    rel.send(comm, 1, i, TAG)
                rel.fence()
                return comm.process.clock, comm.process.stats.get(
                    "rel_rto_wait_s", 0.0
                )
            for _ in range(30):
                rel.recv(comm, 0, TAG)
            return None

        clean_clock, _ = run(2, spmd).values[0]
        plan = FaultPlan(seed=7, rates=FaultRates(drop=0.4),
                         classes=("user",))
        lossy_clock, rto_wait = run(2, spmd, faults=plan).values[0]
        assert rto_wait > 0
        assert lossy_clock >= clean_clock + rto_wait


class TestDeterministicReplay:
    def _run_traced(self, seed):
        plan = FaultPlan(
            seed=seed,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("user",),
        )
        res = run(2, _pipeline(40), faults=plan, trace=True)
        events = [
            [(e.kind, e.time, e.rank, e.peer, e.tag, e.nbytes, e.wait)
             for e in tr]
            for tr in res.traces
        ]
        return events, res.clocks

    def test_same_seed_same_trace_and_clocks(self):
        ev_a, clk_a = self._run_traced(21)
        ev_b, clk_b = self._run_traced(21)
        assert ev_a == ev_b
        assert clk_a == clk_b

    def test_different_seed_different_trace(self):
        ev_a, _ = self._run_traced(21)
        ev_b, _ = self._run_traced(22)
        assert ev_a != ev_b


class TestFence:
    def test_fence_catches_up_cumulative_ack(self):
        def spmd(comm):
            rel = Reliability()
            if comm.rank == 0:
                for i in range(5):
                    rel.send(comm, 1, i, TAG)
                rel.fence()
                (ch,) = rel._out.values()
                return ch.next_seq, ch.acked
            for _ in range(5):
                rel.recv(comm, 0, TAG)
            return None

        next_seq, acked = run(2, spmd).values[0]
        assert next_seq == 5 and acked == 4

    def test_describe_tells_two_communicators_apart(self):
        # one user tag on two communicators: ``tag & 0xFFFF`` printed both 11
        from repro.vmachine.comm import CONTEXT_STRIDE

        def spmd(comm):
            sub = comm.split(0)
            rel = Reliability()
            if comm.rank == 0:
                rel.send(sub, 1, "x", TAG)
                rel.send(comm, 1, "y", TAG)
                rel.fence()
            else:
                rel.recv(sub, 0, TAG)
                rel.recv(comm, 0, TAG)
            return rel.describe(), sub._context // CONTEXT_STRIDE

        (out, block), (inn, _) = run(2, spmd).values
        assert block != 0
        assert out.splitlines() == [
            f"out-channel to group rank 1 tag {block}:{TAG}: "
            "sent seqs [0, 1), last cumulative ack 0",
            f"out-channel to group rank 1 tag 0:{TAG}: "
            "sent seqs [0, 1), last cumulative ack 0",
        ]
        assert [line.split(":")[0:2] for line in inn.splitlines()] == [
            [f"in-channel from group rank 0 tag {block}", str(TAG)],
            ["in-channel from group rank 0 tag 0", str(TAG)],
        ]

    def test_fence_releases_held_final_message(self):
        plan = FaultPlan(seed=1, rates=FaultRates(reorder=1.0),
                         classes=("user",))

        def spmd(comm):
            rel = Reliability()
            if comm.rank == 0:
                rel.send(comm, 1, "only", TAG)  # held by the fault plan
                rel.fence(timeout=10.0)         # flush + await the ack
                return True
            return rel.recv(comm, 0, TAG)

        res = run(2, spmd, faults=plan)
        assert res.values[1] == "only"

    def test_fence_on_dead_peer_raises_rank_lost_with_last_ack(self):
        plan = FaultPlan(seed=0,
                         crashes=[CrashEvent(rank=1, after_receives=0)])

        def spmd(comm):
            rel = Reliability(ReliabilityConfig(fence_timeout_s=2.0))
            if comm.rank == 0:
                rel.send(comm, 1, "x", TAG)
                rel.fence()
            else:
                rel.recv(comm, 0, TAG)  # crash fires before the receive

        with pytest.raises(SPMDError) as ei:
            run(2, spmd, faults=plan, check_leaks=False)
        lost = [e.exception for e in ei.value.errors if e.rank == 0][0]
        assert isinstance(lost, RankLostError)
        assert lost.last_ack is not None
        assert "out-channel" in lost.last_ack

    def test_max_retries_exhaustion_declares_peer_lost(self):
        plan = FaultPlan(seed=2, rates=FaultRates(drop=1.0),
                         classes=("user",))

        def spmd(comm):
            rel = Reliability(ReliabilityConfig(base_rto_s=1e-4,
                                                max_retries=3))
            if comm.rank == 0:
                rel.send(comm, 1, "doomed", TAG)
            return None

        with pytest.raises(SPMDError) as ei:
            run(2, spmd, faults=plan, check_leaks=False)
        lost = ei.value.errors[0].exception
        assert isinstance(lost, RankLostError)
        assert "3 retransmissions" in lost.reason
        assert lost.last_ack is not None


class TestRecvAny:
    def test_recv_any_completes_all_channels(self):
        def spmd(comm):
            rel = Reliability()
            if comm.rank == 0:
                seen = {}
                remaining = {1, 2, 3}
                while remaining:
                    p, v = rel.recv_any(comm, sorted(remaining), TAG)
                    seen[p] = v
                    remaining.discard(p)
                return seen
            rel.send(comm, 0, f"from-{comm.rank}", TAG)
            rel.fence()
            return None

        res = run(4, spmd)
        assert res.values[0] == {
            1: "from-1", 2: "from-2", 3: "from-3"
        }

    def test_recv_any_under_faults(self):
        plan = FaultPlan(
            seed=4,
            rates=FaultRates(drop=0.3, dup=0.3, reorder=0.2),
            classes=("user",),
        )

        def spmd(comm):
            rel = Reliability()
            n = 6
            if comm.rank == 0:
                got = {1: [], 2: [], 3: []}
                pending = {p: n for p in (1, 2, 3)}
                while pending:
                    p, v = rel.recv_any(comm, sorted(pending), TAG)
                    got[p].append(v)
                    pending[p] -= 1
                    if pending[p] == 0:
                        del pending[p]
                return got
            for i in range(n):
                rel.send(comm, 0, (comm.rank, i), TAG)
            rel.fence()
            return None

        res = run(4, spmd, faults=plan)
        got = res.values[0]
        for p in (1, 2, 3):
            assert got[p] == [(p, i) for i in range(6)]


class TestShadowTags:
    def test_shadow_bits_stay_below_collective_block(self):
        assert REL_DATA < (1 << 24) and REL_ACK < (1 << 24)
        assert REL_DATA & REL_ACK == 0
