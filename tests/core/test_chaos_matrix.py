"""Chaos matrix: seeded end-to-end property tests.

With reliability enabled, ``mc_copy`` and ``CoupledExchange.push``/
``pull`` must deliver destination arrays identical to the fault-free
oracle under any seeded mix of drop/dup/reorder/delay (each at <= 20%),
across both schedule methods and both executor policies — and the same
seed must replay the same trace.
"""

import time

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import ExecutorPolicy, ScheduleMethod, mc_compute_schedule, mc_copy
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.core.universe import SingleProgramUniverse
from repro.vmachine import ProgramSpec, VirtualMachine, run_programs
from repro.vmachine.faults import FaultPlan, FaultRates, PeerLostError
from repro.vmachine.machine import SPMDError

from helpers import both_methods, index_sor, oracle_copy, section_sor

SHAPE = (12, 10)
G = np.random.default_rng(2).random(SHAPE)
PERM = np.random.default_rng(3).permutation(80)
SRC_SLICES = (slice(2, 10), slice(0, 10))

BOTH_POLICIES = [ExecutorPolicy.ORDERED, ExecutorPolicy.OVERLAP]


def chaos_plan(seed):
    """<=20% of each fault on the data plane (the default rule class)."""
    return FaultPlan(
        seed=seed,
        rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
    )


def expected():
    return oracle_copy(
        G, section_sor(SRC_SLICES, SHAPE), np.zeros(80), index_sor(PERM)
    )


# ---------------------------------------------------------------------------
# single program: mc_copy over a faulty transport
# ---------------------------------------------------------------------------


def _single_program(method, policy):
    def spmd(comm):
        A = BlockPartiArray.from_global(comm, G)
        B = ChaosArray.zeros(comm, (PERM * 7) % comm.size)
        sched = mc_compute_schedule(
            comm, "blockparti", A, section_sor(SRC_SLICES, SHAPE),
            "chaos", B, index_sor(PERM), method,
        )
        universe = SingleProgramUniverse(comm)
        universe.enable_reliability()
        mc_copy(universe, sched, A, B, policy=policy)
        return B.gather_global()

    return spmd


class TestSingleProgramChaos:
    @pytest.mark.parametrize("method", both_methods())
    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_mc_copy_matches_oracle_under_chaos(self, method, policy):
        vm = VirtualMachine(4, faults=chaos_plan(seed=31), recv_timeout_s=30.0)
        got = vm.run(_single_program(method, policy)).values[0]
        np.testing.assert_array_equal(got, expected())

    @pytest.mark.parametrize("seed", [1, 17, 92])
    def test_seed_sweep(self, seed):
        vm = VirtualMachine(3, faults=chaos_plan(seed), recv_timeout_s=30.0)
        got = vm.run(
            _single_program(ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED)
        ).values[0]
        np.testing.assert_array_equal(got, expected())

    def test_retransmits_actually_happened(self):
        """The chaos plan must be exercising the protocol, not idling."""
        def spmd(comm):
            _single_program(
                ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED
            )(comm)
            return dict(comm.process.stats)

        vm = VirtualMachine(4, faults=chaos_plan(seed=31), recv_timeout_s=30.0)
        stats = vm.run(spmd).values
        assert sum(s.get("faults_drop", 0) for s in stats) > 0
        assert sum(s.get("rel_retransmits", 0) for s in stats) > 0


class TestChaosDeterminism:
    def _traced(self, seed):
        vm = VirtualMachine(
            4, faults=chaos_plan(seed), recv_timeout_s=30.0, trace=True
        )
        res = vm.run(
            _single_program(ScheduleMethod.COOPERATION, ExecutorPolicy.OVERLAP)
        )
        events = [
            [(e.kind, e.time, e.rank, e.peer, e.tag, e.nbytes, e.wait)
             for e in tr]
            for tr in res.traces
        ]
        return events, res.clocks

    def test_same_seed_replays_identical_trace(self):
        ev_a, clk_a = self._traced(77)
        ev_b, clk_b = self._traced(77)
        assert ev_a == ev_b
        assert clk_a == clk_b

    def test_different_seed_differs(self):
        ev_a, _ = self._traced(77)
        ev_b, _ = self._traced(78)
        assert ev_a != ev_b


# ---------------------------------------------------------------------------
# two programs: CoupledExchange over a faulty inter-program channel
# ---------------------------------------------------------------------------


def _coupled(psrc, pdst, method, policy, *, faults=None, pull_back=False):
    def src_prog(ctx):
        A = BlockPartiArray.from_global(ctx.comm, G)
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni,
            "blockparti", A, section_sor(SRC_SLICES, SHAPE),
            "chaos", None,
            index_sor(PERM) if method is ScheduleMethod.DUPLICATION else None,
            method,
        )
        ex = CoupledExchange(uni, sched, policy=policy, reliability=True)
        ex.push(A)
        if pull_back:
            A2 = BlockPartiArray.zeros(ctx.comm, SHAPE)
            ex.pull(A2)
            return A2.gather_global()
        return None

    def dst_prog(ctx):
        B = ChaosArray.zeros(ctx.comm, (PERM * 3) % ctx.comm.size)
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni,
            "blockparti", None,
            section_sor(SRC_SLICES, SHAPE)
            if method is ScheduleMethod.DUPLICATION else None,
            "chaos", B, index_sor(PERM),
            method,
        )
        ex = CoupledExchange(uni, sched, policy=policy, reliability=True)
        ex.push(B)
        out = B.gather_global()
        if pull_back:
            B.local *= 2.0
            ex.pull(B)
        return out

    return run_programs(
        [ProgramSpec("srcp", psrc, src_prog),
         ProgramSpec("dstp", pdst, dst_prog)],
        faults=faults,
        recv_timeout_s=30.0,
    )


class TestCoupledChaos:
    @pytest.mark.parametrize("method", both_methods())
    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_push_matches_oracle_under_chaos(self, method, policy):
        res = _coupled(3, 2, method, policy, faults=chaos_plan(seed=5))
        np.testing.assert_array_equal(res["dstp"].values[0], expected())

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_pull_returns_doubled_data_under_chaos(self, policy):
        res = _coupled(2, 3, ScheduleMethod.COOPERATION, policy,
                       faults=chaos_plan(seed=8), pull_back=True)
        np.testing.assert_array_equal(res["dstp"].values[0], expected())
        want = np.zeros(SHAPE)
        want[SRC_SLICES] = 2.0 * G[SRC_SLICES]
        np.testing.assert_array_equal(res["srcp"].values[0], want)

    def test_chaos_result_equals_fault_free_result(self):
        a = _coupled(3, 2, ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED)
        b = _coupled(3, 2, ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED,
                     faults=chaos_plan(seed=40))
        np.testing.assert_array_equal(
            a["dstp"].values[0], b["dstp"].values[0]
        )


class TestCoupledDegradation:
    def test_crashed_peer_surfaces_peer_lost_error(self):
        """The destination program dies after the schedule exchange; the
        source's push must raise PeerLostError *naming the peer program*
        within the receive budget, not hang."""

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, G)
            uni = coupled_universe(ctx, "dstp", "src")
            sched = mc_compute_schedule(
                uni, "blockparti", A, section_sor(SRC_SLICES, SHAPE),
                "chaos", None, None,
            )
            ex = CoupledExchange(uni, sched, reliability=True)
            ex.push(A)

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, PERM % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            mc_compute_schedule(
                uni, "blockparti", None, None,
                "chaos", B, index_sor(PERM),
            )
            raise RuntimeError("simulated power loss")

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            run_programs(
                [ProgramSpec("srcp", 1, src_prog),
                 ProgramSpec("dstp", 1, dst_prog)],
                recv_timeout_s=20.0,
            )
        assert time.monotonic() - t0 < 15.0
        peer_lost = [
            e.exception for e in ei.value.errors
            if isinstance(e.exception, PeerLostError)
        ]
        assert peer_lost, "no PeerLostError surfaced"
        assert peer_lost[0].peer_program == "dstp"
        assert "dstp" in str(peer_lost[0])

    def test_silent_peer_times_out_within_deadline(self):
        """A peer that is alive but never completes its half: the fence's
        receive budget converts the stall into PeerLostError diagnostics."""

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, G)
            uni = coupled_universe(ctx, "dstp", "src")
            sched = mc_compute_schedule(
                uni, "blockparti", A, section_sor(SRC_SLICES, SHAPE),
                "chaos", None, None,
            )
            ex = CoupledExchange(uni, sched, reliability=True)
            t0 = time.monotonic()
            try:
                ex.push(A)
            except PeerLostError as exc:
                return (time.monotonic() - t0, exc.peer_program, str(exc))
            return None

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, PERM % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            mc_compute_schedule(
                uni, "blockparti", None, None,
                "chaos", B, index_sor(PERM),
            )
            return None  # never calls push: the src's acks never come

        # The pushed data is never received, on purpose: no leak check.
        res = run_programs(
            [ProgramSpec("srcp", 1, src_prog),
             ProgramSpec("dstp", 1, dst_prog)],
            recv_timeout_s=1.0, check_leaks=False,
        )
        out = res["srcp"].values[0]
        assert out is not None, "push did not raise PeerLostError"
        elapsed, peer, text = out
        assert elapsed < 10.0
        assert peer == "dstp"
        assert "dstp" in text

    @pytest.mark.parametrize("policy, pdst", [
        (ExecutorPolicy.ORDERED, 1),
        (ExecutorPolicy.OVERLAP, 2),
    ], ids=["ordered", "overlap-two-silent-sources"])
    def test_bare_pull_deadline_is_one_wait_and_reports_its_budget(
            self, policy, pdst):
        """No reliability: a pull from a peer that never sends raises
        after one wait of ``recv_timeout_s`` and the text names that budget —
        under either policy (ORDERED used to re-enter the wait in slices
        and report the last slice, 0.125 s, as the time-out)."""

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, G)
            uni = coupled_universe(ctx, "dstp", "src")
            sched = mc_compute_schedule(
                uni, "blockparti", A, section_sor(SRC_SLICES, SHAPE),
                "chaos", None, None,
            )
            ex = CoupledExchange(uni, sched, policy=policy)
            t0 = time.monotonic()
            try:
                ex.pull(A)
            except PeerLostError as exc:
                return (time.monotonic() - t0, exc.peer_program, str(exc))
            return None

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, PERM % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            mc_compute_schedule(
                uni, "blockparti", None, None,
                "chaos", B, index_sor(PERM),
            )
            return None  # never calls pull: nothing is ever sent back

        res = run_programs(
            [ProgramSpec("srcp", 1, src_prog),
             ProgramSpec("dstp", pdst, dst_prog)],
            recv_timeout_s=1.0,
        )
        out = res["srcp"].values[0]
        assert out is not None, "pull did not raise PeerLostError"
        elapsed, peer, text = out
        assert 0.9 < elapsed < 10.0
        assert peer == "dstp"
        # the one budget that bounded the wait, named once
        assert text.count("timed out after 1.0s") == 1
        assert "deadline" not in text
        assert "0.125" not in text
