"""Fused multi-array moves: MovePlan compilation and execution.

The core contract: ``mc_copy_many`` over k schedules is *byte-identical*
to k sequential ``mc_copy`` calls — same destination arrays, same element
order — while each processor pair exchanges exactly one fused message.
Covered here: compiler structure and validation, the fused==sequential
property across methods × policies × mixed dtypes, message-count
reduction, ``plan:fuse`` observability, the pooled-arena steady state of
iterative loops, copy-on-send mode, chaos-matrix reliability, and the
coupled ``push_many``/``pull_many`` surface.  One executor runs every
move: ``data_move*`` on a schedule S and ``plan_move*`` on
``compile_plan([S])`` must be the same move to the byte, the clock tick
and the trace event, and a one-schedule plan must travel the bare wire.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    ExecutorPolicy,
    FusedBuffer,
    ScheduleMethod,
    SegmentHeader,
    compile_plan,
    ensure_safe_cast,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
)
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.core.datamove import data_move, data_move_recv, data_move_send
from repro.core.plan import (
    _check_fused,
    PlanSegment,
    plan_move,
    plan_move_recv,
    plan_move_send,
)
from repro.core.runs import RunList
from repro.core.schedule import CommSchedule
from repro.core.universe import SingleProgramUniverse
from repro.vmachine import (
    IBM_SP2, CostModel, ProgramSpec, VirtualMachine, run_programs,
)
from repro.vmachine.faults import FaultPlan, FaultRates

from helpers import both_methods, index_sor, oracle_copy, run_spmd, section_sor

BOTH_POLICIES = [ExecutorPolicy.ORDERED, ExecutorPolicy.OVERLAP]

SHAPE = (12, 10)
N = SHAPE[0] * SHAPE[1]
G1 = np.random.default_rng(11).random(SHAPE)
G2 = np.arange(N, dtype=np.float32).reshape(SHAPE)
PERM1 = np.random.default_rng(12).permutation(N)
PERM2 = np.random.default_rng(13).permutation(N)


def _two_array_spmd(method, policy, fused, k=2, trace_stats=False):
    """Move G1 and G2 (float64 + float32) onto permuted Chaos arrays,
    either fused (one mc_copy_many) or as k sequential mc_copy calls."""

    def spmd(comm):
        full = section_sor((slice(None), slice(None)), SHAPE)
        arrays = []
        for i in range(k):
            glob = [G1, G2][i % 2]
            perm = [PERM1, PERM2][i % 2]
            A = BlockPartiArray.from_global(comm, glob)
            B = ChaosArray.zeros(
                comm, (perm * (i + 3)) % comm.size, dtype=glob.dtype
            )
            sched = mc_compute_schedule(
                comm, "blockparti", A, full, "chaos", B, index_sor(perm),
                method,
            )
            arrays.append((sched, A, B))
        if fused:
            mc_copy_many(
                comm,
                [s for s, _, _ in arrays],
                [a for _, a, _ in arrays],
                [b for _, _, b in arrays],
                policy=policy,
            )
        else:
            for sched, A, B in arrays:
                mc_copy(comm, sched, A, B, policy=policy)
        out = tuple(B.gather_global() for _, _, B in arrays)
        if trace_stats:
            return out, dict(comm.process.stats)
        return out

    return spmd


def _expected(k=2):
    outs = []
    for i in range(k):
        glob = [G1, G2][i % 2]
        perm = [PERM1, PERM2][i % 2]
        outs.append(
            oracle_copy(
                glob,
                section_sor((slice(None), slice(None)), SHAPE),
                np.zeros(N, dtype=glob.dtype),
                index_sor(perm),
            )
        )
    return outs


# ---------------------------------------------------------------------------
# compiler structure and validation
# ---------------------------------------------------------------------------


def _toy_schedule(sends=None, recvs=None, src_size=4, dst_size=4):
    return CommSchedule(
        src_lib="blockparti",
        dst_lib="chaos",
        n_elements=8,
        src_size=src_size,
        dst_size=dst_size,
        method=ScheduleMethod.COOPERATION,
        sends=sends or {},
        recvs=recvs or {},
    )


class TestCompile:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            compile_plan([])

    def test_mismatched_universe_rejected(self):
        a = _toy_schedule(src_size=4, dst_size=4)
        b = _toy_schedule(src_size=2, dst_size=2)
        with pytest.raises(ValueError, match="one universe"):
            compile_plan([a, b])

    def test_segments_in_schedule_order(self):
        a = _toy_schedule(sends={1: np.array([0, 1, 2])})
        b = _toy_schedule(sends={1: np.array([4, 5])})
        plan = compile_plan([a, b])
        prog = plan.send_programs[1]
        assert [seg.schedule_id for seg in prog] == [0, 1]
        assert [seg.count for seg in prog] == [3, 2]

    def test_empty_halves_contribute_no_segments(self):
        a = _toy_schedule(sends={1: np.array([0, 1])})
        b = _toy_schedule(sends={2: np.array([3])})
        plan = compile_plan([a, b])
        assert set(plan.send_programs) == {1, 2}
        assert len(plan.send_programs[1]) == 1
        assert len(plan.send_programs[2]) == 1

    def test_counts_and_alpha_saved(self):
        a = _toy_schedule(sends={1: np.array([0]), 2: np.array([1])})
        b = _toy_schedule(sends={1: np.array([2])})
        plan = compile_plan([a, b])
        assert plan.fused_message_count == 2   # peers 1, 2
        assert plan.unfused_message_count == 3  # 2 + 1 segments
        assert plan.alpha_saved == 1

    def test_pair_table_rows(self):
        a = _toy_schedule(sends={1: np.array([0, 1])})
        b = _toy_schedule(sends={1: np.array([2])})
        rows = compile_plan([a, b]).pair_table(itemsizes=[8, 4])
        assert rows == [
            {"peer": 1, "segments": 2, "elements": 3,
             "data_bytes": 2 * 8 + 1 * 4, "alpha_saved": 1}
        ]

    def test_compile_is_local_and_free(self):
        """Compilation must charge no logical time (it is per-rank local)."""

        def spmd(comm):
            A = BlockPartiArray.from_global(comm, G1)
            B = ChaosArray.zeros(comm, PERM1 % comm.size)
            sched = mc_compute_schedule(
                comm, "blockparti", A,
                section_sor((slice(None), slice(None)), SHAPE),
                "chaos", B, index_sor(PERM1), ScheduleMethod.COOPERATION,
            )
            before = comm.process.clock
            mc_compute_plan([sched, sched, sched])
            return comm.process.clock - before

        assert all(d == 0.0 for d in run_spmd(4, spmd).values)


class TestExecutorValidation:
    def test_array_count_mismatch(self):
        def spmd(comm):
            A = BlockPartiArray.from_global(comm, G1)
            B = ChaosArray.zeros(comm, PERM1 % comm.size)
            sched = mc_compute_schedule(
                comm, "blockparti", A,
                section_sor((slice(None), slice(None)), SHAPE),
                "chaos", B, index_sor(PERM1), ScheduleMethod.COOPERATION,
            )
            plan = mc_compute_plan([sched, sched])
            with pytest.raises(ValueError, match="2 schedule"):
                mc_copy_many(comm, plan, [A], [B, B])
            return True

        assert all(run_spmd(2, spmd).values)

    def test_refused_cast_mid_row_charges_the_earlier_segments(self):
        """A fused k = 4 move on two ranks, every element bound for the
        other rank, whose third member converts float64 -> int64: each
        rank's unpack row refuses at its third segment.  The error is the
        cast rule's own; the clock stops at the receive's clock plus
        exactly the first two segments' pack charges, and the attributed
        terms still sum to the clock."""
        k, n = 4, 16

        def spmd(comm):
            owners = (np.arange(n) // (n // comm.size) + 1) % comm.size
            srcs = [BlockPartiArray.from_global(comm, np.arange(n) + 100.0 * j)
                    for j in range(k)]
            dsts = [ChaosArray.zeros(comm, owners,
                                     dtype=np.int64 if j == 2 else np.float64)
                    for j in range(k)]
            scheds = [
                mc_compute_schedule(
                    comm, "blockparti", a, section_sor((slice(0, n),), (n,)),
                    "chaos", b, index_sor(np.arange(n)))
                for a, b in zip(srcs, dsts)
            ]
            plan = mc_compute_plan(scheds)
            (row,) = plan.recv_programs.values()
            try:
                mc_copy_many(comm, plan, srcs, dsts)
            except TypeError as exc:
                return str(exc), comm.process.clock, [seg.count for seg in row]
            return "not refused", None, None

        res = VirtualMachine(2, trace=True, observe=True,
                             check_leaks=False).run(spmd)
        with pytest.raises(TypeError) as refusal:
            ensure_safe_cast(np.dtype(np.float64), np.dtype(np.int64))
        for rank, (text, clock, counts) in enumerate(res.values):
            assert text == str(refusal.value)
            assert len(counts) == k
            recv = [e for e in res.traces[rank] if e.kind == "recv"][-1]
            expected = recv.time
            for count in counts[:2]:
                expected += CostModel(IBM_SP2).pack(count)
            assert clock == expected == res.clocks[rank]
            assert abs(res.metrics[rank].attributed_seconds() - clock) < 1e-9


class TestCheckFused:
    def _program(self):
        return (
            PlanSegment(0, RunList.from_dense(np.array([0, 1, 2]))),
            PlanSegment(1, RunList.from_dense(np.array([3, 4]))),
        )

    def _fused(self, headers):
        from repro.core.wire import WireLayout

        total = WireLayout(headers).total
        return FusedBuffer(headers, np.zeros(max(total, 1), dtype=np.uint8))

    def test_accepts_matching(self):
        fused = self._fused(
            [SegmentHeader(0, "<f8", 3), SegmentHeader(1, "<f4", 2)]
        )
        _check_fused(self._program(), fused, s=1)  # no raise

    def test_rejects_unfused_payload(self):
        with pytest.raises(RuntimeError, match="plan mismatch"):
            _check_fused(self._program(), np.zeros(5), s=1)

    def test_rejects_segment_count_mismatch(self):
        fused = self._fused([SegmentHeader(0, "<f8", 3)])
        with pytest.raises(RuntimeError, match="1 segment"):
            _check_fused(self._program(), fused, s=1)

    def test_rejects_schedule_id_mismatch(self):
        fused = self._fused(
            [SegmentHeader(0, "<f8", 3), SegmentHeader(2, "<f4", 2)]
        )
        with pytest.raises(RuntimeError, match="schedule 2"):
            _check_fused(self._program(), fused, s=1)

    def test_rejects_element_count_mismatch(self):
        fused = self._fused(
            [SegmentHeader(0, "<f8", 3), SegmentHeader(1, "<f4", 7)]
        )
        with pytest.raises(RuntimeError, match="7 elements"):
            _check_fused(self._program(), fused, s=1)


# ---------------------------------------------------------------------------
# fused == sequential (the defining property)
# ---------------------------------------------------------------------------


class TestFusedEqualsSequential:
    @pytest.mark.parametrize("method", both_methods())
    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_mixed_dtypes_match_oracle(self, method, policy):
        got = run_spmd(4, _two_array_spmd(method, policy, fused=True)).values[0]
        for out, want in zip(got, _expected()):
            assert out.dtype == want.dtype
            np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_fused_equals_sequential_bytes(self, policy):
        fused = run_spmd(
            4, _two_array_spmd(ScheduleMethod.COOPERATION, policy, fused=True)
        ).values[0]
        seq = run_spmd(
            4, _two_array_spmd(ScheduleMethod.COOPERATION, policy, fused=False)
        ).values[0]
        for f, s in zip(fused, seq):
            np.testing.assert_array_equal(f, s)

    def test_single_schedule_plan_matches_mc_copy(self):
        got = run_spmd(
            3,
            _two_array_spmd(
                ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED,
                fused=True, k=1,
            ),
        ).values[0]
        np.testing.assert_array_equal(got[0], _expected(k=1)[0])

    @settings(deadline=None, max_examples=10)
    @given(
        lo=st.integers(0, 5),
        hi=st.integers(6, 12),
        seed=st.integers(0, 2**16),
        nprocs=st.sampled_from([2, 3, 4]),
        k=st.integers(1, 3),
    )
    def test_random_regions_property(self, lo, hi, seed, nprocs, k):
        rng = np.random.default_rng(seed)
        src_slices = (slice(lo, hi), slice(0, 10))
        m = (hi - lo) * 10
        perms = [rng.permutation(N)[:m] for _ in range(k)]
        # Distinct unordered index destinations per array.

        def spmd(comm):
            triples = []
            for j, perm in enumerate(perms):
                A = BlockPartiArray.from_global(comm, G1)
                B = ChaosArray.zeros(
                    comm, (np.arange(N) * 7 + j) % comm.size
                )
                sched = mc_compute_schedule(
                    comm, "blockparti", A, section_sor(src_slices, SHAPE),
                    "chaos", B, index_sor(perm), ScheduleMethod.COOPERATION,
                )
                triples.append((sched, A, B))
            mc_copy_many(
                comm,
                [s for s, _, _ in triples],
                [a for _, a, _ in triples],
                [b for _, _, b in triples],
            )
            return tuple(B.gather_global() for _, _, B in triples)

        got = run_spmd(nprocs, spmd).values[0]
        for out, perm in zip(got, perms):
            want = oracle_copy(
                G1, section_sor(src_slices, SHAPE),
                np.zeros(N), index_sor(perm),
            )
            np.testing.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# one executor: data_move*(S) == plan_move*(compile_plan([S]))
# ---------------------------------------------------------------------------

FULL = section_sor((slice(None), slice(None)), SHAPE)
FUSION_COUNTERS = ("plan_fused_messages", "plan_fused_segments",
                   "plan_alpha_saved", "arena_hits", "arena_misses")


def _single_program_move(method, policy, reliable, via_plan):
    def spmd(comm):
        A = BlockPartiArray.from_global(comm, G1)
        B = ChaosArray.zeros(comm, (PERM1 * 3) % comm.size)
        sched = mc_compute_schedule(
            comm, "blockparti", A, FULL, "chaos", B, index_sor(PERM1), method,
        )
        universe = SingleProgramUniverse(comm)
        if reliable:
            universe.enable_reliability()
        sent = comm.process.stats.get("bytes_sent", 0)
        if via_plan:
            plan_move(compile_plan([sched]), [A], [B], universe, policy=policy)
        else:
            data_move(sched, A, B, universe, policy=policy)
        remote = sum(
            len(off) for d, off in sched.sends.items() if d != comm.rank
        )
        sent = comm.process.stats.get("bytes_sent", 0) - sent
        return B.local.tobytes(), sent, remote * G1.itemsize

    return VirtualMachine(4, trace=True).run(spmd)


def _two_program_move(method, policy, reliable, via_plan, psrc=3, pdst=2):
    dup = method is ScheduleMethod.DUPLICATION

    def src_prog(ctx):
        A = BlockPartiArray.from_global(ctx.comm, G1)
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni, "blockparti", A, FULL,
            "chaos", None, index_sor(PERM1) if dup else None, method,
        )
        if reliable:
            uni.enable_reliability()
        if via_plan:
            plan_move_send(compile_plan([sched]), [A], uni, policy=policy)
        else:
            data_move_send(sched, A, uni, policy=policy)
        return None

    def dst_prog(ctx):
        B = ChaosArray.zeros(ctx.comm, (PERM1 * 3) % ctx.comm.size)
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni, "blockparti", None, FULL if dup else None,
            "chaos", B, index_sor(PERM1), method,
        )
        if reliable:
            uni.enable_reliability()
        if via_plan:
            plan_move_recv(compile_plan([sched]), [B], uni, policy=policy)
        else:
            data_move_recv(sched, B, uni, policy=policy)
        return B.local.tobytes()

    return run_programs(
        [ProgramSpec("srcp", psrc, src_prog),
         ProgramSpec("dstp", pdst, dst_prog)],
        trace=True,
    )


def _assert_same_run(a, b):
    assert a.clocks == b.clocks  # logical clocks, exact
    assert a.traces == b.traces
    for key in FUSION_COUNTERS:
        assert a.total_stat(key) == b.total_stat(key) == 0


@pytest.mark.parametrize("method", both_methods())
@pytest.mark.parametrize("policy", BOTH_POLICIES)
@pytest.mark.parametrize("reliable", [False, True])
class TestSingleScheduleIsBarePlan:
    def test_single_program(self, method, policy, reliable):
        moved = _single_program_move(method, policy, reliable, via_plan=False)
        planned = _single_program_move(method, policy, reliable, via_plan=True)
        _assert_same_run(moved, planned)
        assert not any(
            e.kind == "plan:fuse" for tr in planned.traces for e in tr
        )
        for (got, sent, raw), (want, _, _) in zip(planned.values, moved.values):
            assert got == want
            if not reliable:  # acks ride bytes_sent too
                # bare wire: payload bytes only, no fused/segment headers
                assert sent == raw

    def test_two_program(self, method, policy, reliable):
        moved = _two_program_move(method, policy, reliable, via_plan=False)
        planned = _two_program_move(method, policy, reliable, via_plan=True)
        for name in ("srcp", "dstp"):
            _assert_same_run(moved[name], planned[name])
        assert planned["dstp"].values == moved["dstp"].values


# ---------------------------------------------------------------------------
# message structure and observability
# ---------------------------------------------------------------------------


class TestMessageReduction:
    def _run(self, fused, k=3):
        def spmd(comm):
            _two_array_spmd(
                ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED,
                fused=fused, k=k,
            )(comm)
            return None

        return VirtualMachine(4).run(spmd)

    def test_one_message_per_pair(self):
        res_f = self._run(fused=True)
        res_s = self._run(fused=False)
        saved = res_f.total_stat("plan_alpha_saved")
        assert saved > 0
        # Schedule construction and gathers are identical in both runs;
        # the entire message-count difference is the fused data plane.
        assert (
            res_s.total_stat("messages_sent")
            - res_f.total_stat("messages_sent")
            == saved
        )
        # alpha_saved counts exactly the extra segments beyond one per
        # fused message — the k-1 message latencies each fusion removed.
        segments = res_f.total_stat("plan_fused_segments")
        messages = res_f.total_stat("plan_fused_messages")
        assert segments - messages == saved
        # With k=3 member schedules, no fused message carries more than 3
        # segments, and at least one pair appears in several schedules.
        assert messages < segments <= 3 * messages

    def test_plan_fuse_trace_events(self):
        def spmd(comm):
            _two_array_spmd(
                ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED,
                fused=True,
            )(comm)
            return None

        res = VirtualMachine(3, trace=True).run(spmd)
        fuse_events = [
            e for tr in res.traces for e in tr if e.kind == "plan:fuse"
        ]
        assert fuse_events, "no plan:fuse events recorded"
        assert all(e.nbytes > 0 for e in fuse_events)
        assert len(fuse_events) == res.total_stat("plan_fused_messages")

    def test_fused_move_wire_bytes(self):
        """k >= 2 keeps the fused wire: each message charges the 16 B
        envelope, 16 B per segment and the aligned segment data."""
        from repro.core.wire import (
            FUSED_HEADER_BYTES,
            SEGMENT_HEADER_BYTES,
            WireLayout,
        )

        def spmd(comm):
            arrays = []
            for glob, perm in ((G1, PERM1), (G2, PERM2)):
                A = BlockPartiArray.from_global(comm, glob)
                B = ChaosArray.zeros(comm, perm % comm.size, dtype=glob.dtype)
                sched = mc_compute_schedule(
                    comm, "blockparti", A, FULL, "chaos", B, index_sor(perm),
                )
                arrays.append((sched, A, B))
            plan = mc_compute_plan([s for s, _, _ in arrays])
            want = 0
            for d, program in plan.send_programs.items():
                if d == comm.rank:
                    continue
                headers = tuple(
                    SegmentHeader(
                        seg.schedule_id,
                        arrays[seg.schedule_id][1].local.dtype.str,
                        seg.count,
                    )
                    for seg in program
                )
                want += (
                    FUSED_HEADER_BYTES
                    + len(headers) * SEGMENT_HEADER_BYTES
                    + WireLayout(headers).total
                )
            sent = comm.process.stats.get("bytes_sent", 0)
            mc_copy_many(
                comm, plan, [a for _, a, _ in arrays],
                [b for _, _, b in arrays],
            )
            return comm.process.stats.get("bytes_sent", 0) - sent, want

        for sent, want in run_spmd(4, spmd).values:
            assert sent == want > 0

    def test_fused_wire_bytes_include_headers(self):
        """A fused message charges more than its raw payload (headers +
        padding) but less than payload plus two alphas' worth of waste."""
        h = (SegmentHeader(0, "<f8", 10), SegmentHeader(1, "<f4", 3))
        from repro.core.wire import (
            FUSED_HEADER_BYTES,
            SEGMENT_HEADER_BYTES,
            WireLayout,
        )

        total = WireLayout(h).total
        fused = FusedBuffer(h, np.zeros(total, dtype=np.uint8))
        raw = 10 * 8 + 3 * 4
        assert fused.nbytes >= raw
        assert fused.nbytes == (
            FUSED_HEADER_BYTES + 2 * SEGMENT_HEADER_BYTES + total
        )


# ---------------------------------------------------------------------------
# arena steady state (the regression the pool exists for)
# ---------------------------------------------------------------------------


class TestArenaSteadyState:
    def test_iterative_loop_allocates_only_on_first_iteration(self):
        iters = 10

        def spmd(comm):
            A = BlockPartiArray.from_global(comm, G1)
            B = ChaosArray.zeros(comm, PERM1 % comm.size)
            full = section_sor((slice(None), slice(None)), SHAPE)
            sched = mc_compute_schedule(
                comm, "blockparti", A, full,
                "chaos", B, index_sor(PERM1), ScheduleMethod.COOPERATION,
            )
            plan = mc_compute_plan([sched, sched])
            misses_per_iter = []
            for _ in range(iters):
                before = comm.process.stats.get("arena_misses", 0)
                mc_copy_many(comm, plan, [A, A], [B, B])
                # Barrier: every receiver has unpacked (and released) its
                # staging buffers before anyone starts the next iteration.
                comm.barrier()
                misses_per_iter.append(
                    comm.process.stats.get("arena_misses", 0) - before
                )
            return misses_per_iter, dict(comm.process.stats)

        res = run_spmd(4, spmd)
        for misses_per_iter, stats in res.values:
            assert misses_per_iter[0] > 0, "first iteration must allocate"
            assert all(m == 0 for m in misses_per_iter[1:]), (
                f"steady-state iterations allocated: {misses_per_iter}"
            )
            assert stats.get("arena_hits", 0) > 0
            assert stats.get("arena_bytes_reused", 0) > 0

    def test_high_water_bounded_by_first_iteration(self):
        def spmd(comm):
            A = BlockPartiArray.from_global(comm, G1)
            B = ChaosArray.zeros(comm, PERM1 % comm.size)
            full = section_sor((slice(None), slice(None)), SHAPE)
            sched = mc_compute_schedule(
                comm, "blockparti", A, full,
                "chaos", B, index_sor(PERM1), ScheduleMethod.COOPERATION,
            )
            # k = 2: a one-schedule plan travels the bare wire, arena-free
            plan = mc_compute_plan([sched, sched])
            mc_copy_many(comm, plan, [A, A], [B, B])
            comm.barrier()
            high1 = comm.process.stats.get("arena_high_water_bytes", 0)
            for _ in range(5):
                mc_copy_many(comm, plan, [A, A], [B, B])
                comm.barrier()
            return high1, comm.process.stats.get("arena_high_water_bytes", 0)

        for high1, high_final in run_spmd(3, spmd).values:
            assert high1 > 0
            assert high_final == high1


class TestCopyOnSend:
    def test_copy_on_send_mode_correct_and_bypasses_pool(self):
        vm = VirtualMachine(3, copy_on_send=True)
        got, stats = vm.run(
            _two_array_spmd(
                ScheduleMethod.COOPERATION, ExecutorPolicy.ORDERED,
                fused=True, trace_stats=True,
            )
        ).values[0]
        for out, want in zip(got, _expected()):
            np.testing.assert_array_equal(out, want)
        assert stats.get("arena_bypass", 0) > 0
        assert stats.get("arena_hits", 0) == 0


# ---------------------------------------------------------------------------
# reliability / chaos matrix
# ---------------------------------------------------------------------------


def _chaos_plan(seed):
    return FaultPlan(
        seed=seed,
        rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
    )


class TestChaosMatrix:
    @pytest.mark.parametrize("method", both_methods())
    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_fused_move_matches_oracle_under_chaos(self, method, policy):
        def spmd(comm):
            full = section_sor((slice(None), slice(None)), SHAPE)
            triples = []
            for glob, perm in [(G1, PERM1), (G2, PERM2)]:
                A = BlockPartiArray.from_global(comm, glob)
                B = ChaosArray.zeros(
                    comm, (perm * 3) % comm.size, dtype=glob.dtype
                )
                sched = mc_compute_schedule(
                    comm, "blockparti", A, full,
                    "chaos", B, index_sor(perm), method,
                )
                triples.append((sched, A, B))
            universe = SingleProgramUniverse(comm)
            universe.enable_reliability()
            mc_copy_many(
                universe,
                [s for s, _, _ in triples],
                [a for _, a, _ in triples],
                [b for _, _, b in triples],
                policy=policy,
            )
            return tuple(B.gather_global() for _, _, B in triples)

        vm = VirtualMachine(4, faults=_chaos_plan(seed=41), recv_timeout_s=30.0)
        got = vm.run(spmd).values[0]
        for out, (glob, perm) in zip(got, [(G1, PERM1), (G2, PERM2)]):
            want = oracle_copy(
                glob, section_sor((slice(None), slice(None)), SHAPE),
                np.zeros(N, dtype=glob.dtype), index_sor(perm),
            )
            np.testing.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# coupled programs: push_many / pull_many
# ---------------------------------------------------------------------------


def _coupled_many(psrc, pdst, policy, *, faults=None, pull_back=False):
    full = section_sor((slice(None), slice(None)), SHAPE)

    def src_prog(ctx):
        A1 = BlockPartiArray.from_global(ctx.comm, G1)
        A2 = BlockPartiArray.from_global(ctx.comm, G1 * 3.0)
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni, "blockparti", A1, full, "chaos", None, None,
            ScheduleMethod.COOPERATION,
        )
        ex = CoupledExchange(uni, sched, policy=policy, reliability=True)
        ex.push_many([A1, A2])
        if pull_back:
            R1 = BlockPartiArray.zeros(ctx.comm, SHAPE)
            R2 = BlockPartiArray.zeros(ctx.comm, SHAPE)
            ex.pull_many([R1, R2])
            return R1.gather_global(), R2.gather_global()
        return None

    def dst_prog(ctx):
        B1 = ChaosArray.zeros(ctx.comm, (PERM1 * 3) % ctx.comm.size)
        B2 = ChaosArray.zeros(ctx.comm, (PERM1 * 3) % ctx.comm.size)
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni, "blockparti", None, None, "chaos", B1, index_sor(PERM1),
            ScheduleMethod.COOPERATION,
        )
        ex = CoupledExchange(uni, sched, policy=policy, reliability=True)
        ex.push_many([B1, B2])
        out = B1.gather_global(), B2.gather_global()
        if pull_back:
            B1.local *= 2.0
            B2.local *= 2.0
            ex.pull_many([B1, B2])
        return out

    return run_programs(
        [ProgramSpec("srcp", psrc, src_prog),
         ProgramSpec("dstp", pdst, dst_prog)],
        faults=faults,
        recv_timeout_s=30.0,
    )


class TestCoupledMany:
    def _want(self):
        full = section_sor((slice(None), slice(None)), SHAPE)
        w1 = oracle_copy(G1, full, np.zeros(N), index_sor(PERM1))
        w2 = oracle_copy(G1 * 3.0, full, np.zeros(N), index_sor(PERM1))
        return w1, w2

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_push_many_delivers_both_fields(self, policy):
        res = _coupled_many(3, 2, policy)
        got1, got2 = res["dstp"].values[0]
        w1, w2 = self._want()
        np.testing.assert_array_equal(got1, w1)
        np.testing.assert_array_equal(got2, w2)

    def test_pull_many_returns_doubled_fields(self):
        res = _coupled_many(2, 3, ExecutorPolicy.ORDERED, pull_back=True)
        r1, r2 = res["srcp"].values[0]
        w1, w2 = self._want()
        # Destination doubled its fields, then sent them back along the
        # symmetric schedule: the source gets 2x what it pushed.
        np.testing.assert_array_equal(r1, _pullback_expected(w1))
        np.testing.assert_array_equal(r2, _pullback_expected(w2))

    def test_push_many_under_chaos(self):
        res = _coupled_many(
            3, 2, ExecutorPolicy.OVERLAP, faults=_chaos_plan(seed=7)
        )
        got1, got2 = res["dstp"].values[0]
        w1, w2 = self._want()
        np.testing.assert_array_equal(got1, w1)
        np.testing.assert_array_equal(got2, w2)

    @pytest.mark.parametrize("ksrc,kdst", [(2, 1), (1, 2)])
    def test_field_count_mismatch_fails_loudly(self, ksrc, kdst):
        """The wire form follows from k on each side, so programs that
        disagree on the field count are caught by the receiver."""
        from repro.vmachine import SPMDError

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, G1)
            uni = coupled_universe(ctx, "dstp", "src")
            sched = mc_compute_schedule(
                uni, "blockparti", A, FULL, "chaos", None, None,
            )
            CoupledExchange(uni, sched).push_many([A] * ksrc)

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, PERM1 % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            sched = mc_compute_schedule(
                uni, "blockparti", None, None, "chaos", B, index_sor(PERM1),
            )
            CoupledExchange(uni, sched).push_many([B] * kdst)

        with pytest.raises(SPMDError, match="plan mismatch"):
            run_programs(
                [ProgramSpec("srcp", 2, src_prog),
                 ProgramSpec("dstp", 2, dst_prog)]
            )

    def test_plan_cached_across_pushes(self):
        """Repeated exchanges reuse one compiled plan per (k, direction):
        the memo ``plan_of`` keeps on the schedule, shared with
        ``data_move*`` (whose plan is the k = 1 forward entry), and
        ``plan_memoised`` reads."""
        from repro.core.plan import plan_memoised, plan_of

        keys = [(1, False), (1, True), (2, False), (2, True)]

        def exchange_thrice(uni, sched, X):
            assert not any(plan_memoised(sched, k, r) for k, r in keys)
            ex = CoupledExchange(uni, sched)
            for _ in range(3):
                ex.push_many([X, X])
                ex.pull(X)
            ex.push(X)
            fwd = plan_of(sched)
            assert fwd is plan_of(sched, 1, False) and fwd.schedules == (sched,)
            back = plan_of(sched, 1, True)
            assert back.schedules[0].src_lib == sched.dst_lib
            # A second exchange over the same schedule shares the memo.
            CoupledExchange(uni, sched).push_many([X, X])
            assert [plan_memoised(sched, k, r) for k, r in keys] == [
                True, True, True, False]
            return sorted(sched._plans)

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, G1)
            uni = coupled_universe(ctx, "dstp", "src")
            full = section_sor((slice(None), slice(None)), SHAPE)
            sched = mc_compute_schedule(
                uni, "blockparti", A, full, "chaos", None, None,
                ScheduleMethod.COOPERATION,
            )
            return exchange_thrice(uni, sched, A)

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, PERM1 % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            sched = mc_compute_schedule(
                uni, "blockparti", None, None, "chaos", B, index_sor(PERM1),
                ScheduleMethod.COOPERATION,
            )
            return exchange_thrice(uni, sched, B)

        res = run_programs(
            [ProgramSpec("srcp", 2, src_prog), ProgramSpec("dstp", 2, dst_prog)]
        )
        expected = [(1, False), (1, True), (2, False)]
        assert all(keys == expected for keys in res["srcp"].values)
        assert all(keys == expected for keys in res["dstp"].values)


def _pullback_expected(pushed: np.ndarray) -> np.ndarray:
    """What the source gets back after the destination doubles and pulls:
    element k of the (full-section) source linearization receives 2x the
    destination element it fed."""
    out = np.zeros(SHAPE)
    out.reshape(-1)[...] = 2.0 * pushed[PERM1]
    return out
