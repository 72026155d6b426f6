"""Schedule-construction tests: both methods, structure, invariants."""

import time

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import ScheduleMethod, mc_compute_schedule
from repro.core import group_by_runs
from repro.core.coupling import coupled_universe
from repro.core.schedule import chunk_ranges
from repro.hpf import HPFArray
from repro.vmachine import ProgramSpec, VirtualMachine, run_programs
from repro.vmachine.machine import SPMDError

from helpers import both_methods, index_sor, run_spmd, section_sor


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_goes_to_early_chunks(self):
        assert chunk_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_elements(self):
        ranges = chunk_ranges(2, 4)
        assert ranges == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_elements(self):
        assert chunk_ranges(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    def test_covers_range_exactly(self):
        for n in (0, 1, 7, 100):
            for p in (1, 3, 8):
                ranges = chunk_ranges(n, p)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (a, b), (c, d) in zip(ranges, ranges[1:]):
                    assert b == c


class TestGroupBy:
    def test_groups_preserve_order(self):
        keys = np.array([2, 0, 2, 1, 0])
        vals = np.array([10, 20, 30, 40, 50])
        groups = group_by_runs(keys, vals)
        np.testing.assert_array_equal(groups[2], [10, 30])
        np.testing.assert_array_equal(groups[0], [20, 50])
        np.testing.assert_array_equal(groups[1], [40])

    def test_empty(self):
        assert group_by_runs(np.zeros(0, dtype=int), np.zeros(0, dtype=int)) == {}

    def test_only_nonempty_groups(self):
        groups = group_by_runs(np.array([3, 3]), np.array([1, 2]))
        assert set(groups) == {3}


class TestScheduleStructure:
    def _build(self, comm, method):
        A = BlockPartiArray.zeros(comm, (12, 12))
        B = ChaosArray.zeros(comm, np.arange(60) % comm.size)
        src = section_sor((slice(0, 6), slice(0, 10)), (12, 12))
        dst = index_sor(np.random.default_rng(0).permutation(60))
        return mc_compute_schedule(comm, "blockparti", A, src, "chaos", B, dst, method)

    @pytest.mark.parametrize("method", both_methods())
    def test_counts_partition_elements(self, method):
        def spmd(comm):
            sched = self._build(comm, method)
            return (sched.send_count, sched.recv_count)

        res = run_spmd(4, spmd)
        assert sum(v[0] for v in res.values) == 60
        assert sum(v[1] for v in res.values) == 60

    @pytest.mark.parametrize("method", both_methods())
    def test_sends_and_recvs_pair_up(self, method):
        def spmd(comm):
            sched = self._build(comm, method)
            sends = {d: len(v) for d, v in sched.sends.items() if len(v)}
            recvs = {s: len(v) for s, v in sched.recvs.items() if len(v)}
            return comm.gather((sends, recvs))

        res = run_spmd(3, spmd)
        pieces = res.values[0]
        for p, (sends, _) in enumerate(pieces):
            for d, n in sends.items():
                assert pieces[d][1][p] == n, f"pair ({p},{d}) count mismatch"

    def test_methods_produce_identical_schedules(self):
        def spmd(comm):
            coop = self._build(comm, ScheduleMethod.COOPERATION)
            dup = self._build(comm, ScheduleMethod.DUPLICATION)
            assert set(coop.sends) == set(dup.sends)
            assert set(coop.recvs) == set(dup.recvs)
            for d in coop.sends:
                np.testing.assert_array_equal(coop.sends[d], dup.sends[d])
            for s in coop.recvs:
                np.testing.assert_array_equal(coop.recvs[s], dup.recvs[s])
            return True

        assert all(run_spmd(4, spmd).values)

    def test_reverse_swaps_halves(self):
        def spmd(comm):
            sched = self._build(comm, ScheduleMethod.COOPERATION)
            rev = sched.reverse()
            assert rev.src_lib == "chaos" and rev.dst_lib == "blockparti"
            assert rev.sends.keys() == sched.recvs.keys()
            assert rev.recvs.keys() == sched.sends.keys()
            assert rev.n_elements == sched.n_elements
            return True

        assert all(run_spmd(2, spmd).values)

    def test_message_partners_sorted_nonempty(self):
        def spmd(comm):
            sched = self._build(comm, ScheduleMethod.COOPERATION)
            dests, sources = sched.message_partners()
            assert dests == sorted(dests)
            assert all(len(sched.sends[d]) for d in dests)
            return True

        assert all(run_spmd(3, spmd).values)

    def test_conformance_error(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (4, 4))
            B = ChaosArray.zeros(comm, np.arange(10) % comm.size)
            mc_compute_schedule(
                comm,
                "blockparti", A, section_sor((slice(0, 4), slice(0, 4)), (4, 4)),
                "chaos", B, index_sor(np.arange(10)),
            )

        with pytest.raises(SPMDError, match="16 elements .* 10"):
            run_spmd(2, spmd)


class TestCostShape:
    """The cost relationships the paper's tables rest on."""

    def _timed_build(self, comm, method, n=64):
        proc = comm.process
        A = BlockPartiArray.zeros(comm, (n, n))
        B = ChaosArray.zeros(comm, np.arange(n * n) % comm.size)
        src = section_sor((slice(0, n), slice(0, n)), (n, n))
        dst = index_sor(np.random.default_rng(1).permutation(n * n))
        t0 = proc.clock
        mc_compute_schedule(comm, "blockparti", A, src, "chaos", B, dst, method)
        return proc.clock - t0

    def test_duplication_costs_about_twice_cooperation(self):
        """Paper §5.1: duplication calls the Chaos dereference twice."""

        def spmd(comm):
            coop = self._timed_build(comm, ScheduleMethod.COOPERATION)
            dup = self._timed_build(comm, ScheduleMethod.DUPLICATION)
            return dup / coop

        res = run_spmd(4, spmd)
        for ratio in res.values:
            assert 1.4 < ratio < 3.0

    def test_build_time_scales_down_with_processors(self):
        def spmd(comm):
            return self._timed_build(comm, ScheduleMethod.COOPERATION)

        t2 = max(run_spmd(2, spmd).values)
        t8 = max(run_spmd(8, spmd).values)
        assert t8 < t2 / 2

    def test_regular_regular_build_is_far_cheaper(self):
        """Paper Table 5 vs Table 2: no translation-table lookups."""

        def spmd_rr(comm):
            proc = comm.process
            A = BlockPartiArray.zeros(comm, (64, 64))
            B = HPFArray.distribute(comm, (64, 64), ("block", "block"))
            sor = section_sor((slice(0, 64), slice(0, 64)), (64, 64))
            t0 = proc.clock
            mc_compute_schedule(comm, "blockparti", A, sor, "hpf", B, sor)
            return proc.clock - t0

        def spmd_ri(comm):
            return self._timed_build(comm, ScheduleMethod.COOPERATION)

        t_rr = max(run_spmd(4, spmd_rr).values)
        t_ri = max(run_spmd(4, spmd_ri).values)
        assert t_ri > 20 * t_rr


class TestGroupSizeValidation:
    def test_mismatched_distribution_rejected(self):
        """A structure distributed over fewer ranks than the group."""

        def spmd(comm):
            sub = comm.split(color=0 if comm.rank < 2 else 1)
            if comm.rank < 2:
                A = BlockPartiArray.zeros(sub, (8, 8))  # spans 2 procs
                # ... but the schedule is (wrongly) built on the world comm
                mc_compute_schedule(
                    comm,
                    "blockparti", A,
                    section_sor((slice(0, 8), slice(0, 8)), (8, 8)),
                    "blockparti", A,
                    section_sor((slice(0, 8), slice(0, 8)), (8, 8)),
                )
            else:
                # these ranks never get far enough to participate; the
                # failure on ranks 0-1 aborts the machine
                comm.recv(0, tag=12345)

        with pytest.raises(SPMDError, match="distributed over 2 processors"):
            run_spmd(4, spmd)


class TestRegionMustFitItsStructure:
    """A region naming an element its structure does not have is refused
    on every rank before the first exchange — not discovered by whichever
    rank's linearization chunk holds the bad element while the others
    wait on it."""

    BAD = np.array([0, 5, 99])  # over 16 elements

    @staticmethod
    def _failure(run):
        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            run()
        assert time.monotonic() - t0 < 5.0  # recv_timeout_s is 30 below
        text = str(ei.value)
        assert "TimeoutError" not in text
        assert "delivered but never received" not in text
        return ei.value.errors

    @pytest.mark.parametrize("policy", ["ordered", "overlap"])
    @pytest.mark.parametrize("method", both_methods())
    def test_single_program_fails_alike_on_every_rank(self, method, policy):
        def spmd(comm):
            owners = np.arange(16) % comm.size
            X = ChaosArray.zeros(comm, owners)
            Y = ChaosArray.zeros(comm, owners)
            mc_compute_schedule(
                comm, "chaos", X, index_sor(self.BAD),
                "chaos", Y, index_sor(np.array([1, 2, 3])),
                method, policy=policy,
            )

        errors = self._failure(
            lambda: VirtualMachine(4, recv_timeout_s=30.0).run(spmd)
        )
        assert [e.rank for e in errors] == [0, 1, 2, 3]
        messages = {str(e.exception) for e in errors}
        assert all(type(e.exception) is ValueError for e in errors)
        assert len(messages) == 1
        (message,) = messages
        assert "IndexRegion(n=3)" in message
        assert "index 99" in message and "(16,)" in message

    def test_section_outside_a_regular_structure(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (4, 4))
            B = BlockPartiArray.zeros(comm, (4, 6))
            sor = section_sor((slice(0, 4), slice(2, 6)), (4, 6))
            mc_compute_schedule(comm, "blockparti", A, sor, "blockparti", B, sor)

        errors = self._failure(
            lambda: VirtualMachine(2, recv_timeout_s=30.0).run(spmd)
        )
        assert all(type(e.exception) is ValueError for e in errors)
        assert "index (3, 5)" in str(errors[0].exception)
        assert "shape (4, 4)" in str(errors[0].exception)

    @pytest.mark.parametrize("bad_side", ["src", "dst"])
    def test_two_programs_both_fail_loudly(self, bad_side):
        good = np.array([1, 2, 3])

        def src_prog(ctx):
            X = ChaosArray.zeros(ctx.comm, np.arange(16) % ctx.comm.size)
            mc_compute_schedule(
                coupled_universe(ctx, "dstp", "src"),
                "chaos", X, index_sor(self.BAD if bad_side == "src" else good),
                "chaos", None, None,
            )

        def dst_prog(ctx):
            Y = ChaosArray.zeros(ctx.comm, np.arange(16) % ctx.comm.size)
            mc_compute_schedule(
                coupled_universe(ctx, "srcp", "dst"),
                "chaos", None, None,
                "chaos", Y, index_sor(self.BAD if bad_side == "dst" else good),
            )

        errors = self._failure(lambda: run_programs(
            [ProgramSpec("srcp", 2, src_prog), ProgramSpec("dstp", 2, dst_prog)],
            recv_timeout_s=30.0,
        ))
        by_rank = {e.rank: e.exception for e in errors}  # srcp = 0,1; dstp = 2,3
        bad, peer0 = ((0, 1), 2) if bad_side == "src" else ((2, 3), 0)
        for rank in bad:
            assert type(by_rank[rank]) is ValueError
            assert "index 99" in str(by_rank[rank])
        assert type(by_rank[peer0]) is ValueError
        assert "peer program" in str(by_rank[peer0])


class TestRunCompressedSchedules:
    """The tentpole: halves are immutable, run-compressed RunLists."""

    def _regular(self, comm):
        A = BlockPartiArray.zeros(comm, (64, 64))
        B = BlockPartiArray.zeros(comm, (64, 64))
        src = section_sor((slice(0, 32), slice(0, 64)), (64, 64))
        dst = section_sor((slice(32, 64), slice(0, 64)), (64, 64))
        return mc_compute_schedule(comm, "blockparti", A, src, "blockparti", B, dst)

    def test_halves_are_runlists(self):
        from repro.core import RunList

        def spmd(comm):
            sched = self._regular(comm)
            return all(
                isinstance(v, RunList)
                for v in list(sched.sends.values()) + list(sched.recvs.values())
            )

        assert all(run_spmd(4, spmd).values)

    def test_regular_schedule_is_layout_sized(self):
        def spmd(comm):
            sched = self._regular(comm)
            return (sched.nbytes_memory, sched.nbytes_dense)

        for mem, dense in run_spmd(4, spmd).values:
            assert dense == 0 or mem < dense / 5  # >= 5x reduction per rank

    def test_dense_accessor_matches(self):
        def spmd(comm):
            sched = self._regular(comm)
            d = sched.dense()
            ok = set(d.sends) == set(sched.sends) and set(d.recvs) == set(sched.recvs)
            for k in sched.sends:
                ok &= isinstance(d.sends[k], np.ndarray)
                ok &= bool(np.array_equal(d.sends[k], np.asarray(sched.sends[k])))
            for k in sched.recvs:
                ok &= bool(np.array_equal(d.recvs[k], np.asarray(sched.recvs[k])))
            return ok

        assert all(run_spmd(4, spmd).values)

    def test_halves_immutable_and_reverse_shares_safely(self):
        """Satellite regression: reverse() used to alias writable arrays —
        mutating one schedule silently corrupted the other.  Halves are
        now immutable; mutation attempts raise on either view."""

        def spmd(comm):
            sched = self._regular(comm)
            rev = sched.reverse()
            raised = 0
            for half in (sched.sends, sched.recvs, rev.sends, rev.recvs):
                for offs in half.values():
                    if not len(offs):
                        continue
                    try:
                        offs[0] = 12345
                    except (TypeError, ValueError):
                        raised += 1
                    try:
                        offs.dense()[0] = 12345
                    except ValueError:
                        raised += 1
            # And the reverse still mirrors the forward structure.
            ok = rev.sends.keys() == sched.recvs.keys()
            for k in rev.sends:
                ok &= bool(np.array_equal(np.asarray(rev.sends[k]),
                                          np.asarray(sched.recvs[k])))
            return ok and raised > 0

        assert all(run_spmd(4, spmd).values)

    def test_dense_input_auto_compressed(self):
        from repro.core import CommSchedule, RunList

        sched = CommSchedule(
            "hpf", "hpf", 10, 2, 2, ScheduleMethod.COOPERATION,
            sends={1: np.arange(10)}, recvs={0: np.arange(0, 30, 3)},
        )
        assert isinstance(sched.sends[1], RunList)
        assert sched.sends[1].nruns == 1
        assert isinstance(sched.recvs[0], RunList)

    def test_run_and_dense_paths_same_clock_and_result(self):
        """The fast path is wall-clock only: executing a schedule through
        RunList halves and through dense halves must charge identical
        logical time and produce identical data.  Two deterministic VM
        runs, same workload, differing only in the halves' representation."""
        from repro.core import mc_copy

        GA = np.random.default_rng(21).random((64, 64))

        def make_spmd(dense):
            def spmd(comm):
                A = BlockPartiArray.from_global(comm, GA)
                B = BlockPartiArray.zeros(comm, (64, 64))
                src = section_sor((slice(0, 32), slice(0, 64)), (64, 64))
                dst = section_sor((slice(32, 64), slice(0, 64)), (64, 64))
                sched = mc_compute_schedule(
                    comm, "blockparti", A, src, "blockparti", B, dst
                )
                if dense:
                    sched = sched.dense()
                for _ in range(3):
                    mc_copy(comm, sched, A, B)
                return comm.process.clock, B.gather_global()

            return spmd

        run_res = run_spmd(4, make_spmd(dense=False)).values
        dense_res = run_spmd(4, make_spmd(dense=True)).values
        for (run_t, got_run), (dense_t, got_dense) in zip(run_res, dense_res):
            assert run_t == dense_t  # identical simulated physics, per rank
            np.testing.assert_array_equal(got_run, got_dense)


class TestScheduleStats:
    """CommSchedule.stats(): the per-peer summary the plan compiler,
    plan:fuse trace events, and the plan-summary CLI all consume."""

    def _sched(self, comm):
        A = BlockPartiArray.from_function(
            comm, (8, 8), lambda i, j: i * 8.0 + j
        )
        perm = np.random.default_rng(3).permutation(64)
        B = ChaosArray.zeros(comm, perm % comm.size)
        return mc_compute_schedule(
            comm, "blockparti", A, section_sor((slice(0, 8), slice(0, 8)), (8, 8)),
            "chaos", B, index_sor(perm),
        ), A, B

    def test_counts_match_halves(self):
        def spmd(comm):
            sched, _, _ = self._sched(comm)
            st = sched.stats()
            assert st.send_elements == {
                d: len(v) for d, v in sched.sends.items() if len(v)
            }
            assert st.recv_elements == {
                s: len(v) for s, v in sched.recvs.items() if len(v)
            }
            assert st.send_fanout == len(st.send_elements)
            assert st.recv_fanout == len(st.recv_elements)
            assert st.total_send_elements == sum(st.send_elements.values())
            return None

        run_spmd(4, spmd)

    def test_bytes_scale_with_itemsize(self):
        def spmd(comm):
            sched, _, _ = self._sched(comm)
            st8 = sched.stats()           # default doubles
            st4 = sched.stats(itemsize=4)
            assert st8.itemsize == 8 and st4.itemsize == 4
            for d, n in st8.send_elements.items():
                assert st8.send_bytes[d] == 8 * n
                assert st4.send_bytes[d] == 4 * n
            return None

        run_spmd(4, spmd)

    def test_empty_peers_omitted_and_runs_positive(self):
        def spmd(comm):
            sched, _, _ = self._sched(comm)
            st = sched.stats()
            assert all(n > 0 for n in st.send_elements.values())
            assert all(n > 0 for n in st.recv_elements.values())
            # Every nonempty half needs at least one run to encode.
            assert all(r >= 1 for r in st.send_runs.values())
            assert all(r >= 1 for r in st.recv_runs.values())
            return None

        run_spmd(4, spmd)

    def test_stats_charges_no_logical_time(self):
        def spmd(comm):
            sched, _, _ = self._sched(comm)
            before = comm.process.clock
            for _ in range(10):
                sched.stats()
            return comm.process.clock - before

        assert all(dt == 0.0 for dt in run_spmd(4, spmd).values)

    def test_global_totals_balance(self):
        """Summed across ranks, sent elements == received elements."""
        def spmd(comm):
            sched, _, _ = self._sched(comm)
            st = sched.stats()
            return st.total_send_elements, sum(st.recv_elements.values())

        vals = run_spmd(4, spmd).values
        assert sum(v[0] for v in vals) == sum(v[1] for v in vals) == 64
