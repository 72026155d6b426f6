"""Record/replay behaviour: chaos byte-identity, isolation, divergence,
replay handles, clock neutrality."""

import copy

import numpy as np
import pytest

from repro.replay import (
    Recorder,
    ReplayLogExhausted,
    diff_bodies,
    faultplan_to_dict,
    relaunch,
    replay_full,
    replay_rank,
    verify_artifact,
)
from repro.replay.workloads import build_workload, run_workload
from repro.vmachine import (CrashEvent, FaultPlan, FaultRates, ProgramSpec,
                            VirtualMachine, run_programs)
from repro.vmachine.machine import SPMDError


def _record(name, params, payloads=True):
    rec = Recorder(payloads=payloads)
    run_workload(name, params, rec)
    return rec.artifact


# ---------------------------------------------------------------------------
# full-fidelity replay under chaos (<=20% drop/dup/reorder/delay,
# reliability on) across ScheduleMethod x ExecutorPolicy
# ---------------------------------------------------------------------------


class TestChaosFullFidelity:
    @pytest.mark.parametrize("method", ["cooperation", "duplication"])
    @pytest.mark.parametrize("policy", ["ordered", "overlap"])
    def test_chaos_copy_replays_byte_identical(self, method, policy):
        art = _record("copy", {
            "procs": 3, "seed": 17, "method": method, "policy": policy,
        }, payloads=False)
        report = replay_full(art)
        assert report.identical, report.summary()
        assert report.ranks_compared == 3

    def test_coupled_chaos_replays_byte_identical(self):
        art = _record("coupled", {"psrc": 3, "pdst": 2, "seed": 5},
                      payloads=False)
        report = replay_full(art)
        assert report.identical, report.summary()
        assert report.ranks_compared == 5


# ---------------------------------------------------------------------------
# single-rank isolation replay
# ---------------------------------------------------------------------------


def _collective_workload(comm):
    """P-rank SPMD exercising barrier/bcast/allreduce/point-to-point —
    the trace shape the isolation replayer must reproduce exactly."""
    comm.barrier()
    seeded = comm.bcast(np.arange(16.0) if comm.rank == 0 else None, root=0)
    local = float(seeded.sum()) * (comm.rank + 1)
    total = comm.allreduce(local, lambda a, b: a + b)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, np.full(4, comm.rank, dtype=np.float64), tag=9)
    got = comm.recv(left, tag=9)
    return total + float(got.sum())


class TestIsolationReplay:
    def test_p16_rank_trace_reproduced_exactly(self):
        rec = Recorder(payloads=True)
        vm = VirtualMachine(16, recorder=rec)
        res = vm.run(_collective_workload)
        art = rec.artifact
        assert len(art["body"]["ranks"]) == 16
        for rank in (0, 7, 15):
            report = replay_rank(art, rank, fn=_collective_workload)
            assert report.identical, report.summary()
            # byte-identical means: same trace tuples, same final clock,
            # same sends, same value digest — all checked by diff_bodies.
        assert res.values[0] == pytest.approx(res.values[0])

    def test_chaos_rank_isolation_through_reliability(self):
        # Probe-stream service must survive the reliability layer's
        # while-probe ack/backlog drains.
        art = _record("copy", {"procs": 4, "seed": 31})
        for rank in range(4):
            report = replay_rank(art, rank)
            assert report.identical, f"rank {rank}: {report.summary()}"

    def test_coupled_rank_isolation(self):
        art = _record("coupled", {"psrc": 2, "pdst": 2, "seed": 8})
        for rank in range(4):  # srcp is 0-1, dstp 2-3: addressed globally
            report = replay_rank(art, rank)
            assert report.identical, f"rank {rank}: {report.summary()}"

    def test_isolation_requires_payload_capture(self):
        art = _record("copy", {"procs": 3, "seed": 1}, payloads=False)
        with pytest.raises(ValueError, match="payload"):
            replay_rank(art, 0)

    def test_wrong_workload_is_flagged_not_hung(self):
        art = _record("copy", {"procs": 3, "seed": 1})

        def other(comm):  # consumes more messages than recorded
            for _ in range(3):
                comm.barrier()
            comm.send((comm.rank + 1) % comm.size, b"x", tag=2)
            return comm.recv((comm.rank - 1) % comm.size, tag=2)

        report = replay_rank(art, 0, fn=other)
        assert not report.identical


# ---------------------------------------------------------------------------
# divergence reporting
# ---------------------------------------------------------------------------


class TestDivergenceLocalization:
    def _artifact(self):
        return _record("copy", {"procs": 3, "seed": 17}, payloads=False)

    def test_identical_bodies_no_divergence(self):
        body = self._artifact()["body"]
        assert diff_bodies(body, copy.deepcopy(body)) == []

    def test_tampered_send_digest_names_rank_channel_seq(self):
        body = self._artifact()["body"]
        mutated = copy.deepcopy(body)
        # Corrupt one send record's payload digest on rank 1.
        sends = mutated["ranks"][1]["sends"]
        sends["digest"][4] = "deadbeefdeadbeef"
        divs = diff_bodies(body, mutated)
        assert divs, "tamper not detected"
        d = next(d for d in divs if d.kind == "send")
        assert d.rank == 1
        assert d.channel[0] == 1  # send channel starts at the sender
        assert d.seq == sends["seq"][4]
        assert d.field == "digest"
        assert "channel" in str(d) and "seq" in str(d)

    def test_tampered_clock_flagged(self):
        body = self._artifact()["body"]
        mutated = copy.deepcopy(body)
        mutated["ranks"][2]["clock"] += 1e-9
        divs = diff_bodies(body, mutated)
        assert any(d.kind == "clock" and d.rank == 2 for d in divs)

    def test_tampered_probe_stream_flagged(self):
        body = self._artifact()["body"]
        mutated = copy.deepcopy(body)
        probes = mutated["ranks"][0]["probes"]
        if not probes:
            pytest.skip("workload recorded no probes on rank 0")
        i = len(probes) // 2
        mutated["ranks"][0]["probes"] = (
            probes[:i] + ("0" if probes[i] == "1" else "1") + probes[i + 1:]
        )
        divs = diff_bodies(body, mutated)
        assert any(d.kind == "probe" and d.rank == 0 and d.seq == i
                   for d in divs)

    def test_missing_message_is_count_divergence(self):
        body = self._artifact()["body"]
        mutated = copy.deepcopy(body)
        for column in mutated["ranks"][0]["recvs"].values():
            del column[-1]
        divs = diff_bodies(body, mutated)
        assert any(d.kind == "recv" for d in divs)


# ---------------------------------------------------------------------------
# replay handles on results and failures (recording off)
# ---------------------------------------------------------------------------


class TestReplayHandle:
    def test_result_carries_handle_without_recording(self):
        plan = build_workload("copy", {"procs": 3, "seed": 9})
        res = VirtualMachine(
            3, faults=plan["fault_plan"], **plan["vm_kwargs"]
        ).run(plan["fn"])
        h = res.replay
        assert set(h) == {"config", "fault_plan"}
        assert h["config"]["nprocs"] == 3
        assert h["config"]["profile"] == "IBM-SP2/MPL"
        assert h["fault_plan"]["seed"] == 9
        assert h["fault_plan"] == faultplan_to_dict(plan["fault_plan"])

    def test_fault_free_run_has_null_seed(self):
        res = VirtualMachine(2).run(lambda comm: comm.rank)
        assert res.replay["fault_plan"] is None

    def test_spmderror_carries_handle(self):
        def boom(comm):
            if comm.rank == 1:
                raise RuntimeError("injected")
            return comm.rank

        with pytest.raises(SPMDError) as ei:
            VirtualMachine(3, recv_timeout_s=10.0).run(boom)
        h = ei.value.replay_handle["config"]
        assert h["nprocs"] == 3 and h["profile"] == "IBM-SP2/MPL"

    def test_leak_error_carries_handle(self):
        def leaky(comm):
            if comm.rank == 0:
                comm.send(1, b"never consumed", tag=3)
            return None

        with pytest.raises(SPMDError) as ei:
            VirtualMachine(2).run(leaky)
        assert ei.value.replay_handle["config"]["nprocs"] == 2

    def test_coupled_results_carry_handle_with_programs(self):
        art_rec = Recorder(payloads=False)
        res = run_workload("coupled", {"psrc": 2, "pdst": 2, "seed": 3},
                           art_rec)
        h = res["srcp"].replay
        assert set(h) == {"config", "fault_plan"}
        assert h["config"]["programs"] == [["srcp", 2], ["dstp", 2]]
        assert h["config"]["nprocs"] == 4
        assert h["fault_plan"]["seed"] == 3

    def test_a_failure_is_re_recorded_from_its_handle(self):
        """The handle of a run that failed with recording off is enough to
        record it: the re-recording is of the run the handle names, and it
        replays identically in full and rank by rank."""
        plan = FaultPlan(seed=4, rates=FaultRates(delay=0.5),
                         classes=("user", "collective"),
                         crashes=[CrashEvent(rank=1, after_sends=3)])
        with pytest.raises(SPMDError) as ei:
            VirtualMachine(3, faults=plan, recv_timeout_s=60.0).run(
                _collective_workload)
        handle = ei.value.replay_handle
        rec = Recorder(payloads=True)
        error = relaunch(handle, rec, fn=_collective_workload)
        assert error is not None and "SimulatedCrash" in str(error)
        art = rec.artifact
        assert art["body"]["config"] == handle["config"]
        assert art["body"]["fault_plan"] == handle["fault_plan"]
        assert art["body"]["error"] is not None
        assert verify_artifact(art) == []
        full = replay_full(art, fn=_collective_workload)
        assert full.identical, full.summary()
        for rank in range(3):
            report = replay_rank(art, rank, fn=_collective_workload)
            assert report.identical, f"rank {rank}: {report.summary()}"

    def test_changing_the_handle_leaves_the_artifact_sealed(self):
        rec = Recorder(payloads=False)
        res = run_workload("coupled", {"psrc": 2, "pdst": 2, "seed": 3}, rec)
        h = res["srcp"].replay
        h["config"]["nprocs"] = 99
        h["config"]["programs"][0][1] = 3
        h["fault_plan"]["seed"] += 1
        h["fault_plan"]["rules"][0]["classes"].append("user")
        assert verify_artifact(rec.artifact) == []


# ---------------------------------------------------------------------------
# recording must not perturb the run
# ---------------------------------------------------------------------------


class TestRecordingNeutrality:
    def _run(self, recorder):
        plan = build_workload("copy", {"procs": 3, "seed": 17})
        vm = VirtualMachine(3, faults=plan["fault_plan"], trace=True,
                            recorder=recorder, **plan["vm_kwargs"])
        res = vm.run(plan["fn"])
        events = [
            [(e.kind, e.time, e.rank, e.peer, e.tag, e.nbytes, e.wait)
             for e in tr]
            for tr in res.traces
        ]
        return res.clocks, events, res.values[0]

    def test_zero_logical_clock_charge(self):
        clocks_off, events_off, val_off = self._run(None)
        clocks_on, events_on, val_on = self._run(Recorder(payloads=True))
        assert clocks_off == clocks_on
        assert events_off == events_on
        np.testing.assert_array_equal(val_off, val_on)


# ---------------------------------------------------------------------------
# log-exhaustion semantics
# ---------------------------------------------------------------------------


class TestLogExhaustion:
    def test_exhaustion_is_not_rank_lost(self):
        from repro.vmachine.faults import RankLostError

        # Must NOT subclass RankLostError: the coupling layer downgrades
        # rank loss to peer-loss degradation, which would swallow replay
        # divergences instead of reporting them.
        assert not issubclass(ReplayLogExhausted, RankLostError)
        assert issubclass(ReplayLogExhausted, RuntimeError)


# ---------------------------------------------------------------------------
# a run setting the artifact records is a setting replay rebuilds
# ---------------------------------------------------------------------------


def _orphan(comm):
    if comm.rank == 0:
        comm.send(1, b"never consumed", tag=3)


_ORPHAN_SPECS = [ProgramSpec("only", 2, lambda ctx: _orphan(ctx.comm))]

#: artifact kind -> (run it with these settings, how replay re-runs it)
_ORPHAN_RUNS = {
    "vm": (lambda **kw: VirtualMachine(2, **kw).run(_orphan),
           {"fn": _orphan}),
    "programs": (lambda **kw: run_programs(_ORPHAN_SPECS, **kw),
                 {"specs": _ORPHAN_SPECS}),
}


class TestLeakSettingIsReplayed:
    def _record(self, kind, check_leaks):
        run, rerun = _ORPHAN_RUNS[kind]
        rec = Recorder()
        if check_leaks:
            with pytest.raises(SPMDError, match="1 message"):
                run(check_leaks=True, recorder=rec)
        else:
            run(check_leaks=False, recorder=rec)
        body = rec.artifact["body"]
        assert body["kind"] == kind
        assert body["config"]["check_leaks"] is check_leaks
        assert (body["error"] is not None) == check_leaks
        return rec.artifact, rerun

    @pytest.mark.parametrize("kind", ["vm", "programs"])
    def test_unchecked_orphan_send_replays_identical(self, kind):
        art, rerun = self._record(kind, check_leaks=False)
        report = replay_full(art, **rerun)
        assert report.identical, report.summary()

    @pytest.mark.parametrize("kind", ["vm", "programs"])
    def test_checked_orphan_send_refails_identically(self, kind):
        art, rerun = self._record(kind, check_leaks=True)
        report = replay_full(art, **rerun)
        assert report.identical, report.summary()
