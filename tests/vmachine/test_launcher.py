"""The one launcher: ``VirtualMachine.run``, ``run_programs`` and isolation
replay are the same launch (``VirtualMachine._launch``).

``run`` is the launch of one *world* program, so it must agree with a
one-program ``run_programs`` in everything but the communicator's context
block (0 vs 1); both entry points take the same run settings; a failing
rank is handled the same way whichever way its thread was started; and a
rank started alone against its recorded log re-derives its recording.
"""

import inspect
import threading

import numpy as np
import pytest

from repro.replay import Recorder, replay_full, replay_rank
from repro.replay.artifact import RecvRecord, new_stream
from repro.replay.replayer import _LogMailbox, _SinkBox
from repro.replay.workloads import build_workload
from repro.vmachine import (ALPHA_FARM_ATM, CrashEvent, FaultPlan, FaultRates,
                            ProgramSpec, RankLostError, VirtualMachine,
                            run_programs)
from repro.vmachine.comm import _SPLIT_BLOCK_BASE, CONTEXT_STRIDE
from repro.vmachine.machine import SPMDError

from tests.vmachine.test_transport_identity import exercise, norm


pytestmark = pytest.mark.usefixtures("clean_repro_env")


# -- (a) run(fn) is the one-program case of run_programs ---------------------

#: name -> (settings, Reliability on?); the window epoch of ``exercise``
#: rides the reliable layer, so an ``rma``-class fault plan is survivable
VARIANTS = {
    "plain": (lambda: {}, False),
    "trace": (lambda: {"trace": True}, False),
    "observe": (lambda: {"observe": True}, False),
    "recorder": (lambda: {"recorder": Recorder(payloads=True)}, False),
    "faults+reliability": (lambda: {"trace": True, "faults": FaultPlan(
        seed=11, classes=("rma",),
        rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2))}, True),
    "copy_on_send": (lambda: {"copy_on_send": True}, False),
}


def in_world_block(event, block_shift):
    """An event's tag with a program's context block mapped onto the
    world's.  Only message endpoints and fault rulings carry wire tags
    (annotations such as ``rma:put`` carry the caller's tag), and a split
    communicator hashes its parent's block, so only its offset compares."""
    block, offset = divmod(event.tag, CONTEXT_STRIDE)
    if block >= _SPLIT_BLOCK_BASE:
        return ("split", offset)
    if event.kind in ("send", "recv") or event.kind.startswith("fault:"):
        block -= block_shift
    return (block, offset)


def seen(res, block_shift):
    """Everything a run reports, arena counters aside (which thread
    returns a lease is host scheduling)."""
    return {
        "clocks": res.clocks,
        "values": [norm(v[1:]) for v in res.values],
        "counters": [{k: v for k, v in s.items() if not k.startswith("arena_")}
                     for s in res.stats],
        "spans": res.spans,
        "terms": [snap.terms for snap in res.metrics],
        "traces": [[(e.kind, e.time, e.rank, e.peer,
                     in_world_block(e, block_shift),
                     e.nbytes, e.wait, e.phase) for e in trace]
                   for trace in res.traces],
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_is_the_one_program_case_of_run_programs(variant):
    make, reliable = VARIANTS[variant]
    as_world, as_program = make(), make()
    world = VirtualMachine(4, **as_world).run(exercise, reliable)
    only = run_programs(
        [ProgramSpec("only", 4, lambda ctx: exercise(ctx.comm, reliable))],
        **as_program,
    )["only"]
    assert seen(only, 1) == seen(world, 0)
    if as_world.get("trace") or as_world.get("observe"):
        assert all(world.traces)
    if as_world.get("faults"):
        assert world.total_stat("rel_retransmits") > 0, "the plan must bite"
    if "recorder" in as_world:
        a = as_world["recorder"].artifact["body"]
        b = as_program["recorder"].artifact["body"]
        assert (a["kind"], a["config"]["programs"]) == ("vm", None)
        assert (b["kind"], b["config"]["programs"]) == \
            ("programs", [["only", 4]])
        for ours, theirs in zip(a["ranks"], b["ranks"]):
            assert [ours[k] for k in ("clock", "value", "probes")] == \
                [theirs[k] for k in ("clock", "value", "probes")]
            # every send column but the tag (it carries the context block)
            assert {**ours["sends"], "tag": None} == \
                {**theirs["sends"], "tag": None}


def test_thread_names_are_kept():
    def name(_):
        return threading.current_thread().name

    assert VirtualMachine(2).run(name).values == ["vproc-0", "vproc-1"]
    res = run_programs([ProgramSpec("a", 1, name), ProgramSpec("b", 2, name)])
    assert res["a"].values + res["b"].values == ["a-0", "b-0", "b-1"]


# -- (b) both entry points take the machine's settings -----------------------

_PLAN = FaultPlan(seed=3, slowdown={0: 2.0, 1: 2.0, 2: 2.0})

#: setting -> (a non-default value, what it does to every Process)
SETTINGS = {
    "profile": (ALPHA_FARM_ATM,
                lambda proc: proc.cost.profile is ALPHA_FARM_ATM),
    "trace": (True, lambda proc: proc.trace is not None),
    # nothing on the Process: the orphan message below does not fail the run
    "check_leaks": (False, lambda proc: True),
    "recv_timeout_s": (7.5, lambda proc: proc.recv_timeout_s == 7.5),
    "copy_on_send": (True, lambda proc: proc.copy_on_send is True),
    "faults": (_PLAN,
               lambda proc: proc.faults is _PLAN and proc.slowdown == 2.0),
    "observe": (True, lambda proc: proc.spans is not None
                and proc.metrics.attributing),
    "recorder": (Recorder(), lambda proc: proc.recorder is not None),
}


def test_the_run_settings_are_the_machine_signature():
    params = list(inspect.signature(VirtualMachine.__init__).parameters)
    assert params[:2] == ["self", "nprocs"]
    assert params[2:] == list(SETTINGS), (
        "a run setting was added or removed: give it a row in SETTINGS")


@pytest.mark.parametrize("name", SETTINGS)
def test_a_setting_reaches_every_process_from_either_entry(name):
    value, holds = SETTINGS[name]

    def program(comm):
        if name == "check_leaks" and comm.process.rank == 0:
            comm.send(comm.rank, "orphan")
        return holds(comm.process)

    world = VirtualMachine(3, **{name: value}).run(program)
    coupled = run_programs(
        [ProgramSpec("a", 2, lambda ctx: program(ctx.comm)),
         ProgramSpec("b", 1, lambda ctx: program(ctx.comm))],
        **{name: value},
    )
    assert world.values == [True] * 3
    assert coupled["a"].values + coupled["b"].values == [True] * 3


def test_settings_forward_positionally_and_unknown_ones_are_refused():
    res = run_programs(
        [ProgramSpec("a", 1, lambda ctx: ctx.comm.process.cost.profile)],
        ALPHA_FARM_ATM,
    )
    assert res["a"].values == [ALPHA_FARM_ATM]
    for launch in (lambda: VirtualMachine(1, check_leak=False),
                   lambda: run_programs([ProgramSpec("a", 1, print)],
                                        check_leak=False)):
        with pytest.raises(TypeError, match="check_leak"):
            launch()


def test_programs_must_fill_the_machine():
    with pytest.raises(ValueError, match="fill 3 processor"):
        VirtualMachine(3)._launch([ProgramSpec("a", 2, print)])


# -- (c) a failing rank, whichever way its thread was started ----------------


def _failing(comm, detectors):
    proc = comm.process
    detectors[proc.rank] = proc.mailbox.detector
    if proc.rank == 1:
        raise RuntimeError("injected")
    return comm.recv(1, tag=1)  # blocks on the rank that dies


LAUNCHES = {
    "run": lambda fn: VirtualMachine(3, recv_timeout_s=60.0).run(fn),
    "run_programs": lambda fn: run_programs(
        [ProgramSpec("a", 3, lambda ctx: fn(ctx.comm))], recv_timeout_s=60.0),
    "isolation": lambda fn: VirtualMachine(3)._launch(
        [ProgramSpec("world", 3, fn)], world=True,
        isolate=(1, _LogMailbox(1, new_stream(RecvRecord, "payload"), ""),
                 _SinkBox())),
}


@pytest.mark.parametrize("how", LAUNCHES)
def test_a_rank_failure_is_handled_the_same_in_every_launch(how):
    detectors = {}
    before = set(threading.enumerate())
    with pytest.raises(SPMDError) as raised:
        LAUNCHES[how](lambda comm: _failing(comm, detectors))
    err = raised.value
    assert [(e.rank, str(e.exception)) for e in err.root_causes] == \
        [(1, "injected")]
    assert "injected" in detectors[1].dead_ranks()[1]
    peers = [] if how == "isolation" else [0, 2]  # isolation starts rank 1 only
    assert sorted(detectors) == sorted(peers + [1])
    assert err.lost_ranks == peers
    for e in err.errors:
        if e.rank != 1:
            assert isinstance(e.exception, RankLostError)
            assert e.exception.lost_rank == 1
    assert set(threading.enumerate()) <= before, "a rank thread is still alive"
    assert err.replay_handle["nprocs"] == 3
    assert ("programs" in err.replay_handle) == (how == "run_programs")


# -- (d) the unconsumed-message check covers coupled runs ---------------------


def test_a_coupled_leak_names_rank_and_count():
    def sender(ctx):
        for tag in (1, 2):
            ctx.peer("b").send(1, "orphan", tag=tag)

    with pytest.raises(SPMDError) as raised:
        run_programs([ProgramSpec("a", 2, sender),
                      ProgramSpec("b", 2, lambda ctx: None)])
    err = raised.value
    assert [e.rank for e in err.errors] == [3]  # b's local rank 1, globally
    assert "rank 3: 4 message(s) were delivered but never received" in str(err)
    assert err.replay_handle["programs"] == [["a", 2], ["b", 2]]


# -- (e) isolation replay: the same launch with one rank started -------------


def _recorded(name, params, **settings):
    """Record a named workload through its public entry point, with
    settings the CLI has no flag for; returns (artifact, how to re-run)."""
    plan = build_workload(name, params)
    rec = Recorder(payloads=True)
    settings = {"recorder": rec, **plan["vm_kwargs"], **settings}
    settings.setdefault("faults", plan["fault_plan"])
    try:
        if plan["world"]:
            VirtualMachine(plan["nprocs"], **settings).run(plan["fn"])
            return rec.artifact, {"fn": plan["fn"]}
        run_programs(plan["specs"], **settings)
    except SPMDError:
        assert rec.artifact["body"]["error"] is not None
    return rec.artifact, {"specs": plan["specs"]}


RECORDINGS = {
    "copy": lambda: _recorded("copy", {"procs": 4, "seed": 31}),
    "coupled": lambda: _recorded(
        "coupled", {"psrc": 3, "pdst": 2, "seed": 5, "pull_back": True}),
    "copy+observe": lambda: _recorded(
        "copy", {"procs": 3, "seed": 17}, observe=True),
    "coupled+program-crash": lambda: _recorded(
        "coupled", {"psrc": 2, "pdst": 2, "seed": 8},
        faults=FaultPlan(
            seed=8, rates=FaultRates(drop=0.2, dup=0.2),
            crashes=[CrashEvent("program:dstp", after_sends=3)])),
}


@pytest.mark.parametrize("recording", RECORDINGS)
def test_every_rank_replays_identically_in_isolation(recording):
    artifact, rerun = RECORDINGS[recording]()
    body = artifact["body"]
    assert (body["error"] is not None) == ("crash" in recording)
    if "crash" in recording:  # expanded to dstp's global ranks when launched
        assert [c["rank"] for c in body["fault_plan"]["crashes"]] == [2, 3]
        assert "PeerLostError" in body["error"], "srcp must see dstp die"
    assert body["config"]["observe"] == ("observe" in recording)
    full = replay_full(artifact, **rerun)
    assert full.identical, full.summary()
    for rank in range(body["config"]["nprocs"]):
        report = replay_rank(artifact, rank, **rerun)
        assert report.identical, f"rank {rank}: {report.summary()}"
        assert report.ranks_compared == 1


def test_isolation_replay_reads_the_recorded_environment(monkeypatch):
    """The host's copy-on-send switch does not leak into the replayed
    Process: every machine setting is passed to ``VirtualMachine``
    explicitly from the recorded config.  The recorded ``REPRO_*``
    environment is installed only so that the replay's env fingerprint
    equals the recording's, which ``.identical`` checks here."""
    monkeypatch.delenv("REPRO_COPY_ON_SEND", raising=False)
    seen = []

    def program(comm):
        seen.append(comm.process.copy_on_send)
        return np.arange(3.0) * comm.rank

    rec = Recorder(payloads=True)
    VirtualMachine(2, recorder=rec).run(program)
    monkeypatch.setenv("REPRO_COPY_ON_SEND", "1")
    assert replay_rank(rec.artifact, 1, fn=program).identical
    assert replay_full(rec.artifact, fn=program).identical
    assert set(seen) == {False}
