"""The transport seam: direct path == hooked path, to the last bit.

With nothing installed (``proc.hooked`` false) a message takes the direct
spelling of the send/receive clock arithmetic in ``vmachine/comm.py``;
with any optional concern on it takes the attributed spelling on
``Process`` (``charge_send_injection`` / ``advance_to`` / ``charge``).
One seeded program that crosses every message path — point-to-point,
every collective, wait-any, an inter-communicator, a window epoch with
all five one-sided operations, a straggler — is run all-off, with each
concern alone and with all of them, and must give ``==`` per-rank
clocks, message/byte counters and payloads; and a concern installed by
the rank itself mid-run must apply to the very next message.
"""

import operator

import numpy as np
import pytest

from repro.replay import Recorder
from repro.replay.recorder import RankRecorder
from repro.vmachine import (FaultPlan, ProgramSpec, Reliability,
                            VirtualMachine, Window, run_programs, waitany)

BASE_COUNTERS = ("messages_sent", "messages_received",
                 "bytes_sent", "bytes_received")

CONCERNS = {
    "trace": lambda: {"trace": True},
    "observe": lambda: {"observe": True},
    "recorder": lambda: {"recorder": Recorder()},
    "faults_idle": lambda: {"faults": FaultPlan(seed=5)},
    "copy_on_send": lambda: {"copy_on_send": True},
    "all": lambda: {"trace": True, "observe": True, "copy_on_send": True,
                    "recorder": Recorder(payloads=True),
                    "faults": FaultPlan(seed=5)},
}


pytestmark = pytest.mark.usefixtures("clean_repro_env")


def norm(value):
    """Payloads as plain comparable data (arrays keep dtype and values)."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.tolist())
    if isinstance(value, np.generic):
        return ("np", value.dtype.str, value.item())
    if isinstance(value, (list, tuple)):
        return [norm(v) for v in value]
    if isinstance(value, dict):
        return {k: norm(v) for k, v in value.items()}
    return value


def exercise(comm, reliable, inter=None):
    """Every message path once; deterministic by construction (wildcard
    receives only where exactly one envelope can match)."""
    proc = comm.process
    r, P = comm.rank, comm.size
    if r == 1:
        proc.slowdown = 1.75  # straggler: every charge scales
    out = [proc.hooked]
    right, left = (r + 1) % P, (r - 1) % P

    comm.send(right, np.arange(8.0) + r, tag=3)
    out.append(comm.recv(left, tag=3))
    out.append(comm.sendrecv(right, ("t", r, 2.5, None), left, 4, 4))
    req = comm.irecv(left, tag=5)
    comm.isend(right, [r, "five"], tag=5)
    comm.barrier()
    out.append((req.test(), comm.probe(left, tag=6), req.wait()))

    out.append(comm.bcast({"root": r} if r == 2 % P else None, root=2 % P))
    out.append(comm.gather(r * r, root=1))
    out.append(comm.allgather(r))
    out.append(comm.scatter(
        [np.full(3, i) for i in range(P)] if r == 0 else None))
    out.append(comm.alltoall([r * 10 + i for i in range(P)]))
    out.append(comm.alltoall_sparse(
        {d: np.arange(d + 1) for d in range(P) if (d + r) % 2 == 0}))
    out.append(comm.scan(r + 1, operator.add))
    out.append(comm.reduce(r + 1, operator.add, root=P - 1))
    out.append(comm.allreduce(float(r), max))
    out.append(comm.split(r % 2).allgather(r))

    if r == 0:  # one sender, so the wildcard is deterministic
        out.append(comm.recv_any(tag=9))
    elif r == P - 1:
        comm.send(0, "any", tag=9)

    # the OVERLAP pattern: eager sends, completion in logical arrival order
    if r == 0:
        reqs = [comm.irecv(s, tag=7) for s in range(1, P)]
        for _ in reqs:
            idx, payload = waitany(reqs)
            proc.charge_flops(1000)
            out.append((idx, payload))
    else:
        proc.charge(1e-4 * (P - r))
        comm.send(0, np.full(r, float(r)), tag=7)

    rel = Reliability() if reliable else None
    if rel is not None:
        rel.send(comm, right, ("rel", r), 11)
        out.append(rel.recv(comm, left, 11))
        if r == 0:
            peers = list(range(1, P))
            while peers:  # wait-any needs every listed peer still owing one
                out.append(rel.recv_any(comm, peers, 12))
                peers.remove(out[-1][0])
        else:
            rel.send(comm, 0, r * 1.5, 12)
        rel.fence()

    win = Window(comm, np.zeros(8), reliability=rel)
    win.put(right, [1.0 * r, 2.0], start=0)
    win.accumulate((r + 2) % P, [0.5], start=3, op="sum")
    read = win.get(right, 0, 4)
    ticket = win.fetch_add(0, 7, 1.0)
    swap = win.compare_and_swap(1 % P, 6, 0.0, float(r + 1))
    win.fence()
    out.append((win.local.copy(), read.value, ticket.value, swap.value))

    if inter is not None:
        peer, lead = inter
        n = peer.remote_size
        if lead:  # push, then pull
            peer.send(r % n, np.arange(4.0) * r, tag=1)
            out.append(peer.recv(r % n, tag=2))
        else:
            mine = [s for s in range(peer.remote_size) if s % comm.size == r]
            reqs = [peer.irecv(s, tag=1) for s in mine]
            while any(not q._done for q in reqs):
                out.append(waitany(reqs))
            for s in mine:
                peer.send(s, ("pulled", s), tag=2)
    return out


def one_program(reliable, **hooks):
    res = VirtualMachine(4, **hooks).run(exercise, reliable)
    return [res], hooks


def two_programs(reliable, **hooks):
    def program(ctx, lead):
        return exercise(ctx.comm, reliable,
                        inter=(ctx.peer("b" if lead else "a"), lead))

    res = run_programs([ProgramSpec("a", 3, program, (True,)),
                        ProgramSpec("b", 2, program, (False,))], **hooks)
    return [res["a"], res["b"]], hooks


def observed(results):
    return [
        (res.clocks,
         [{k: s[k] for k in BASE_COUNTERS} for s in res.stats],
         [norm(v[1:]) for v in res.values])
        for res in results
    ]


@pytest.mark.parametrize("reliable", [False, True], ids=["plain", "reliable"])
@pytest.mark.parametrize("run", [one_program, two_programs])
def test_every_concern_leaves_clocks_counters_and_payloads_equal(run, reliable):
    off, _ = run(reliable, observe=False, copy_on_send=False)
    assert not any(v[0] for res in off for v in res.values), "all-off is direct"
    want = observed(off)
    for name, make in CONCERNS.items():
        got, hooks = run(reliable, **make())
        assert all(v[0] for res in got for v in res.values), name
        assert observed(got) == want, name
        if hooks.get("observe"):
            for res in got:  # attributed terms still sum to the clock
                for snap, clock in zip(res.metrics, res.clocks):
                    assert abs(snap.attributed_seconds() - clock) <= 1e-9
                assert all(res.spans) and all(res.traces)
        if "recorder" in hooks:
            body = hooks["recorder"].artifact["body"]
            assert [e["clock"] for e in body["ranks"]] == \
                [c for res in got for c in res.clocks]
            assert sum(len(e["sends"]["seq"]) for e in body["ranks"]) == \
                sum(res.total_stat("messages_sent") for res in got)


# -- a concern installed mid-run applies to the very next message ------------


def midrun(comm, install):
    proc = comm.process
    r, P = comm.rank, comm.size
    right, left = (r + 1) % P, (r - 1) % P
    comm.sendrecv(right, r, left)  # an all-off message first
    seen = {"hooked_before": proc.hooked}
    sent = np.arange(4.0)
    with proc.span("outer"):
        plan = None
        if install == "trace":
            proc.trace = []
        elif install == "observe":
            proc.enable_observability()
        elif install == "recorder":
            proc.recorder = RankRecorder(proc.rank)
        elif install == "copy_on_send":
            proc.copy_on_send = True
        elif install == "faults":
            plan = proc.faults = FaultPlan(seed=1)
        before = proc.clock
        comm.send(right, sent, tag=1)
        got = comm.recv(left, tag=1)
        seen["delta"] = proc.clock - before
    comm.barrier()
    seen.update(
        hooked=proc.hooked, clock=proc.clock, aliased=got is sent,
        trace=[(e.kind, e.phase) for e in proc.trace or []][:2],
        terms=dict(proc.metrics.terms) if install == "observe" else {},
        spans=[(s.name, s.path, s.depth) for s in proc.spans or []][:3],
        recorded=(len(proc.recorder.sends["seq"]),
                  len(proc.recorder.recvs["seq"]))
        if proc.recorder is not None else None,
        fault_ops=dict(plan._counts(proc.rank)) if plan is not None else None,
    )
    return seen


@pytest.mark.parametrize(
    "install", ["trace", "observe", "recorder", "copy_on_send", "faults"])
def test_midrun_install_takes_effect_on_the_next_message(install):
    base = VirtualMachine(1, observe=False, copy_on_send=False).run(
        midrun, None).values[0]
    seen = VirtualMachine(1, observe=False, copy_on_send=False).run(
        midrun, install).values[0]
    assert not base["hooked"] and base["aliased"]
    assert not seen["hooked_before"] and seen["hooked"]
    assert (seen["clock"], seen["delta"]) == (base["clock"], base["delta"])
    if install == "trace":
        assert seen["trace"] == [("send", "outer/wire"), ("recv", "outer/wire")]
    elif install == "observe":
        # enabled inside the open span: it closes cleanly, and the two
        # messages after the switch are fully attributed
        assert seen["spans"] == [("wire", "outer/wire", 1),
                                 ("wire", "outer/wire", 1),
                                 ("outer", "outer", 0)]
        wire = {t: s for (phase, t), s in seen["terms"].items()
                if phase == "wire"}
        assert {"beta", "occupancy"} <= set(wire)
        barrier = sum(s for (phase, _), s in seen["terms"].items()
                      if phase != "wire")
        assert barrier == 0  # one rank: the barrier sends nothing
        assert abs(sum(wire.values()) - seen["delta"]) <= 1e-12
    elif install == "recorder":
        assert seen["recorded"] == (1, 1)
    elif install == "copy_on_send":
        assert not seen["aliased"]
    else:
        assert seen["fault_ops"] == {"sends": 1, "recvs": 1}


def test_concern_removed_midrun_returns_to_the_direct_path():
    def program(comm):
        proc = comm.process
        proc.trace = []
        comm.send(0, None)
        comm.recv(0)
        proc.trace = None
        hooked = proc.hooked
        comm.send(0, None)
        comm.recv(0)
        return hooked, proc.clock

    def plain(comm):
        for _ in range(2):
            comm.send(0, None)
            comm.recv(0)
        return comm.process.clock

    hooked, clock = VirtualMachine(1, observe=False, copy_on_send=False).run(
        program).values[0]
    assert not hooked
    assert clock == VirtualMachine(1, observe=False, copy_on_send=False).run(
        plain).values[0]
