"""One channel: the point-to-point surface lives on the endpoint, once.

(a) ``Communicator`` and ``InterComm`` share one ``send``/``recv``/
    ``irecv``/``probe``/``recv_any``/``peer_global``/``arrivals``.
(b) ``arrivals`` — on the bare endpoint and on its reliable view — against
    the four hand-written loops it replaced (ascending ``recv``, ``irecv``
    all + ``waitany``, ``Reliability.recv``, ``Reliability.recv_any`` over
    the remaining set), which live on here as the oracle.
(c) A ``Universe`` is two endpoints and one data plane.
"""

import threading

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import mc_compute_schedule, mc_copy
from repro.core.universe import (TAG_DATA, SingleProgramUniverse,
                                 TwoProgramUniverse)
from repro.vmachine import (Communicator, InterComm, ProgramSpec,
                            VirtualMachine, run_programs, waitany)
from repro.vmachine.comm import CONTEXT_STRIDE
from repro.vmachine.faults import FaultPlan, FaultRates
from repro.vmachine.reliability import REL_DATA, Reliability, ReliableView

from helpers import index_sor, section_sor

SURFACE = ("send", "recv", "irecv", "probe", "recv_any", "peer_global",
           "arrivals")

# ---------------------------------------------------------------------------
# (a) one surface
# ---------------------------------------------------------------------------


def test_both_communicator_kinds_resolve_to_the_same_functions():
    for name in SURFACE:
        assert getattr(Communicator, name) is getattr(InterComm, name), name


def _out_of_range_calls(endpoint, bad):
    """Every rank-taking call of the surface, addressed to rank ``bad``."""
    return {
        "send": lambda: endpoint.send(bad, None, 3),
        "recv": lambda: endpoint.recv(bad, 3),
        "irecv": lambda: endpoint.irecv(bad, 3),
        "probe": lambda: endpoint.probe(bad, 3),
        "peer_global": lambda: endpoint.peer_global(bad),
        "arrivals": lambda: next(endpoint.arrivals([bad], 3)),
        "arrivals-overlap": lambda: next(
            endpoint.arrivals([0, bad], 3, overlap=True)),
    }


def _assert_all_refused(endpoint, size):
    for bad in (-1, size):
        for call in _out_of_range_calls(endpoint, bad).values():
            with pytest.raises(ValueError, match="out of range"):
                call()
    return True


def test_out_of_range_rank_is_refused_by_every_call_on_both_kinds():
    def a_prog(ctx):
        return (_assert_all_refused(ctx.comm, 2)
                and _assert_all_refused(ctx.peer("b"), 3))

    def b_prog(ctx):
        return _assert_all_refused(ctx.peer("a"), 2)

    res = run_programs([ProgramSpec("a", 2, a_prog), ProgramSpec("b", 3, b_prog)])
    assert all(res["a"].values) and all(res["b"].values)


def test_recv_any_answers_in_the_ranks_the_endpoint_addresses():
    """Local ranks on a communicator, remote-group ranks on an
    inter-communicator — whatever the global ranks underneath."""

    def a_prog(ctx):
        if ctx.rank == 0:
            return None
        ctx.comm.send(0, "intra", 4)      # global 1 -> global 0
        ctx.peer("b").send(2, "inter", 4)  # global 1 -> global 4
        return None

    def b_prog(ctx):
        # program b's ranks are global 2, 3, 4
        sub = ctx.comm.split(0 if ctx.rank else 1)
        if ctx.rank == 1:
            sub.send(1, "split", 5)       # global 3 -> global 4
        if ctx.rank != 2:
            return None
        inter = ctx.peer("a")
        assert inter.peer_global(1) == 1 and sub.peer_global(0) == 3
        return inter.recv_any(4), sub.recv_any(5)

    def a_root(ctx):
        return a_prog(ctx) if ctx.rank else ctx.comm.recv_any(4)

    res = run_programs([ProgramSpec("a", 2, a_root), ProgramSpec("b", 3, b_prog)])
    assert res["a"].values[0] == (1, "intra")
    assert res["b"].values[2] == ((1, "inter"), (0, "split"))


# ---------------------------------------------------------------------------
# (b) arrivals against the four loops it replaced
# ---------------------------------------------------------------------------

ROUNDS = 3


def oracle_arrivals(comm, rel, sources, tag, overlap):
    """The four arrival loops, written out as the callers used to."""
    overlap = overlap and len(sources) > 1
    if rel is None and overlap:
        requests = [comm.irecv(s, tag) for s in sources]
        for _ in sources:
            idx, payload = waitany(requests)
            yield sources[idx], payload
    elif rel is None:
        for s in sources:
            yield s, comm.recv(s, tag)
    elif overlap:
        left = set(sources)
        while left:
            s, payload = rel.recv_any(comm, sorted(left), tag)
            left.discard(s)
            yield s, payload
    else:
        for s in sources:
            yield s, rel.recv(comm, s, tag)


def _exchange(reliable, overlap, sources, faults, oracle):
    """Ranks in ``sources`` each send rank 0 one ``TAG_DATA`` message per
    round — the bigger the rank the smaller the message, so arrival order
    is not rank order — and rank 0 collects a round through ``arrivals``
    or through the oracle.

    Every round is on the wire before rank 0 collects any: the reliable
    receive drains whatever envelopes are physically pending, so a later
    round still in a sender's hands would make the outcome depend on host
    thread scheduling rather than on the path being compared.  The wait
    is wall-clock only and charges no logical time."""
    posted = threading.Barrier(4, timeout=30.0)

    def body(comm):
        rel = Reliability() if reliable else None
        if comm.rank in sources:
            for round_ in range(ROUNDS):
                payload = np.full(600 // comm.rank ** 2, 10.0 * round_ + comm.rank)
                if rel is not None:
                    rel.send(comm, 0, payload, TAG_DATA)
                else:
                    # the bare wire recovers nothing: resend on the NIC's
                    # word, then let the network deliver what it held back
                    while comm.send(0, payload, TAG_DATA).lost:
                        pass
                    comm._flush_held(0)
            if rel is not None:
                rel.flush()
        posted.wait()
        got = []
        if comm.rank == 0:
            for _ in range(ROUNDS):
                if oracle:
                    stream = oracle_arrivals(comm, rel, sources, TAG_DATA,
                                             overlap)
                else:
                    chan = comm if rel is None else rel.over(comm)
                    stream = chan.arrivals(sources, TAG_DATA, overlap=overlap)
                got.append([(s, p.tolist()) for s, p in stream])
        if rel is not None:
            rel.fence()
        return got

    # a bare duplicate is never consumed, on purpose: no leak check
    vm = VirtualMachine(4, trace=True, faults=faults, recv_timeout_s=30.0,
                        check_leaks=reliable or faults is None)
    res = vm.run(body)
    return {"values": res.values, "clocks": res.clocks, "counters": res.stats,
            "traces": res.traces}


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("sources", [[2], [3, 1, 2]], ids=["one", "three"])
@pytest.mark.parametrize("overlap", [False, True], ids=["in-order", "overlap"])
@pytest.mark.parametrize("reliable", [False, True], ids=["bare", "reliable"])
def test_arrivals_is_the_loop_it_replaced(reliable, overlap, sources, chaos):
    def faults():
        if not chaos:
            return None
        return FaultPlan(seed=20, rates=FaultRates(
            drop=0.2, dup=0.2, reorder=0.2, delay=0.2))

    real = _exchange(reliable, overlap, sources, faults(), oracle=False)
    ref = _exchange(reliable, overlap, sources, faults(), oracle=True)
    for key in real:
        assert real[key] == ref[key], key
    rounds = real["values"][0]
    assert len(rounds) == ROUNDS
    for round_, got in enumerate(rounds):
        assert sorted(s for s, _ in got) == sorted(sources)
        if reliable or not chaos:  # a bare duplicate *is* the next message
            assert all(p[0] == 10.0 * round_ + s for s, p in got)
    if len(sources) > 1:
        order = [s for s, _ in rounds[0]]
        if not overlap:
            assert order == sources  # as given, not sorted
        elif not chaos:
            assert order == sorted(sources, reverse=True)  # smallest first
    if chaos:
        injected = sum(v for stats in real["counters"]
                       for k, v in stats.items() if k.startswith("faults_"))
        assert injected > 0, "the seed injected nothing"


# ---------------------------------------------------------------------------
# (c) a universe is two endpoints and one data plane
# ---------------------------------------------------------------------------


def test_two_program_universe_holds_the_expected_endpoints():
    def prog(role, peer):
        def run(ctx):
            comm, inter = ctx.comm, ctx.peer(peer)
            u = TwoProgramUniverse(comm, inter, role)
            u.peer_program = peer
            rel = u.enable_reliability()
            mine, theirs = (u.to_src, u.to_dst) if role == "src" else (
                u.to_dst, u.to_src)
            assert mine is comm and theirs is inter
            assert (u.comm, u.intercomm, u.role) == (comm, inter, role)
            assert not u.single_program
            r = u.reversed()
            assert r is not u and r.role != role
            assert (r.to_src, r.to_dst) == (u.to_dst, u.to_src)
            assert (r.src_size, r.dst_size) == (u.dst_size, u.src_size)
            assert (r.my_src_rank, r.my_dst_rank) == (u.my_dst_rank, u.my_src_rank)
            assert r.reliability is rel and r.peer_program == peer
            assert r.process is u.process is comm.process
            return True
        return run

    res = run_programs([ProgramSpec("s", 2, prog("src", "d")),
                        ProgramSpec("d", 3, prog("dst", "s"))])
    assert all(res["s"].values) and all(res["d"].values)


def test_single_program_universe_is_one_endpoint_twice():
    def spmd(comm):
        u = SingleProgramUniverse(comm)
        assert u.to_src is comm and u.to_dst is comm and u.comm is comm
        assert u.reversed() is u
        return True

    assert all(VirtualMachine(2).run(spmd).values)


def test_data_plane_is_the_endpoint_until_reliability_is_enabled():
    """...and its reliable view after: ``TAG_DATA`` then travels inside
    ``REL_DATA`` envelopes, while a schedule build on the same universe
    stays on the bare wire."""
    n = 24
    perm = np.random.default_rng(0).permutation(n)

    def spmd(comm):
        u = SingleProgramUniverse(comm)
        assert u.data_plane(u.to_src) is comm and u.data_plane(u.to_dst) is comm
        u.end_phase()  # nothing to close: a no-op
        rel = u.enable_reliability()
        plane = u.data_plane(u.to_dst)
        assert isinstance(plane, ReliableView)
        assert (plane._rel, plane._endpoint) == (rel, comm)
        src = BlockPartiArray.from_global(comm, np.arange(n) + 1.0)
        dst = ChaosArray.zeros(comm, perm % comm.size)
        trace = comm.process.trace
        sched = mc_compute_schedule(
            u, "blockparti", src, section_sor((slice(0, n),), (n,)),
            "chaos", dst, index_sor(perm))
        built = len(trace)
        mc_copy(u, sched, src, dst)
        return built, dst.gather_global()

    res = VirtualMachine(3, trace=True).run(spmd)
    want = np.empty(n)
    want[perm] = np.arange(n) + 1.0
    np.testing.assert_array_equal(res.values[0][1], want)
    for (built, _), events in zip(res.values, res.traces):
        def user_tags(evs):
            return [e.tag % CONTEXT_STRIDE for e in evs if e.kind == "send"]
        assert built and not any(t & REL_DATA for t in user_tags(events[:built]))
        moved = user_tags(events[built:])
        assert REL_DATA | TAG_DATA in moved and TAG_DATA not in moved
