"""The flat-plan executor against the interpreter it replaced.

The reference below is the move executor as it ran before plans were
lowered to flat programs: every message re-derives, from the member
*schedules*, which peers it talks to and which segments a message
carries; every segment re-reads the array's local storage, applies the
cast rule, charges ``charge_pack`` and moves the elements with plain
NumPy ``flat[dense offsets]``.  It shares no code with the real executor
beyond the transport (``send``/``recv``, the reliable layer) and the
public wire format — no ``MoveProgram``, no adapter ``pack``/``unpack``
wrapper, no segment kernel — and lives here only, as the oracle.

Each scenario runs twice, once as shipped and once with the reference
patched over ``plan_move`` / ``plan_move_send`` / ``plan_move_recv``
wherever they are bound, and the two runs must agree with ``==`` (never
approx) on destination bytes, per-rank logical clocks, every counter
(``messages_sent``/``bytes_sent``, ``plan_*``, ``cache_program_*``, the
arena's checkouts), the ``(phase, term)`` attribution, the span records
and the trace event stream.
"""

import sys

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.core.plan as plan_mod
from repro.autotune.auto import resolve_policy
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    ExecutorPolicy,
    RunList,
    get_adapter,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
)
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.core.dataplane import read_flat
from repro.core.policy import rotated_order
from repro.core.universe import TAG_DATA, SingleProgramUniverse
from repro.core.wire import FusedBuffer, SegmentHeader, segment_layout
from repro.vmachine import ProgramSpec, VirtualMachine, run_programs, waitany
from repro.vmachine.faults import FaultPlan, FaultRates
from repro.vmachine.trace import TraceEvent

from helpers import index_sor, section_sor

ORDERED, OVERLAP = ExecutorPolicy.ORDERED, ExecutorPolicy.OVERLAP

# ---------------------------------------------------------------------------
# the reference (pre-change) interpreter
# ---------------------------------------------------------------------------


def _refuse_lossy(src_dtype, dst_dtype):
    if not np.can_cast(src_dtype, dst_dtype, "same_kind"):
        raise TypeError(
            f"refusing lossy element conversion {src_dtype} -> "
            f"{dst_dtype} during a data move; convert explicitly first"
        )


def _store(data, offsets, values):
    """``data.flat[offsets] = values`` for any layout of ``data``."""
    if data.ndim == 1 or data.flags.c_contiguous:
        data.reshape(-1)[offsets] = values
    else:
        data[np.unravel_index(offsets, data.shape)] = values


def _segments(schedules, half, peer):
    """``(schedule id, dense offsets)`` of every member with elements
    for ``peer`` in its ``half`` (``"sends"`` / ``"recvs"``)."""
    return [
        (i, getattr(s, half)[peer].dense()) for i, s in enumerate(schedules)
        if len(getattr(s, half).get(peer, ()))
    ]


def _peers(schedules, half, skip):
    found = {p for s in schedules for p, o in getattr(s, half).items() if len(o)}
    return sorted(found - {skip})


def _ref_policy(policy, plan, universe):
    skip = universe.my_dst_rank if universe.single_program else None
    return resolve_policy(policy, _peers(plan.schedules, "recvs", skip))


def ref_send(plan, src_arrays, universe, policy=ORDERED, timeout=None, fence=None):
    scheds, proc = plan.schedules, universe.process
    peers = _peers(scheds, "sends",
                   universe.my_src_rank if universe.single_program else None)
    if _ref_policy(policy, plan, universe) is OVERLAP:
        peers = rotated_order(peers, universe.my_src_rank, universe.dst_size)
    rel = universe.reliability
    for d in peers:
        segs = _segments(scheds, "sends", d)
        local = [get_adapter(scheds[i].src_lib).local_data(src_arrays[i])
                 for i, _ in segs]
        if len(scheds) == 1:
            with proc.span("pack"):
                proc.charge_pack(len(segs[0][1]))
                payload = local[0].reshape(-1)[segs[0][1]]
        else:
            headers = tuple(SegmentHeader(i, data.dtype.str, len(off))
                            for (i, off), data in zip(segs, local))
            lease = proc.arena.checkout(segment_layout(headers)[1],
                                        pooled=not proc.copy_on_send)
            payload = FusedBuffer(headers, lease.buffer, lease=lease)
            with proc.span("pack"):
                for j, ((_, off), data) in enumerate(zip(segs, local)):
                    proc.charge_pack(len(off))
                    payload.segment(j)[...] = data.reshape(-1)[off]
            proc.metrics.incr("plan_fused_messages")
            proc.metrics.incr("plan_fused_segments", len(segs))
            proc.metrics.incr("plan_alpha_saved", len(segs) - 1)
            if proc.trace is not None:
                proc.trace.append(TraceEvent(
                    "plan:fuse", proc.clock, proc.rank, d, TAG_DATA,
                    payload.nbytes, phase=proc.phase_path))
        proc.metrics.incr("cache_program_hits", len(segs))
        if rel is not None:
            rel.send(universe.to_dst, d, payload, TAG_DATA)
        else:
            universe.to_dst.send(d, payload, TAG_DATA)
    if rel is not None:
        if fence is None:
            fence = not universe.single_program
        if fence:
            rel.fence(timeout=timeout)
        else:
            rel.flush()


def _ref_arrivals(universe, active, policy, timeout):
    rel = universe.reliability
    overlap = policy is OVERLAP and len(active) > 1
    if rel is not None and overlap:
        left = set(active)
        while left:
            s, payload = rel.recv_any(universe.to_src, sorted(left), TAG_DATA,
                                      timeout=timeout)
            left.discard(s)
            yield s, payload
    elif overlap:
        requests = [universe.to_src.irecv(s, TAG_DATA) for s in active]
        for _ in active:
            idx, payload = waitany(requests, timeout=timeout)
            yield active[idx], payload
    else:
        for s in active:
            if rel is not None:
                yield s, rel.recv(universe.to_src, s, TAG_DATA, timeout=timeout)
            else:
                yield s, universe.to_src.recv(s, TAG_DATA, timeout=timeout)


def ref_recv(plan, dst_arrays, universe, policy=ORDERED, timeout=None, donate=False):
    scheds, proc = plan.schedules, universe.process
    active = _peers(scheds, "recvs",
                    universe.my_dst_rank if universe.single_program else None)
    policy = _ref_policy(policy, plan, universe)
    for s, payload in _ref_arrivals(universe, active, policy, timeout):
        segs = _segments(scheds, "recvs", s)
        if len(scheds) == 1:
            assert len(payload) == len(segs[0][1])
            parts = [payload]
        else:
            assert [(h.schedule_id, h.count) for h in payload.headers] == [
                (i, len(off)) for i, off in segs]
            parts = [payload.segment(j) for j in range(len(segs))]
        donated = False
        with proc.span("unpack"):
            for (i, off), values in zip(segs, parts):
                adapter = get_adapter(scheds[i].dst_lib)
                data = adapter.local_data(dst_arrays[i])
                _refuse_lossy(values.dtype, data.dtype)
                proc.charge_pack(len(off))
                if (donate and values.dtype == data.dtype
                        and values.flags.writeable
                        and np.array_equal(off, np.arange(data.size))
                        and adapter.adopt_local(dst_arrays[i], values)):
                    donated = True
                else:
                    _store(data, off, values)
        proc.metrics.incr("cache_program_hits", len(segs))
        if len(scheds) > 1:
            if donated:
                payload.sever_lease()
            payload.release()


def ref_move(plan, src_arrays, dst_arrays, universe, policy=ORDERED,
             timeout=None, donate=False):
    proc = universe.process
    policy = _ref_policy(policy, plan, universe)
    if not universe.single_program:
        if universe.my_src_rank is not None:
            ref_send(plan, src_arrays, universe, policy, timeout)
        if universe.my_dst_rank is not None:
            ref_recv(plan, dst_arrays, universe, policy, timeout, donate)
        return
    copies = 0
    for i, sched in enumerate(plan.schedules):
        src_off = sched.sends.get(universe.my_dst_rank)
        if src_off is None or len(src_off) == 0:
            continue
        with proc.span("copy:local"):
            src = get_adapter(sched.src_lib).local_data(src_arrays[i])
            dst = get_adapter(sched.dst_lib).local_data(dst_arrays[i])
            _refuse_lossy(src.dtype, dst.dtype)
            proc.charge_pack(len(src_off))
            _store(dst, sched.recvs[universe.my_src_rank].dense(),
                   src.reshape(-1)[src_off.dense()])
        copies += 1
    if copies:
        proc.metrics.incr("cache_program_hits", 2 * copies)
    ref_send(plan, src_arrays, universe, policy, timeout, fence=False)
    ref_recv(plan, dst_arrays, universe, policy, timeout, donate)
    if universe.reliability is not None:
        universe.reliability.fence(timeout=timeout)


REFERENCE = {"plan_move": ref_move, "plan_move_send": ref_send,
             "plan_move_recv": ref_recv}


def install_reference(monkeypatch):
    """Rebind the three executor entry points, in every ``repro`` module
    that imported them, to the reference interpreter."""
    for name, ref in REFERENCE.items():
        real = getattr(plan_mod, name)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("repro") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, ref)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

N = 48  # elements per array; 12 per rank of a 4-rank Parti source


def _counters(stats):
    """A rank's counters, with the arena's reduced to what repeats.

    Whether a checkout finds a pooled buffer depends on whether the
    *receiving* thread has released it yet — host scheduling — so the
    hit/miss split and the byte gauges differ between two runs of the
    same executor; the number of checkouts (one per fused message) does
    not.
    """
    out = {k: v for k, v in stats.items() if not k.startswith("arena_")}
    out["arena_checkouts"] = (
        stats.get("arena_hits", 0) + stats.get("arena_misses", 0))
    return out


def outcome(res):
    """Everything a run exposes that the two executors must agree on."""
    return {
        "values": res.values,
        "clocks": res.clocks,
        "counters": [_counters(stats) for stats in res.stats],
        "attribution": [m.terms for m in res.metrics],
        "spans": res.spans,
        "traces": res.traces,
    }


def assert_identical(real, ref):
    for key in real:
        assert real[key] == ref[key], key
    assert any(real["spans"]) and any(real["traces"])  # the hooks were on


def relayout(array, layout):
    """Re-home ``array.local`` in storage of another layout, same values."""
    flat = read_flat(array.local).copy()
    if layout == "strided":
        view = np.zeros(2 * flat.size, dtype=flat.dtype)[::2]
    elif layout == "transposed" and flat.size % 2 == 0 and flat.size > 2:
        view = np.zeros((2, flat.size // 2), dtype=flat.dtype).T
    else:
        return
    view[...] = flat.reshape(view.shape)
    array.local = view


def fields(comm, k, dtypes, layout, seed, home="random", partial=False):
    """k Parti sources, k permuted Chaos destinations and their schedules.

    ``dtypes[j % len]`` is array j's ``(source, destination)`` element
    types.  ``home`` places each destination element on a random rank,
    on its source's own rank (``"stay"``: every element is an
    intra-processor copy) or one rank to the right (``"right"``: none
    is); ``partial`` moves only the first 20 elements (most processor
    pairs exchange nothing, some members skip a pair others use).
    """
    rng = np.random.default_rng(seed)
    srcs, dsts, scheds = [], [], []
    for j in range(k):
        src_t, dst_t = dtypes[j % len(dtypes)]
        src = BlockPartiArray.from_global(
            comm, (100 * (j + 1) + np.arange(N)).astype(src_t))
        perm = rng.permutation(N)
        owners = np.empty(N, dtype=np.int64)
        if home == "random":
            owners[perm] = rng.integers(0, comm.size, N)
        else:
            owners[perm] = (np.arange(N) // (N // comm.size)
                            + (home == "right")) % comm.size
        dst = ChaosArray.zeros(comm, owners, dtype=dst_t)
        count = 20 - 4 * (j % 3) if partial else N
        sched = mc_compute_schedule(
            comm, "blockparti", src, section_sor((slice(0, count),), (N,)),
            "chaos", dst, index_sor(perm[:count]))
        relayout(src, layout)
        relayout(dst, layout)
        srcs.append(src)
        dsts.append(dst)
        scheds.append(sched)
    return srcs, dsts, scheds


def snapshot(arrays):
    return [(str(a.local.dtype), read_flat(a.local).tobytes()) for a in arrays]


F8, F4, I8 = np.float64, np.float32, np.int64
MIXED = [(F8, F8), (F4, F8), (I8, I8), (I8, F8)]  # incl. two widening casts


def single_program(k, policy, donate, layout="contiguous", dtypes=MIXED,
                   partial=False, reliability=False, faults=None,
                   copy_on_send=False, rounds=3):
    """A fused (or, for k = 1, bare) move repeated ``rounds`` times — the
    first message of a pair works its layout out, the second keeps it,
    the third replays it — then one ``mc_copy`` per member back again."""

    def body(comm):
        srcs, dsts, scheds = fields(comm, k, dtypes, layout, seed=k,
                                    partial=partial)
        # a zero-count half is no segment at all
        scheds[0].sends.setdefault(comm.size - 1 - comm.rank,
                                   RunList.from_dense(np.zeros(0, dtype=I8)))
        plan = mc_compute_plan(scheds)
        universe = SingleProgramUniverse(comm)
        if reliability:
            universe.enable_reliability()
        for _ in range(rounds):
            mc_copy_many(universe, plan, srcs, dsts, policy=policy,
                         donate=donate, timeout=60.0)
        back = [s.reverse() for s in scheds]
        for (src_t, dst_t), rev, b, a in zip(
                [dtypes[j % len(dtypes)] for j in range(k)], back, dsts, srcs):
            if np.can_cast(dst_t, src_t, "same_kind"):
                mc_copy(universe, rev, b, a, policy=policy, timeout=60.0)
        return snapshot(dsts), snapshot(srcs)

    vm = VirtualMachine(4, trace=True, observe=True, faults=faults,
                        copy_on_send=copy_on_send)
    return outcome(vm.run(body))


def both(monkeypatch, scenario, *args, **kwargs):
    real = scenario(*args, **kwargs)
    with monkeypatch.context() as patch:
        install_reference(patch)
        ref = scenario(*args, **kwargs)
    return real, ref


class TestSingleProgram:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("policy", [ORDERED, OVERLAP])
    @pytest.mark.parametrize("donate", [False, True])
    def test_fused_and_bare_moves(self, monkeypatch, k, policy, donate):
        assert_identical(*both(monkeypatch, single_program, k, policy, donate))

    @pytest.mark.parametrize("layout", ["strided", "transposed"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_strided_and_transposed_storage(self, monkeypatch, layout, k):
        assert_identical(*both(
            monkeypatch, single_program, k, ORDERED, False, layout=layout))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_empty_halves(self, monkeypatch, k):
        """Most pairs exchange nothing and members disagree on which."""
        real, ref = both(monkeypatch, single_program, k, "auto", False,
                         partial=True)
        assert_identical(real, ref)

    def test_copy_on_send(self, monkeypatch):
        assert_identical(*both(
            monkeypatch, single_program, 3, ORDERED, True, copy_on_send=True))

    @pytest.mark.parametrize("policy", [ORDERED, OVERLAP])
    def test_reliability_under_faults(self, monkeypatch, policy):
        def scenario():
            faults = FaultPlan(seed=1997, rates=FaultRates(
                drop=0.05, dup=0.05, reorder=0.05, delay=0.05))
            return single_program(3, policy, False, reliability=True,
                                  faults=faults, rounds=4)

        real, ref = both(monkeypatch, scenario)
        assert_identical(real, ref)
        assert sum(c.get("rel_retransmits", 0) for c in real["counters"]) > 0


class TestDonation:
    def _scenario(self):
        """Array 0's destination block arrives whole from the left
        neighbour (full span: adopted).  The same destination array also
        fills slot 1, whose schedule writes three more elements into it —
        one later in the adopting message itself, two in later messages
        from higher ranks — which must all land in the adopted storage."""

        def body(comm):
            P, n = comm.size, 6
            owners = np.repeat((np.arange(P) + 1) % P, n)  # shifted blocks
            src = BlockPartiArray.from_global(comm, np.arange(P * n, dtype=F8))
            top = BlockPartiArray.from_global(comm, -1.0 - np.arange(P * n))
            dst = ChaosArray.zeros(comm, owners)
            whole = index_sor(np.arange(P * n))
            full = mc_compute_schedule(comm, "blockparti", src, whole,
                                       "chaos", dst, whole)
            picks, onto = np.array([0, 2 * n, 3 * n]), np.array([2, 1, n + 1])
            some = mc_compute_schedule(comm, "blockparti", top, index_sor(picks),
                                       "chaos", dst, index_sor(onto))
            plan = mc_compute_plan([full, some])
            old = dst.local
            mc_copy_many(comm, plan, [src, top], [dst, dst], donate=True)
            first = snapshot([dst])
            rebound = dst.local is not old
            mc_copy_many(comm, plan, [src, top], [dst, dst], donate=True)
            got = dst.gather_global()
            return first, snapshot([dst]), rebound, got is not None and got.tolist()

        return outcome(VirtualMachine(4, trace=True, observe=True).run(body))

    def test_second_message_lands_in_adopted_storage(self, monkeypatch):
        real, ref = both(monkeypatch, self._scenario)
        assert_identical(real, ref)
        assert all(v[2] for v in real["values"]), "nothing was donated"
        got = np.array(real["values"][0][3])
        assert (got < 0).sum() == 3, "the second schedule's writes were lost"


class TestRefusedCast:
    def _scenario(self, home):
        """float64 -> int64 is refused: at the intra-processor copy
        (``"stay"``) or at the first unpack (``"right"``), on every rank
        alike.  Each reports the text; clocks and counters are the run's."""

        def body(comm):
            srcs, dsts, scheds = fields(
                comm, 2, [(F8, F8), (F8, I8)], "contiguous", seed=5, home=home)
            plan = mc_compute_plan(scheds)
            try:
                mc_copy_many(comm, plan, srcs, dsts)
            except TypeError as exc:
                return str(exc), snapshot(dsts)
            return "not refused", snapshot(dsts)

        vm = VirtualMachine(4, trace=True, observe=True, check_leaks=False)
        return outcome(vm.run(body))

    @pytest.mark.parametrize("home", ["stay", "right"])
    def test_same_text_clock_and_counters(self, monkeypatch, home):
        real, ref = both(monkeypatch, self._scenario, home)
        assert_identical(real, ref)
        for text, _ in real["values"]:
            assert text.startswith("refusing lossy element conversion float64")


def two_programs(k, policy, donate, reliability=False):
    """``push_many`` then ``pull_many`` of k same-schedule fields, 2 + 2."""
    base = 7.0 + np.arange(N)
    perm = np.random.default_rng(k).permutation(N)

    def src_prog(ctx):
        comm = ctx.comm
        arrays = [BlockPartiArray.from_global(comm, (j + 1) * base)
                  for j in range(k)]
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni, "blockparti", arrays[0], section_sor((slice(0, N),), (N,)),
            "chaos", None, None)
        ex = CoupledExchange(uni, sched, policy=policy, reliability=reliability)
        for _ in range(3):
            ex.push_many(arrays, donate=donate)
            ex.pull_many(arrays, donate=donate)
        return snapshot(arrays)

    def dst_prog(ctx):
        comm = ctx.comm
        arrays = [ChaosArray.zeros(comm, perm % comm.size) for _ in range(k)]
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni, "blockparti", None, None, "chaos", arrays[0], index_sor(perm))
        ex = CoupledExchange(uni, sched, policy=policy, reliability=reliability)
        seen = []
        for _ in range(3):
            ex.push_many(arrays, donate=donate)
            seen.append(snapshot(arrays))
            for a in arrays:
                a.local *= 2.0
            ex.pull_many(arrays, donate=donate)
        return seen

    res = run_programs(
        [ProgramSpec("srcp", 2, src_prog), ProgramSpec("dstp", 2, dst_prog)],
        trace=True, observe=True)
    return {name: outcome(res[name]) for name in ("srcp", "dstp")}


class TestTwoPrograms:
    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("policy", [ORDERED, OVERLAP, "auto"])
    def test_push_many_pull_many(self, monkeypatch, k, policy):
        real, ref = both(monkeypatch, two_programs, k, policy, False)
        for prog in real:
            assert_identical(real[prog], ref[prog])

    def test_donating_reliable_exchange(self, monkeypatch):
        real, ref = both(monkeypatch, two_programs, 3, ORDERED, True,
                         reliability=True)
        for prog in real:
            assert_identical(real[prog], ref[prog])


# ---------------------------------------------------------------------------
# the adapter wrappers: one-shot conveniences over the same kernels
# ---------------------------------------------------------------------------


class TestAdapterWrappers:
    """``pack`` / ``pack_into`` / ``unpack`` / ``copy_local`` called
    directly give the bytes, the charge and the refusals they always
    gave: one ``cost.pack(n)`` per call, after the cast check."""

    def _run(self, fn):
        def body(comm):
            proc = comm.process
            adapter = get_adapter("chaos")
            array = ChaosArray.zeros(comm, np.zeros(10, dtype=np.int64))
            array.local[:] = np.arange(10.0)
            before = proc.clock
            out = fn(adapter, array, proc)
            return out, proc.clock - before, proc.cost.pack(4)

        return VirtualMachine(1).run(body).values[0]

    OFFS = np.array([7, 1, 4, 2])

    def test_pack(self):
        got, charged, one = self._run(
            lambda ad, a, p: ad.pack(a, self.OFFS).tolist())
        assert got == [7.0, 1.0, 4.0, 2.0] and charged == one

    def test_pack_into(self):
        def fn(adapter, array, proc):
            out = np.zeros(4)
            adapter.pack_into(array, RunList.from_dense(self.OFFS), out)
            return out.tolist()

        got, charged, one = self._run(fn)
        assert got == [7.0, 1.0, 4.0, 2.0] and charged == one

    def test_unpack(self):
        def fn(adapter, array, proc):
            donated = adapter.unpack(array, self.OFFS, np.full(4, 9, dtype=F4))
            return donated, array.local.tolist()

        (donated, got), charged, one = self._run(fn)
        assert not donated and charged == one
        assert got == [0.0, 9.0, 9.0, 3.0, 9.0, 5.0, 6.0, 9.0, 8.0, 9.0]

    def test_copy_local(self):
        def fn(adapter, array, proc):
            other = ChaosArray.like(array)
            adapter.copy_local(array, self.OFFS, other, np.arange(4))
            return other.local[:5].tolist()

        got, charged, one = self._run(fn)
        assert got == [7.0, 1.0, 4.0, 2.0, 0.0] and charged == one

    @pytest.mark.parametrize("call", ["pack_into", "unpack", "copy_local"])
    def test_refusals_leave_the_clock_alone(self, call):
        def fn(adapter, array, proc):
            ints = ChaosArray.like(array, dtype=I8)
            try:
                if call == "pack_into":
                    adapter.pack_into(array, self.OFFS, np.zeros(4, dtype=I8))
                elif call == "unpack":
                    adapter.unpack(ints, self.OFFS, np.ones(4))
                else:
                    adapter.copy_local(array, self.OFFS, ints, self.OFFS)
            except TypeError as exc:
                return str(exc), ints.local.tolist()
            return "not refused", None

        (text, ints), charged, _ = self._run(fn)
        assert text.startswith("refusing lossy element conversion float64 -> int64")
        assert charged == 0.0 and ints == [0] * 10

    def test_pack_into_length_mismatch(self):
        def fn(adapter, array, proc):
            with pytest.raises(ValueError, match="3 slots for 4 offsets"):
                adapter.pack_into(array, self.OFFS, np.zeros(3))
            return None

        _, charged, _ = self._run(fn)
        assert charged == 0.0
