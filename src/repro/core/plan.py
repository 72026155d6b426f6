"""The move executor: MovePlan compilation and the one send/receive pair.

The paper's data move (§4.1.4) is one primitive — pack per destination,
"at most one message ... between each source and each destination
processor", unpack — and this module is the only place that executes
it.  A :class:`MovePlan` is k schedules over one universe compiled into
per-peer pack/unpack programs; every move in the repo runs one:

- ``k = 1`` — the single-schedule move (:func:`~repro.core.datamove.
  data_move` and its halves, ``CoupledExchange.push``/``pull``, a
  one-op service round).  Its wire form is *bare*: the adapter's
  header-less packed buffer, exactly the paper's message — no staging
  lease, no ``plan:fuse`` event, no ``plan_*`` counter — so it charges
  pack, one payload-sized message and unpack per pair and nothing else:
  the sequence behind tables 3/4/5, guarded byte-for-byte by CI.
- ``k >= 2`` — coupled applications move several arrays along the same
  (or compatible) mappings every timestep (§5.1 ships multiple physical
  fields per iteration, §5.4 a batch of vectors); run as k copies that
  is ``k * P * (P-1)`` messages.  The plan sends one *fused* message per
  processor pair instead (:class:`~repro.core.wire.FusedBuffer`: ``k-1``
  LogGP α's saved per pair, at the honest price of a 16 B envelope + a
  16 B header per segment + alignment padding), staged in a buffer
  leased from the per-rank :class:`~repro.vmachine.message.PackArena`
  and returned by the *receiver* after the last segment is unpacked, so
  iterative loops stop allocating per message per timestep.  Arena
  checkout/release never charges the logical clock.

The wire form is a function of k alone (``k = 1 ⇒ bare``): there is no
option selecting it, and :func:`_fuse` / :func:`_received_segments` are
the only code that looks at it.  A plan is a *flat program*:
:func:`compile_plan` lowers every half to its ``MoveProgram`` once, a
rank's traversal (:class:`_Route`) and a pair's wire layout are memoised
on the plan, and a move is one loop over those rows — per segment cast
check → pack charge → one batched NumPy operation (the segment kernels
of :mod:`repro.core.registry`).  Everything else exists once:

- **one send loop** (:func:`plan_move_send`): destinations in ascending
  (``ORDERED``) or rotated (``OVERLAP``) order, on the universe's data
  plane (the endpoint, or its reliable view), ending in one
  :meth:`~repro.core.universe.Universe.end_phase` (fence, or only flush);
- **one completion loop** (:func:`plan_move_recv`) over the data plane's
  ``arrivals``: one ``(source rank, payload)`` per active source, in rank
  order or — ``OVERLAP`` — in arrival order;
- **one composition** (:func:`plan_move`): in a single program, direct
  intra-processor copies, the send half, the receive half, then one
  fence — fencing between the halves would deadlock, every rank awaiting
  acks its peers only produce in *their* receive half.

``policy="auto"`` is resolved here, per executed plan and per rank, from
the executor's own list of active remote sources
(:func:`repro.autotune.auto.resolve_policy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from repro.core.dataplane import MoveProgram, compile_offsets
from repro.core.policy import ExecutorPolicy, ordered_or_rotated
from repro.core.registry import (
    copy_segment,
    get_adapter,
    pack_segment,
    unpack_segment,
)
from repro.core.schedule import CommSchedule
from repro.core.universe import TAG_DATA, Universe
from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout
from repro.vmachine.process import Process
from repro.vmachine.trace import TraceEvent

__all__ = [
    "MovePlan",
    "PlanSegment",
    "compile_plan",
    "plan_of",
    "plan_move",
    "plan_move_send",
    "plan_move_recv",
]


@dataclass(frozen=True, slots=True)
class PlanSegment:
    """One lowered row of a per-peer program: one schedule's contribution
    to one message.

    ``schedule_id`` is the row's *array slot* — it indexes
    :attr:`MovePlan.schedules` and the arrays handed to a move;
    ``program`` is that schedule's half for the peer the row's program
    addresses (send half on the source side, receive half on the
    destination side), already resolved.  Construction *is* the lowering:
    pass the half itself and the ``compile_offsets`` memo is consulted
    here, once, instead of once per segment per move.
    """

    schedule_id: int
    program: MoveProgram

    def __post_init__(self):
        object.__setattr__(self, "program", compile_offsets(self.program))

    @property
    def count(self) -> int:
        return self.program.n


@dataclass(frozen=True)
class MovePlan:
    """Compiled fusion of k schedules into one message per processor pair.

    ``send_programs[d]`` — the pack program this rank runs for
    destination-group rank ``d``: segments in schedule order, one per
    member schedule with elements bound for ``d``.  Present (nonempty)
    only on source-group members with traffic.

    ``recv_programs[s]`` — the unpack program for source-group rank
    ``s``, mirror-ordered so the i-th received segment scatters through
    the i-th program entry.  The wire carries self-describing
    :class:`~repro.core.wire.SegmentHeader` entries besides, and the
    executor cross-checks them, so a sender/receiver plan mismatch fails
    loudly.

    Compilation is purely local — it reorganizes this rank's existing
    schedule halves and charges no logical time, so compiling a plan is
    never a collective operation (every rank may compile independently,
    or not at all).
    """

    schedules: tuple[CommSchedule, ...]
    send_programs: dict[int, tuple[PlanSegment, ...]]
    recv_programs: dict[int, tuple[PlanSegment, ...]]
    #: what executing the plan resolves lazily and then reuses: this
    #: rank's :class:`_Route` per ``(policy, role)`` and the fused
    #: :class:`~repro.core.wire.WireLayout` per ``(peer, source dtypes)``
    _routes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- introspection (benchmarks, plan-summary CLI, tests) ----------------

    @property
    def nschedules(self) -> int:
        return len(self.schedules)

    @property
    def fused_message_count(self) -> int:
        """Messages this rank sends when the plan executes (remote pairs
        counted; the executor additionally skips the self-pair)."""
        return len(self.send_programs)

    @property
    def unfused_message_count(self) -> int:
        """Messages the same traffic costs as k sequential copies."""
        return sum(len(prog) for prog in self.send_programs.values())

    @property
    def alpha_saved(self) -> int:
        """Per-pair message latencies the fusion eliminates on this rank."""
        return self.unfused_message_count - self.fused_message_count

    def pair_table(self, itemsizes: Sequence[int] | None = None) -> list[dict]:
        """Per-destination summary rows (peer, segments, elements, bytes).

        ``itemsizes`` supplies each schedule's element size (default 8:
        the paper's doubles); ``data_bytes`` is the fused message's
        payload before headers/padding (the exact wire size needs the
        arrays' dtypes — see :attr:`~repro.core.wire.FusedBuffer.nbytes`).
        """
        if itemsizes is None:
            itemsizes = [8] * len(self.schedules)
        rows = []
        for d in sorted(self.send_programs):
            prog = self.send_programs[d]
            data_bytes = sum(
                seg.count * itemsizes[seg.schedule_id] for seg in prog
            )
            rows.append(
                {
                    "peer": d,
                    "segments": len(prog),
                    "elements": sum(seg.count for seg in prog),
                    "data_bytes": data_bytes,
                    "alpha_saved": len(prog) - 1,
                }
            )
        return rows


def compile_plan(schedules: Sequence[CommSchedule]) -> MovePlan:
    """Compile schedules sharing one universe into a :class:`MovePlan`.

    Validates that every member spans the same source/destination group
    sizes (they must have been built over the same
    :class:`~repro.core.universe.Universe` shape).  Only peers a
    schedule actually exchanges elements with contribute rows — each
    lowered here, once (:class:`PlanSegment`) — so an empty half adds
    nothing to any program.  Exactly one schedule yields a *bare* plan
    (see the module docstring): the wire form follows from
    ``len(schedules)`` and nothing else.
    """
    schedules = tuple(schedules)
    if not schedules:
        raise ValueError("compile_plan needs at least one schedule")
    s0 = schedules[0]
    for i, sched in enumerate(schedules[1:], start=1):
        if (sched.src_size, sched.dst_size) != (s0.src_size, s0.dst_size):
            raise ValueError(
                f"schedule {i} spans groups "
                f"{sched.src_size}x{sched.dst_size} but schedule 0 spans "
                f"{s0.src_size}x{s0.dst_size}; a plan needs one universe"
            )
    send_programs: dict[int, list[PlanSegment]] = {}
    recv_programs: dict[int, list[PlanSegment]] = {}
    for sid, sched in enumerate(schedules):
        for programs, halves in (
            (send_programs, sched.sends), (recv_programs, sched.recvs)
        ):
            for peer, offsets in halves.items():
                if len(offsets):
                    programs.setdefault(peer, []).append(
                        PlanSegment(sid, offsets)
                    )
    return MovePlan(
        schedules=schedules,
        send_programs={d: tuple(p) for d, p in sorted(send_programs.items())},
        recv_programs={s: tuple(p) for s, p in sorted(recv_programs.items())},
    )


def plan_of(schedule: CommSchedule, k: int = 1, reverse: bool = False) -> MovePlan:
    """The plan moving ``k`` arrays along ``schedule`` (or its reverse).

    The same-schedule case of :func:`compile_plan` — a single-schedule
    move (``k = 1``), or the k same-shaped fields a coupled timestep
    loop exchanges every iteration (paper §5.1) — compiled on first use
    and memoised on the schedule object, so repeated moves get a stable
    plan identity for the pooled staging buffers behind it and a pull
    never rebuilds the reversed schedule.  Local, like every compile.
    """
    plan = schedule._plans.get((k, reverse))
    if plan is None:
        member = schedule.reverse() if reverse else schedule
        plan = schedule._plans[k, reverse] = compile_plan((member,) * k)
    return plan


# ---------------------------------------------------------------------------
# wire form: the only code that distinguishes bare (k = 1) from fused
# ---------------------------------------------------------------------------


def _fuse(
    plan: MovePlan, program: tuple[PlanSegment, ...], datas: Sequence[Any],
    dtypes: tuple, proc: Process, d: int,
) -> FusedBuffer:
    """The fused payload for destination rank ``d``: every row of its
    program packed into one staging buffer leased from this rank's arena,
    noted by per-rank fusion counters and a ``plan:fuse`` trace event
    (kind-prefixed like the fault layer's ``fault:*``, riding the normal
    trace stream).  One (peer, source dtypes) shares one wire layout."""
    layouts, key = plan._layouts, (d, dtypes)
    layout = layouts.get(key)
    if layout is None:
        layout = WireLayout([
            SegmentHeader(
                seg.schedule_id, dtypes[seg.schedule_id].str, seg.program.n
            )
            for seg in program
        ])
        # Kept from the pair's second message on: a timestep loop reuses
        # it for ever, a plan executed once (the service compiles one per
        # round and keeps them resident) retains no per-segment objects.
        layouts[key] = layout if key in layouts else None
    lease = proc.arena.checkout(layout.total, pooled=not proc.copy_on_send)
    fused = FusedBuffer(layout, lease.buffer, lease=lease)
    with proc.span("pack"):
        for seg, view in zip(program, fused.segments()):
            pack_segment(proc, seg.program, datas[seg.schedule_id], view)
    metrics = proc.metrics
    metrics.incr("plan_fused_messages")
    metrics.incr("plan_fused_segments", len(program))
    metrics.incr("plan_alpha_saved", len(program) - 1)
    if proc.trace is not None:
        proc.trace.append(TraceEvent(
            "plan:fuse", proc.clock, proc.rank, d, TAG_DATA, fused.nbytes,
            phase=proc.phase_path,
        ))
    return fused


def _received_segments(
    program: tuple[PlanSegment, ...], payload: Any, s: int, bare: bool
) -> Sequence[Any]:
    """The payload from source rank ``s`` as one buffer per program row,
    after checking — on every message — that it is what the program
    expects: a bare buffer of the row's length, or a fused buffer whose
    headers match row by row."""
    if not bare:
        _check_fused(program, payload, s)
        return payload.segments()
    if isinstance(payload, FusedBuffer):
        raise RuntimeError(
            f"plan mismatch: source rank {s} sent a fused buffer of "
            f"{payload.nsegments} segment(s) to a single-schedule move"
        )
    if len(payload) != program[0].program.n:
        raise RuntimeError(
            f"schedule mismatch: received {len(payload)} elements from "
            f"source rank {s} but expected {program[0].program.n}"
        )
    return (payload,)


def _check_fused(
    program: tuple[PlanSegment, ...], fused: Any, s: int
) -> None:
    if not isinstance(fused, FusedBuffer):
        raise RuntimeError(
            f"plan mismatch: source rank {s} sent a "
            f"{type(fused).__name__}, not a fused buffer — was the peer "
            "executing a single-schedule move?"
        )
    if fused.nsegments != len(program):
        raise RuntimeError(
            f"plan mismatch: fused message from source rank {s} carries "
            f"{fused.nsegments} segment(s) but the unpack program expects "
            f"{len(program)}"
        )
    for i, (header, seg) in enumerate(zip(fused.headers, program)):
        if header.schedule_id != seg.schedule_id:
            raise RuntimeError(
                f"plan mismatch: segment {i} from source rank {s} belongs "
                f"to schedule {header.schedule_id}, expected "
                f"{seg.schedule_id}"
            )
        if header.count != seg.program.n:
            raise RuntimeError(
                f"schedule mismatch: segment {i} (schedule "
                f"{header.schedule_id}) from source rank {s} carries "
                f"{header.count} elements but expected {seg.program.n}"
            )


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


def _check_arrays(plan: MovePlan, arrays: Sequence[Any], side: str) -> None:
    if len(arrays) != len(plan.schedules):
        raise ValueError(
            f"plan fuses {len(plan.schedules)} schedule(s) but "
            f"{len(arrays)} {side} array(s) were supplied"
        )


class _Route(NamedTuple):
    """One rank's traversal of a plan: everything a move used to re-derive
    from the programs and the universe on every call."""

    #: the policy executed (``"auto"`` resolved from ``sources``)
    policy: ExecutorPolicy
    #: ``(d, program)`` per remote destination, in injection order
    dests: tuple
    #: remote source ranks this rank receives a message from, ascending
    sources: tuple
    #: single program only: ``(array slot, source program, destination
    #: program or None)`` per schedule with intra-processor elements
    local: tuple


def _route(
    plan: MovePlan, universe: Universe, policy: ExecutorPolicy | str
) -> _Route:
    """The :class:`_Route` of the calling rank, memoised on the plan per
    ``(policy, role)``.  ``"auto"`` resolves here, per rank, from the
    active remote sources of the plan being executed."""
    me_src, me_dst = universe.my_src_rank, universe.my_dst_rank
    key = (policy, me_src, me_dst, universe.single_program)
    route = plan._routes.get(key)
    if route is not None:
        return route
    sources = tuple(
        s for s in sorted(plan.recv_programs) if not universe.same_proc_src(s)
    )
    if not isinstance(policy, ExecutorPolicy):
        # Imported here: repro.autotune itself imports repro.core.
        from repro.autotune.auto import resolve_policy

        policy = resolve_policy(policy, sources)
    dests = local = ()
    if me_src is not None:
        dests = tuple(
            (d, plan.send_programs[d])
            for d in ordered_or_rotated(
                list(plan.send_programs), me_src, universe.dst_size, policy
            )
            if not universe.same_proc_dst(d)
        )
    if universe.single_program:
        into = {
            seg.schedule_id: seg.program
            for seg in plan.recv_programs.get(me_src, ())
        }
        local = tuple(
            (seg.schedule_id, seg.program, into.get(seg.schedule_id))
            for seg in plan.send_programs.get(me_dst, ())
        )
    route = plan._routes[key] = _Route(policy, dests, sources, local)
    return route


def plan_move_send(
    plan: MovePlan,
    src_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    fence: bool | None = None,
) -> None:
    """Send half of a move (the paper's ``MC_DataMoveSend``): one message
    per destination processor.

    Must be called on every source-group processor, with the i-th source
    array pairing with the i-th member schedule; destination-group
    processors concurrently call :func:`plan_move_recv`.  Intra-processor
    transfers are skipped here (:func:`plan_move` copies them directly).
    Under ``OVERLAP`` the destinations are visited in rotated order
    starting at ``(my_src_rank + 1) % dst_size`` instead of ascending
    rank, staggering injection across the destination group.

    One member schedule packs the bare buffer, the gather of its one
    row; several pack into one leased staging buffer (:func:`_fuse`).

    With reliability enabled (payloads are opaque to the ack/retransmit
    protocol, so bare and fused messages are handled identically),
    ``fence`` controls the end-of-half ack barrier: default ``None``
    fences in the coupled (two-program) case — a pure sender must learn
    its peer received everything — and skips it in the single-program
    case, where :func:`plan_move` fences once after the receive half.  A
    skipped fence still flushes held-back packets so the receive half
    cannot wedge on a reordered final message.  ``timeout`` bounds the
    fence's ack wait.
    """
    if universe.my_src_rank is None:
        raise RuntimeError("plan_move_send called on a non-source processor")
    _check_arrays(plan, src_arrays, "source")
    route = _route(plan, universe, policy)
    proc = universe.process
    datas = [
        get_adapter(sched.src_lib).local_data(array)
        for sched, array in zip(plan.schedules, src_arrays)
    ]
    dtypes = tuple([data.dtype for data in datas])
    bare = len(datas) == 1
    send = universe.data_plane(universe.to_dst).send
    for d, program in route.dests:
        if bare:
            with proc.span("pack"):
                payload = pack_segment(proc, program[0].program, datas[0])
        else:
            payload = _fuse(plan, program, datas, dtypes, proc, d)
        proc.metrics.incr("cache_program_hits", len(program))
        send(d, payload, TAG_DATA)
    if fence is None:
        fence = not universe.single_program
    universe.end_phase(fence, timeout)


def plan_move_recv(
    plan: MovePlan,
    dst_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> None:
    """Receive half of a move (``MC_DataMoveRecv``): one message per
    source processor, unpacked as the data plane's ``arrivals`` delivers
    them — ascending rank order, or logical-arrival order under
    ``OVERLAP`` with more than one source.  ``timeout`` bounds each wait
    (wall-clock seconds, one wait, no retry): it raises ``TimeoutError``
    naming that budget, and a receive blocked on a rank the failure
    detector knows dead raises
    :class:`~repro.vmachine.faults.RankLostError` immediately.

    Placement depends only on the schedule offsets, so completion order
    never changes the destination data.  ``donate=True`` lets an eligible
    received buffer or segment (full-coverage unpack, exact dtype) be
    adopted as the destination array's storage instead of scattered
    through — the zero-copy receive path; the clock trajectory is
    identical either way.  A fused payload then returns its staging
    buffer to the sender's arena — unless a segment was donated: the
    bytes belong to the array now and must never be recycled, so the
    lease is severed and :meth:`~repro.core.wire.FusedBuffer.release`
    becomes a no-op.
    """
    if universe.my_dst_rank is None:
        raise RuntimeError(
            "plan_move_recv called on a non-destination processor"
        )
    _check_arrays(plan, dst_arrays, "destination")
    route = _route(plan, universe, policy)
    proc = universe.process
    adapters = [get_adapter(sched.dst_lib) for sched in plan.schedules]
    datas = [a.local_data(x) for a, x in zip(adapters, dst_arrays)]
    bare = len(adapters) == 1
    for s, payload in universe.data_plane(universe.to_src).arrivals(
        route.sources, TAG_DATA,
        overlap=route.policy is ExecutorPolicy.OVERLAP, timeout=timeout,
    ):
        program = plan.recv_programs[s]
        donated = False
        segments = _received_segments(program, payload, s, bare)
        with proc.span("unpack"):
            for seg, values in zip(program, segments):
                i = seg.schedule_id
                if unpack_segment(proc, adapters[i], dst_arrays[i],
                                  seg.program, datas[i], values, donate):
                    # Adoption rebound that array's storage: later rows and
                    # messages (the array may fill several slots) must
                    # address the new one.
                    donated = True
                    datas = [a.local_data(x) for a, x in zip(adapters, dst_arrays)]
        proc.metrics.incr("cache_program_hits", len(program))
        if not bare:
            if donated:
                payload.sever_lease()
            payload.release()


def _local_copies(
    plan: MovePlan, route: _Route, src_arrays: Sequence[Any],
    dst_arrays: Sequence[Any], proc: Process,
) -> None:
    """Direct intra-processor copies (no intermediate buffer, §5.3).

    :func:`~repro.core.registry.copy_segment` shares its lossy-cast
    refusal with the remote unpack path — local and remote moves reject
    or allow exactly the same dtype pairs.  Both programs of a pair are
    linearization-ordered over the same element subset, so the direct
    aligned copy is correct.
    """
    for i, src_program, dst_program in route.local:
        if dst_program is None or dst_program.n != src_program.n:
            raise RuntimeError("inconsistent local halves of the schedule")
        sched = plan.schedules[i]
        with proc.span("copy:local"):
            copy_segment(
                proc,
                src_program, get_adapter(sched.src_lib).local_data(src_arrays[i]),
                dst_program, get_adapter(sched.dst_lib).local_data(dst_arrays[i]),
            )
    proc.metrics.incr("cache_program_hits", 2 * len(route.local))


def plan_move(
    plan: MovePlan,
    src_arrays: Sequence[Any],
    dst_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> None:
    """Full move for processors holding both roles (single program), or
    role dispatch to the proper half otherwise.

    In the single-program case the intra-processor elements of every
    member schedule are copied directly, buffer-free — fusion only
    changes the *inter*-processor message structure — then the
    aggregated messages flow (sends first; the virtual transport is
    buffered, so this cannot deadlock).  With reliability enabled the
    rank fences once at the end, after its receive half, when every peer
    is already producing acks.
    """
    route = _route(plan, universe, policy)
    policy = route.policy
    if universe.single_program:
        _check_arrays(plan, src_arrays, "source")
        _check_arrays(plan, dst_arrays, "destination")
        if route.local:
            _local_copies(plan, route, src_arrays, dst_arrays, universe.process)
        plan_move_send(plan, src_arrays, universe, policy=policy,
                       timeout=timeout, fence=False)
        plan_move_recv(plan, dst_arrays, universe, policy=policy,
                       timeout=timeout, donate=donate)
        universe.end_phase(timeout=timeout)
        return
    if universe.my_src_rank is not None:
        plan_move_send(plan, src_arrays, universe, policy=policy,
                       timeout=timeout)
    if universe.my_dst_rank is not None:
        plan_move_recv(plan, dst_arrays, universe, policy=policy,
                       timeout=timeout, donate=donate)
