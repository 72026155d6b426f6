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
option selecting it, and :func:`_fuse` / :func:`_received_segments` /
:func:`wire_nbytes` are the only code that looks at it.  A plan is a
*flat program*: :func:`compile_plan` lowers every half to its
``MoveProgram`` once, a rank's traversal (:class:`Route`) and a pair's
wire layout are memoised on the plan, and a move is one loop over those
rows — a message's segments, run by one call of the row kernel
(:func:`repro.core.registry.move_row`: per segment cast check → pack
charge → one batched NumPy operation).  Everything else exists once:

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

A rank's traversal — local copies, sends in injection order, receives
— is built by one function, :func:`traversal`, which also resolves
``policy="auto"`` per executed plan and per rank from the active remote
sources (:func:`repro.core.policy.resolve_policy`).  The autotune replay
(:meth:`repro.autotune.model.CostModel.simulate_move`) walks routes built
by the same function, and prices each pair's message with
:func:`wire_nbytes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.core.dataplane import MoveProgram
from repro.core.policy import ExecutorPolicy, ordered_or_rotated, resolve_policy
from repro.core.registry import PlanSegment, get_adapter, move_row
from repro.core.schedule import CommSchedule
from repro.core.universe import TAG_DATA, Universe
from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout, fused_nbytes
from repro.vmachine.process import Process
from repro.vmachine.trace import TraceEvent

__all__ = [
    "MovePlan",
    "PlanSegment",
    "Route",
    "compile_plan",
    "plan_of",
    "plan_move",
    "plan_move_send",
    "plan_move_recv",
    "traversal",
    "wire_nbytes",
]


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
    #: rank's :class:`Route` per ``(policy, role)`` and the fused
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
    :class:`~repro.core.universe.Universe` shape).  One schedule is
    lowered here: one :class:`~repro.core.registry.PlanSegment` per half
    with elements.  Several are assembled from each member's memoised
    rows (:func:`plan_of`), renumbered to its slot, so no half is lowered
    twice.  Exactly one schedule yields a *bare* plan (see the module
    docstring): the wire form follows from ``len(schedules)`` and nothing
    else.
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
    if len(schedules) == 1:
        return MovePlan(schedules, *(
            {peer: (PlanSegment(0, offsets),)
             for peer, offsets in sorted(halves.items()) if len(offsets)}
            for halves in (s0.sends, s0.recvs)
        ))
    rows: tuple[dict, dict] = ({}, {})
    for sid, own in enumerate(map(plan_of, schedules)):
        for programs, own_rows in zip(rows, (own.send_programs, own.recv_programs)):
            for peer, (seg,) in own_rows.items():
                programs.setdefault(peer, []).append(PlanSegment(sid, seg.program))
    return MovePlan(schedules, *(
        {peer: tuple(row) for peer, row in sorted(programs.items())}
        for programs in rows
    ))


def plan_of(schedule: CommSchedule, k: int = 1, reverse: bool = False) -> MovePlan:
    """The plan moving ``k`` arrays along ``schedule`` (or its reverse).

    The same-schedule case of :func:`compile_plan` — a single-schedule
    move (``k = 1``), or the k same-shaped fields a coupled timestep
    loop exchanges every iteration (paper §5.1) — compiled on first use
    and memoised on the schedule object, so repeated moves get a stable
    plan identity for the pooled staging buffers behind it; a reversed
    plan is that of the schedule's one memoised reverse, so a pull never
    rebuilds it.  Local, like every compile.
    """
    plan = schedule._plans.get((k, reverse))
    if plan is None:
        if reverse:  # via the one reverse, whose plans are memoised on it
            rev = plan_of(schedule, 1, True).schedules[0] if k > 1 else schedule.reverse()
            plan = plan_of(rev, k)
        else:
            plan = compile_plan((schedule,) * k)
        schedule._plans[k, reverse] = plan
    return plan


# ---------------------------------------------------------------------------
# wire form: the only code that distinguishes bare (k = 1) from fused
# ---------------------------------------------------------------------------


def wire_nbytes(segment_nbytes: Sequence[int]) -> int:
    """Bytes one pair's message puts on the wire, from its segments'
    payload bytes: the bare buffer itself for one segment, the fused
    form (:func:`~repro.core.wire.fused_nbytes`) for several."""
    if len(segment_nbytes) == 1:
        return segment_nbytes[0]
    return fused_nbytes(segment_nbytes)


def _fuse(
    plan: MovePlan, program: tuple[PlanSegment, ...], datas: Sequence[Any],
    dtypes: tuple, proc: Process, d: int,
) -> FusedBuffer:
    """The fused payload for destination rank ``d``: its row packed into
    one staging buffer leased from this rank's arena, noted by a
    ``plan:fuse`` trace event (kind-prefixed like the fault layer's
    ``fault:*``, riding the normal trace stream).  One (peer, source
    dtypes) shares one wire layout."""
    layouts, key = plan._layouts, (d, dtypes)
    layout = layouts.get(key)
    if layout is None:
        layout = WireLayout([
            SegmentHeader(
                seg.schedule_id, dtypes[seg.schedule_id].str, seg.program.n
            )
            for seg in program
        ])
        layouts[key] = layout
    lease = proc.arena.checkout(layout.total, pooled=not proc.copy_on_send)
    fused = FusedBuffer(layout, lease.buffer, lease=lease)
    move_row(proc, "gather", program, datas, fused.segments(), "pack")
    if proc.trace is not None:
        proc.trace.append(tuple.__new__(TraceEvent, (
            "plan:fuse", proc.clock, proc.rank, d, TAG_DATA, fused.nbytes,
            0.0, proc.phase_path,
        )))
    return fused


def _received_segments(
    program: tuple[PlanSegment, ...], payload: Any, s: int, bare: bool
) -> Sequence[Any]:
    """The payload from source rank ``s`` as one buffer per segment of
    its row, after checking — on every message — that it is what the row
    expects: a bare buffer of the segment's length, or a fused buffer
    whose headers match segment by segment."""
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


class Route(NamedTuple):
    """One rank's traversal of a move, in the order it is charged: the
    direct local copies, then one send per remote destination, then one
    receive per remote source.  The executor builds it from a compiled
    plan (:func:`_route`), the autotune replay from a row of pair counts
    — both through :func:`traversal`, so the two cannot order a move
    differently."""

    #: the policy executed (``"auto"`` resolved from ``sources``)
    policy: ExecutorPolicy
    #: ``(d, row)`` per remote destination, in injection order
    dests: tuple
    #: remote source ranks this rank receives a message from, ascending
    sources: tuple
    #: the intra-processor work, as the caller supplied it
    local: Any

    def completion(self, arrival: Callable[[int], float]) -> list[int]:
        """The order the receives complete in, given each source's
        logical ``arrival``: ascending rank, or under ``OVERLAP`` the
        wait-any order — smallest ``(arrival, rank)`` first."""
        if self.policy is ExecutorPolicy.OVERLAP:
            return sorted(self.sources, key=lambda s: (arrival(s), s))
        return list(self.sources)


def traversal(
    policy: ExecutorPolicy | str, me: int | None, size: int, local: Any,
    sends: dict[int, Any], sources: Iterable[int],
) -> Route:
    """The :class:`Route` of rank ``me`` of a ``size``-rank destination
    group: ``sends`` maps each remote destination to its row, ``sources``
    lists the remote source ranks.  ``"auto"`` resolves here, per rank,
    from those sources; destinations are visited ascending (``ORDERED``)
    or rotated (``OVERLAP``)."""
    sources = tuple(sorted(sources))
    policy = resolve_policy(policy, sources)
    dests = tuple(
        (d, sends[d]) for d in ordered_or_rotated(list(sends), me, size, policy)
    ) if sends else ()
    return Route(policy, dests, sources, local)


def _route(
    plan: MovePlan, universe: Universe, policy: ExecutorPolicy | str
) -> Route:
    """The calling rank's :class:`Route` of ``plan``, memoised on the plan
    per ``(policy, role)``.  ``local`` holds, in a single program, one
    copy segment (its destination half in ``into``) per schedule with
    intra-processor elements."""
    me_src, me_dst = universe.my_src_rank, universe.my_dst_rank
    key = (policy, me_src, me_dst, universe.single_program)
    route = plan._routes.get(key)
    if route is not None:
        return route
    local = ()
    if universe.single_program:
        into = {
            seg.schedule_id: seg.program
            for seg in plan.recv_programs.get(me_src, ())
        }
        local = tuple(
            PlanSegment(seg.schedule_id, seg.program, _into(into, seg))
            for seg in plan.send_programs.get(me_dst, ())
        )
    sends = {} if me_src is None else {
        d: program for d, program in plan.send_programs.items()
        if not universe.same_proc_dst(d)
    }
    route = plan._routes[key] = traversal(
        policy, me_src, universe.dst_size, local, sends,
        [s for s in plan.recv_programs if not universe.same_proc_src(s)],
    )
    return route


def _into(into: dict, seg: PlanSegment) -> MoveProgram:
    """The destination half of ``seg``'s local copy: both are ordered by
    linearization position, so the direct aligned copy is correct."""
    program = into.get(seg.schedule_id)
    if program is None or program.n != seg.count:
        raise RuntimeError("inconsistent local halves of the schedule")
    return program


def _storage(plan: MovePlan, arrays: Sequence[Any], side: str) -> list:
    """Each slot's rank-local storage, from the move's ``side``
    (``"source"`` / ``"destination"``) arrays, one per member schedule."""
    if len(arrays) != len(plan.schedules):
        raise ValueError(
            f"plan fuses {len(plan.schedules)} schedule(s) but "
            f"{len(arrays)} {side} array(s) were supplied"
        )
    lib = "src_lib" if side == "source" else "dst_lib"
    return [
        get_adapter(getattr(sched, lib)).local_data(array)
        for sched, array in zip(plan.schedules, arrays)
    ]


def plan_move_send(
    plan: MovePlan,
    src_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
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
    segment; several pack into one leased staging buffer (:func:`_fuse`).
    The move's counters are bumped once, after the loop.

    With reliability enabled (payloads are opaque to the ack/retransmit
    protocol, so bare and fused messages are handled identically), the
    half ends in the ack barrier in the coupled (two-program) case — a
    pure sender must learn its peer received everything — and skips it
    in the single-program case, where :func:`plan_move` fences once after
    the receive half.  A skipped fence still flushes held-back packets so
    the receive half cannot wedge on a reordered final message.
    """
    if universe.my_src_rank is None:
        raise RuntimeError("plan_move_send called on a non-source processor")
    datas = _storage(plan, src_arrays, "source")
    route = _route(plan, universe, policy)
    proc = universe.process
    send = universe.data_plane(universe.to_dst).send
    segments = 0
    if len(datas) == 1:
        for d, program in route.dests:
            # a bare message is its one segment gathered into a fresh buffer
            send(d, move_row(proc, "gather", program, datas, (None,), "pack"),
                 TAG_DATA)
            segments += 1
    else:
        dtypes = tuple([data.dtype for data in datas])
        for d, program in route.dests:
            send(d, _fuse(plan, program, datas, dtypes, proc, d), TAG_DATA)
            segments += len(program)
        if segments:
            metrics, messages = proc.metrics, len(route.dests)
            metrics.incr("plan_fused_messages", messages)
            metrics.incr("plan_fused_segments", segments)
            metrics.incr("plan_alpha_saved", segments - messages)
    if segments:
        proc.metrics.incr("cache_program_hits", segments)
    universe.end_phase(not universe.single_program)


def plan_move_recv(
    plan: MovePlan,
    dst_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> None:
    """Receive half of a move (``MC_DataMoveRecv``): one message per
    source processor, unpacked as the data plane's ``arrivals`` delivers
    them — ascending rank order, or logical-arrival order under
    ``OVERLAP`` with more than one source.  Each wait is bounded by the
    process's ``recv_timeout_s`` (wall-clock seconds, one wait, no retry):
    it raises ``TimeoutError`` naming that budget, and a receive blocked on
    a rank the failure detector knows dead raises
    :class:`~repro.vmachine.faults.RankLostError` immediately.

    Placement depends only on the schedule offsets, so completion order
    never changes the destination data.  Each slot's local storage is
    read once per call; a fused payload returns its staging buffer to
    the sender's arena once unpacked.
    """
    if universe.my_dst_rank is None:
        raise RuntimeError(
            "plan_move_recv called on a non-destination processor"
        )
    datas = _storage(plan, dst_arrays, "destination")
    route = _route(plan, universe, policy)
    proc = universe.process
    bare = len(datas) == 1
    programs = plan.recv_programs
    segments = 0
    for s, payload in universe.data_plane(universe.to_src).arrivals(
        route.sources, TAG_DATA,
        overlap=route.policy is ExecutorPolicy.OVERLAP,
    ):
        program = programs[s]
        move_row(proc, "scatter", program, datas,
                 _received_segments(program, payload, s, bare), "unpack")
        segments += len(program)
        if not bare:
            payload.release()
    if segments:
        proc.metrics.incr("cache_program_hits", segments)


def plan_move(
    plan: MovePlan,
    src_arrays: Sequence[Any],
    dst_arrays: Sequence[Any],
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> None:
    """Full move for processors holding both roles (single program), or
    role dispatch to the proper half otherwise.

    In the single-program case the intra-processor elements of every
    member schedule are copied directly, buffer-free (§5.3), one copy row
    per schedule — so local and remote moves refuse exactly the same
    dtype pairs — then the aggregated messages flow (sends first; the
    virtual transport is buffered, so this cannot deadlock).  With
    reliability enabled the rank fences once at the end, after its
    receive half, when every peer is already producing acks.
    """
    route = _route(plan, universe, policy)
    policy = route.policy
    if universe.single_program:
        src = _storage(plan, src_arrays, "source")
        dst = _storage(plan, dst_arrays, "destination")
        if route.local:
            proc = universe.process
            for seg in route.local:
                move_row(proc, "copy", (seg,), src, (dst[seg.schedule_id],),
                         "copy:local")
            proc.metrics.incr("cache_program_hits", 2 * len(route.local))
        plan_move_send(plan, src_arrays, universe, policy=policy)
        plan_move_recv(plan, dst_arrays, universe, policy=policy)
        universe.end_phase()
        return
    if universe.my_src_rank is not None:
        plan_move_send(plan, src_arrays, universe, policy=policy)
    if universe.my_dst_rank is not None:
        plan_move_recv(plan, dst_arrays, universe, policy=policy)
