"""The Meta-Chaos applications programmer interface (§4.2, Figure 9).

Thin, paper-shaped wrappers over the schedule builder and data-move
engine.  The four steps of §4.2 map to:

1. specify source objects        — Regions + :func:`mc_new_set_of_regions`
                                   / :func:`mc_add_region_to_set`
2. specify destination objects   — same, for the destination structure
3. compute the schedule          — :func:`mc_compute_schedule`
4. move the data                 — :func:`mc_data_move_send` /
                                   :func:`mc_data_move_recv`, or the
                                   one-program one-shot :func:`mc_copy`

Where the paper passes a library identifier (``MC_ComputeSched(HPF,
...)``) these functions take the registered adapter name (e.g. ``"hpf"``,
``"chaos"``, ``"blockparti"``, ``"pcxx"``).

Multi-array extension: applications moving several arrays per timestep
compile their schedules into one :class:`~repro.core.plan.MovePlan`
(:func:`mc_compute_plan`) and execute it with :func:`mc_copy_many` /
:func:`mc_plan_move_send` / :func:`mc_plan_move_recv` — one *fused*
message per processor pair instead of one per schedule per pair.  Both
families run on the one executor in :mod:`repro.core.plan`: a
single-schedule move is a ``k = 1`` plan, and a one-schedule plan always
travels the bare, header-less wire, so ``mc_copy`` and a one-array
``mc_copy_many`` charge the same modelled clocks — those of the paper's
tables.

Every ``policy`` argument accepts an :class:`ExecutorPolicy`, its string
value, or ``"auto"``, which the executor resolves per rank from the plan
it is about to run (:func:`repro.autotune.auto.resolve_policy`).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Sequence

from repro.core.datamove import data_move, data_move_recv, data_move_send
from repro.core.plan import (
    MovePlan,
    compile_plan,
    plan_move,
    plan_move_recv,
    plan_move_send,
)
from repro.core.policy import ExecutorPolicy
from repro.core.region import Region
from repro.core.schedule import CommSchedule, ScheduleMethod, build_schedule
from repro.core.setofregions import SetOfRegions
from repro.core.universe import SingleProgramUniverse, Universe
from repro.vmachine.comm import Communicator

__all__ = [
    "mc_new_set_of_regions",
    "mc_add_region_to_set",
    "mc_compute_schedule",
    "mc_compute_plan",
    "mc_copy",
    "mc_copy_many",
    "mc_data_move_send",
    "mc_data_move_recv",
    "mc_plan_move_send",
    "mc_plan_move_recv",
    "ExecutorPolicy",
]


def mc_new_set_of_regions(*regions: Region) -> SetOfRegions:
    """Create a SetOfRegions (``MC_NewSetOfRegion``), optionally pre-filled."""
    sor = SetOfRegions()
    for r in regions:
        sor.add(r)
    return sor


def mc_add_region_to_set(region: Region, sor: SetOfRegions) -> SetOfRegions:
    """Append a Region to a SetOfRegions (``MC_AddRegion2Set``)."""
    return sor.add(region)


def _as_universe(where: Universe | Communicator) -> Universe:
    if isinstance(where, Universe):
        return where
    return SingleProgramUniverse(where)


def _maybe_span(name: str):
    """A ``span(name)`` on the calling rank's process, or a no-op outside
    a virtual-machine run (plan compilation is purely local and legal to
    call from the host)."""
    try:
        from repro.vmachine.process import current_process

        proc = current_process()
    except (ImportError, RuntimeError):
        return nullcontext()
    return proc.span(name)


def mc_compute_schedule(
    where: Universe | Communicator,
    src_lib: str,
    src_array: Any,
    src_sor: SetOfRegions | None,
    dst_lib: str,
    dst_array: Any,
    dst_sor: SetOfRegions | None,
    method: ScheduleMethod = ScheduleMethod.COOPERATION,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> CommSchedule:
    """Collectively compute a communication schedule (``MC_ComputeSched``).

    ``where`` is the world the copy spans: an intra-program communicator
    (both structures in one program) or a
    :class:`~repro.core.universe.TwoProgramUniverse` built from an
    inter-communicator.  The schedule can be reused for any number of data
    moves, and is symmetric (use :meth:`CommSchedule.reverse` to copy the
    other way).

    ``policy`` orders the schedule-build exchanges
    (:class:`~repro.core.policy.ExecutorPolicy`); the resulting schedule is
    identical under either policy.  ``"auto"`` defers the choice to the
    executors (the build itself runs ORDERED — there is no schedule yet
    to choose from).
    """
    if isinstance(policy, str) and policy.lower() == "auto":
        policy = ExecutorPolicy.ORDERED
    return build_schedule(
        _as_universe(where),
        src_lib, src_array, src_sor,
        dst_lib, dst_array, dst_sor,
        method=method,
        policy=policy,
    )


def mc_copy(
    where: Universe | Communicator,
    schedule: CommSchedule,
    src_array: Any,
    dst_array: Any,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> None:
    """One-shot data move within a single program (``MC_Copy``).

    ``policy=ExecutorPolicy.OVERLAP`` selects the latency-hiding executor
    (rotated injection + arrival-order completion); the destination array
    is identical either way.

    ``donate=True`` enables buffer donation on the receive side: a
    message that overwrites a destination's entire local storage (exact
    dtype) is adopted as that storage instead of scattered through.
    Opt-in because adoption rebinds ``array.local`` — callers holding
    aliases of the old storage keep the old bytes.

    To run the move over an unreliable (fault-injected) transport, pass a
    :class:`~repro.core.universe.Universe` on which
    :meth:`~repro.core.universe.Universe.enable_reliability` has been
    called — the data plane then travels the ack/retransmit protocol.
    ``timeout`` bounds each blocking receive and the final fence.
    """
    universe = _as_universe(where)
    if not universe.single_program:
        raise ValueError(
            "mc_copy is the single-program move; coupled programs call "
            "mc_data_move_send / mc_data_move_recv on their own side"
        )
    with universe.process.span("copy:execute"):
        data_move(schedule, src_array, dst_array, universe, policy=policy,
                  timeout=timeout, donate=donate)


def mc_compute_plan(schedules: Sequence[CommSchedule]) -> MovePlan:
    """Compile schedules into a fused :class:`~repro.core.plan.MovePlan`.

    Purely local (no communication, no logical-time charge): each rank
    reorganizes its own schedule halves into per-peer pack/unpack
    programs.  All member schedules must span the same universe shape.
    The plan is reusable for any number of :func:`mc_copy_many` calls,
    exactly as a schedule is for :func:`mc_copy`.
    """
    with _maybe_span("plan:compile"):
        return compile_plan(schedules)


def mc_copy_many(
    where: Universe | Communicator,
    plan_or_schedules: MovePlan | Sequence[CommSchedule],
    src_arrays: Sequence[Any],
    dst_arrays: Sequence[Any],
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> MovePlan:
    """Fused one-shot move of several arrays within a single program.

    Equivalent to calling :func:`mc_copy` once per ``(schedule,
    src_array, dst_array)`` triple — same destination bytes, same
    element order — but every processor pair exchanges **one** message
    carrying all schedules' segments, saving ``k-1`` message latencies
    per pair.  Accepts a precompiled :class:`~repro.core.plan.MovePlan`
    or a schedule sequence (compiled on the fly); returns the plan so
    loops can reuse the compilation.
    """
    universe = _as_universe(where)
    if not universe.single_program:
        raise ValueError(
            "mc_copy_many is the single-program move; coupled programs "
            "call mc_plan_move_send / mc_plan_move_recv on their own side"
        )
    plan = (
        plan_or_schedules
        if isinstance(plan_or_schedules, MovePlan)
        else mc_compute_plan(plan_or_schedules)
    )
    with universe.process.span("plan:execute"):
        plan_move(plan, src_arrays, dst_arrays, universe, policy=policy,
                  timeout=timeout, donate=donate)
    return plan


def mc_plan_move_send(
    where: Universe | Communicator,
    plan: MovePlan,
    src_arrays: Sequence[Any],
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
) -> None:
    """Send half of a fused multi-array move (source-group processors)."""
    universe = _as_universe(where)
    plan_move_send(plan, src_arrays, universe, policy=policy,
                   timeout=timeout)


def mc_plan_move_recv(
    where: Universe | Communicator,
    plan: MovePlan,
    dst_arrays: Sequence[Any],
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> None:
    """Receive half of a fused multi-array move (destination group)."""
    universe = _as_universe(where)
    plan_move_recv(plan, dst_arrays, universe, policy=policy,
                   timeout=timeout, donate=donate)


def mc_data_move_send(
    where: Universe | Communicator,
    schedule: CommSchedule,
    src_array: Any,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
) -> None:
    """Send half of a data move (``MC_DataMoveSend``)."""
    universe = _as_universe(where)
    data_move_send(schedule, src_array, universe, policy=policy,
                   timeout=timeout)


def mc_data_move_recv(
    where: Universe | Communicator,
    schedule: CommSchedule,
    dst_array: Any,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
    timeout: float | None = None,
    donate: bool = False,
) -> None:
    """Receive half of a data move (``MC_DataMoveRecv``)."""
    universe = _as_universe(where)
    data_move_recv(schedule, dst_array, universe, policy=policy,
                   timeout=timeout, donate=donate)
