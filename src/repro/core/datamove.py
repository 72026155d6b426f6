"""Moving data with a communication schedule (§4.1.4).

Each source processor packs, per destination processor, all elements bound
there into one contiguous buffer — "messages are aggregated, so that at
most one message is sent between each source and each destination
processor" — and intra-processor transfers (single-program case) are
copied directly between the two arrays' storage with no intermediate
buffer.

The paper's three entry points live here as thin wrappers: a
single-schedule move *is* a ``k = 1`` :class:`~repro.core.plan.MovePlan`,
and :mod:`repro.core.plan` is the one executor that runs it — the send
loop, the completion loop over the data plane's ``arrivals``, the local
copies and the fence placement are documented (and exist) there only;
whether the wire is reliable is a property of the channel the universe
hands it, not of the executor.  A one-schedule plan travels the
*bare* wire — the header-less packed buffer, no staging lease, no
``plan:fuse`` event, no ``plan_*`` counter — so these entry points
charge pack, one payload-sized message and unpack per pair, and their
clock trajectories are byte-for-byte those of the published tables
(guarded by CI).  The plan comes from :func:`~repro.core.plan.plan_of`:
compiled on first use and memoised on the
:class:`~repro.core.schedule.CommSchedule` object, the way
:func:`~repro.core.dataplane.compile_offsets` memoises a program on its
``RunList``; compilation is local and charges no logical time.

Two executor policies order the message traffic
(:class:`~repro.core.policy.ExecutorPolicy`):

``ORDERED`` (default)
    Sends and blocking receives are issued in ascending group-rank order —
    the historical, paper-faithful executor.  Logical clocks are
    byte-for-byte reproducible against all published tables.

``OVERLAP``
    Latency-hiding: senders inject in rotated order starting at
    ``(my_rank + 1) % P`` so low ranks are not hot-spotted, and receivers
    post all receives up front, completing them in *arrival* order
    (wait-any) — each buffer is unpacked while later messages are still
    in flight.  The destination array is identical either way; only the
    clock trajectory differs.

Reliability and degradation
---------------------------
When the universe carries a :class:`~repro.vmachine.reliability.
Reliability` layer (``universe.enable_reliability()``), every ``TAG_DATA``
payload travels through the sequence-numbered ack/retransmit protocol:
drops and corruption are retransmitted, duplicates suppressed, reorder
holdbacks released at the fence.  Schedule construction keeps the bare
transport either way.  The send half ends with a **fence** (block until
every payload is cumulatively acked) in the coupled case; the
single-program :func:`data_move` fences once after both halves, releasing
held-back packets at the half boundary so two ranks holding each other's
final packet cannot wedge.

With or without the layer, and under either policy, each wait for a
message is bounded by the process's ``recv_timeout_s`` — one wait, no
retry — and the ``TimeoutError`` it surfaces names that budget; a lost peer
raises :class:`~repro.vmachine.faults.RankLostError` immediately via the
run's failure detector.
"""

from __future__ import annotations

from typing import Any

from repro.core.plan import plan_move, plan_move_recv, plan_move_send, plan_of
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import CommSchedule
from repro.core.universe import Universe

__all__ = ["data_move", "data_move_send", "data_move_recv", "ExecutorPolicy"]


def data_move_send(
    schedule: CommSchedule,
    src_array: Any,
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> None:
    """Execute the send half of a schedule (the paper's ``MC_DataMoveSend``).

    Must be called on every source-group processor; destination-group
    processors concurrently call :func:`data_move_recv`.  Ordering and
    fence semantics: :func:`~repro.core.plan.plan_move_send`.
    """
    plan_move_send(plan_of(schedule), (src_array,), universe, policy=policy)


def data_move_recv(
    schedule: CommSchedule,
    dst_array: Any,
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> None:
    """Execute the receive half of a schedule (``MC_DataMoveRecv``).

    Completion order and failure semantics:
    :func:`~repro.core.plan.plan_move_recv`.
    """
    plan_move_recv(plan_of(schedule), (dst_array,), universe, policy=policy)


def data_move(
    schedule: CommSchedule,
    src_array: Any,
    dst_array: Any,
    universe: Universe,
    policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
) -> None:
    """Full copy for processors holding both roles (single program), or a
    convenience wrapper dispatching to the proper half otherwise
    (:func:`~repro.core.plan.plan_move`)."""
    plan_move(plan_of(schedule), (src_array,), (dst_array,), universe,
              policy=policy)
