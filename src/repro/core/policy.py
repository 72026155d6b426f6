"""Executor policies for the Meta-Chaos data-move and schedule exchanges.

The paper's executor sends "at most one message per processor pair" but says
nothing about *order*.  Our reproduction historically drained those messages
in ascending group-rank order, which (a) hot-spots low ranks — every sender
injects toward rank 0 first — and (b) serializes receivers on the slowest
low-numbered source even when higher-numbered sources have already arrived.

:class:`ExecutorPolicy` selects between:

``ORDERED``
    The paper-faithful default.  Sends and receives are issued in ascending
    group-rank order.  Logical clocks are byte-for-byte identical to every
    previously published result (tables 3/4/5).

``OVERLAP``
    The latency-hiding executor.  Senders inject in *rotated* order starting
    at ``(my_rank + 1) % P`` (see :func:`rotated_order`) so that injections
    are spread across destinations instead of dog-piling on rank 0, and
    receivers complete messages in *arrival* order via
    :func:`~repro.vmachine.comm.waitany`, unpacking one message's data while
    later messages are still in flight.  Destination data is identical to
    ``ORDERED`` (placement depends only on the schedule, never on completion
    order); only the logical clocks change.

This module is dependency-free within :mod:`repro.core` so that both
:mod:`repro.core.plan` and :mod:`repro.core.schedule` can import it
without creating a cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

__all__ = ["ExecutorPolicy", "rotated_order", "ordered_or_rotated"]


class ExecutorPolicy(Enum):
    """How the data-move executor orders message injection and completion."""

    #: paper-faithful: ascending-rank sends, ascending-rank blocking receives
    ORDERED = "ordered"
    #: latency-hiding: rotated injection + arrival-order (wait-any) completion
    OVERLAP = "overlap"

    @classmethod
    def coerce(cls, value: "ExecutorPolicy | str") -> "ExecutorPolicy":
        """Accept either an enum member or its string value (CLI friendly)."""
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


def rotated_order(
    ranks: Iterable[int], my_rank: int, group_size: int
) -> list[int]:
    """Deterministic staggered injection order for ``my_rank``.

    Sorts ``ranks`` by their rotated distance from ``my_rank + 1`` modulo
    ``group_size`` — i.e. rank ``r`` starts its injections at its right
    neighbour and wraps around, so in a dense exchange the P senders target
    P distinct destinations at every step instead of all hammering rank 0.

    Ties (impossible for distinct in-range ranks, but kept for safety with
    arbitrary iterables) break on the rank itself, keeping the order fully
    deterministic.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    start = (my_rank + 1) % group_size
    return sorted(ranks, key=lambda r: ((r - start) % group_size, r))


def ordered_or_rotated(
    ranks: Sequence[int],
    my_rank: int,
    group_size: int,
    policy: ExecutorPolicy,
) -> list[int]:
    """``sorted(ranks)`` under ORDERED, :func:`rotated_order` under OVERLAP."""
    if policy is ExecutorPolicy.OVERLAP:
        return rotated_order(ranks, my_rank, group_size)
    return sorted(ranks)
