"""Message tracing and communication analysis.

Pass ``trace=True`` to :class:`~repro.vmachine.machine.VirtualMachine` (or
``repro.vmachine.program.run_programs``) and every rank records a
:class:`TraceEvent` per message send/receive, with logical timestamps and
receive wait times.  Fault injection (:mod:`repro.vmachine.faults`) and
the fused-plan executor (:mod:`repro.core.plan`) ride the same stream
with kind-prefixed events (``fault:drop``, ``fault:dup``, ...,
``plan:fuse``) that are *not* message endpoints — the analysis helpers
here treat only ``"send"``/``"recv"`` as messages and render everything
else on its own line form.

The helpers turn event streams into the communication summaries
performance work actually uses:

- :func:`message_matrix` — bytes (or message counts) per (source,
  destination) rank pair;
- :func:`rank_activity` — per-rank busy vs. blocked-receiving time
  (non-message kinds are ignored so fault/plan events cannot skew the
  budgets);
- :func:`format_timeline` — compact text timeline for debugging
  choreography problems (who waited on whom, when).

Tags are rendered as ``context_block:user_tag`` (see :func:`format_tag`):
a wire tag is ``context + user_tag`` with one context block per
communicator, and split communicators derive Cantor-paired block indices
that do not survive naive low-bit truncation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.vmachine.tags import CONTEXT_STRIDE

__all__ = [
    "TraceEvent",
    "MESSAGE_KINDS",
    "format_tag",
    "event_to_tuple",
    "event_from_tuple",
    "message_matrix",
    "rank_activity",
    "format_timeline",
]

#: event kinds that are message endpoints (everything else — ``fault:*``,
#: ``plan:fuse`` — is an annotation riding the stream)
MESSAGE_KINDS = ("send", "recv")


class TraceEvent(NamedTuple):
    """One traced event on one rank.

    ``"send"``/``"recv"`` are message endpoints; other kinds
    (``fault:*``, ``plan:fuse``) annotate the stream and must not be
    counted as traffic.  Equal to the tuple of its fields, which the hot
    producers build in place: ``tuple.__new__(TraceEvent, (...))``.
    """

    kind: str       # "send" | "recv" | "fault:*" | "plan:fuse" | ...
    time: float     # logical clock after the operation completed
    rank: int       # the rank recording the event
    peer: int       # global rank of the other endpoint
    tag: int
    nbytes: int
    #: for "recv": logical seconds spent blocked before the message arrived
    wait: float = 0.0
    #: enclosing span path when the event was recorded ("" outside spans)
    phase: str = ""


def event_to_tuple(e: TraceEvent) -> list:
    """Flatten a :class:`TraceEvent` for JSON serialization.

    Field order is fixed — ``[kind, time, rank, peer, tag, nbytes, wait,
    phase]`` — and every field round-trips exactly through JSON (floats
    via shortest-repr, arbitrary-size tag ints natively), so serialized
    traces compare byte-for-byte across record and replay.
    """
    return list(e)


def event_from_tuple(t: list | tuple) -> TraceEvent:
    """Inverse of :func:`event_to_tuple` (works for every event kind)."""
    return TraceEvent._make(t)


def format_tag(tag: int) -> str:
    """Render a wire tag as ``context_block:user_tag``.

    Wire tags are ``context + user_tag`` where ``context`` is a multiple
    of :data:`~repro.vmachine.tags.CONTEXT_STRIDE`; split communicators
    use large Cantor-paired block indices, so truncating with ``& 0xFFFF``
    aliases distinct communicators.  Negative tags (``ANY_TAG``) render
    as-is.
    """
    if tag < 0:
        return str(tag)
    return f"{tag // CONTEXT_STRIDE}:{tag % CONTEXT_STRIDE}"


def message_matrix(
    traces: list[list[TraceEvent]], what: str = "bytes"
) -> np.ndarray:
    """P x P matrix of traffic from sends: entry [s, d].

    ``what`` is ``"bytes"`` or ``"count"``.  Only ``"send"`` endpoints
    contribute; annotation kinds never count as traffic.
    """
    nprocs = len(traces)
    out = np.zeros((nprocs, nprocs), dtype=np.int64)
    for events in traces:
        for e in events:
            if e.kind == "send":
                out[e.rank, e.peer] += e.nbytes if what == "bytes" else 1
    return out


def rank_activity(
    traces: list[list[TraceEvent]], clocks: list[float]
) -> list[dict[str, float]]:
    """Per-rank time budget: total, blocked-in-receive, and busy seconds.

    Hardened against mixed streams: only ``"recv"`` events contribute
    blocked time and only message kinds are tallied as traffic, so
    ``fault:*`` / ``plan:fuse`` annotations (whatever their fields carry)
    cannot skew the busy/blocked budgets.  Their count is surfaced
    separately as ``other_events``.
    """
    out = []
    for events, total in zip(traces, clocks):
        waited = sum(e.wait for e in events if e.kind == "recv")
        out.append(
            {
                "total": total,
                "blocked": waited,
                "busy": max(0.0, total - waited),
                "messages_sent": float(sum(1 for e in events if e.kind == "send")),
                "messages_received": float(
                    sum(1 for e in events if e.kind == "recv")
                ),
                "other_events": float(
                    sum(1 for e in events if e.kind not in MESSAGE_KINDS)
                ),
            }
        )
    return out


def format_timeline(
    traces: list[list[TraceEvent]], limit: int = 40, unit: float = 1e-3
) -> str:
    """Merge all ranks' events into one time-ordered text log.

    ``unit`` scales timestamps (default: milliseconds).  Long traces are
    truncated to the first ``limit`` events (communication bugs are
    almost always visible at the start).  Message endpoints render as
    directional arrows (``s -> d`` / ``d <- s``); annotation kinds
    (``fault:*``, ``plan:fuse``) get their own line form — an ``@ rank``
    marker with the affected peer — instead of a bogus receive arrow.
    """
    merged = sorted(
        (e for events in traces for e in events), key=lambda e: (e.time, e.rank)
    )
    lines = []
    for e in merged[:limit]:
        tag = format_tag(e.tag)
        if e.kind == "send":
            lines.append(
                f"{e.time / unit:10.3f}  {e.kind:<4} {e.rank} -> {e.peer:<4}  "
                f"tag={tag:<9} {e.nbytes:>8} B"
            )
        elif e.kind == "recv":
            extra = f" (waited {e.wait / unit:.3f})" if e.wait > 0 else ""
            lines.append(
                f"{e.time / unit:10.3f}  {e.kind:<4} {e.rank} <- {e.peer:<4}  "
                f"tag={tag:<9} {e.nbytes:>8} B{extra}"
            )
        else:
            where = f" [{e.phase}]" if e.phase else ""
            lines.append(
                f"{e.time / unit:10.3f}  {e.kind} @ rank {e.rank} "
                f"(peer {e.peer})  tag={tag} {e.nbytes} B{where}"
            )
    if len(merged) > limit:
        lines.append(f"... {len(merged) - limit} more events")
    return "\n".join(lines)
