"""Zero-clock-charge phase spans.

A *span* marks a region of a rank's execution with a phase name —
``schedule:build``, ``pack``, ``wire``, ``unpack``, ``plan:execute``, or
an application's own ``inspector`` / ``sched`` / ``copy`` — without
touching the logical clock.  :meth:`Process.span` pushes the name onto
the rank's span stack on entry and pops it on exit; everything the rank
does in between (trace events, cost-model charges) is attributed to the
innermost open span, which ``proc.phase`` holds as a plain attribute.

Three costs, three rules:

- the **stack** (a list of names) is always maintained — pushing and
  popping are plain list ops, free of logical time, and give every trace
  event and metrics term its ``phase`` label;
- the **total** (``proc.metrics.span_seconds[name]``) is always kept: at
  exit every span adds its inclusive duration, one dict update.  It is
  what the paper's per-phase tables report
  (:meth:`~repro.vmachine.machine.SPMDResult.span_ms`);
- the **log** (a list of :class:`SpanRecord`) is only kept when
  observability is enabled (``proc.spans is not None``), because a long
  run can open millions of spans and the Perfetto exporter is the only
  consumer.  A logged leaf span costs ~0.9 µs, ~1.3 µs through a span
  context (one pinned CPU, 2-CPU Xeon container, Python 3.11).

A *leaf* span — one opened per message or per copy (``wire``, ``pack``,
``unpack``, ``copy:local``, the window's ``rma:*`` issues) — is opened
only when ``proc.labelled`` (a trace, the span log or term attribution
reads labels); otherwise nothing is opened and the leaf names are absent
from ``span_seconds``.  The seams and the row kernel open a leaf in line
(depth, clock, push, ``proc.phase``) and close it with one
:func:`close_span` call: a hooked self-addressed ``send`` + ``recv``
makes 34 Python calls, 48 with a context per leaf and a property call
per phase read.

Spans *never* charge the clock: a record's ``start``/``end`` are
read-only observations of ``proc.clock``, so enabling observability
cannot perturb any published table (CI guards this byte-for-byte).

This module never imports the virtual machine; it only duck-types the
process object (``.clock``, ``.rank``, ``._span_stack``, ``.phase``,
``.spans``, ``.metrics``), so the process layer can depend on it without
cycles.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SpanRecord", "close_span", "span_on"]


class SpanRecord(NamedTuple):
    """One closed span on one rank (logical-clock timestamps, seconds);
    a plain record, equal to the tuple of its fields."""

    name: str    # phase name, e.g. "pack"
    start: float  # proc.clock at entry
    end: float    # proc.clock at exit
    rank: int
    depth: int    # nesting depth at entry (0 = outermost)
    path: str     # "/".join of the stack including this span

    @property
    def duration(self) -> float:
        """Logical seconds spent inside the span (includes child spans)."""
        return self.end - self.start


def close_span(proc, name: str, t0: float, depth: int) -> None:
    """Close the span ``name`` opened at clock ``t0`` and stack depth
    ``depth``: add its total, pop it, reset ``proc.phase`` to the span
    now innermost, and log its record when observing.

    A leaf's caller opens it in line and closes it with this one call; a
    :meth:`Process.span` context exits here."""
    clock = proc.clock
    totals = proc.metrics.span_seconds
    totals[name] = totals.get(name, 0.0) + (clock - t0)
    stack = proc._span_stack
    # Tolerate a corrupted stack (an exception unwinding through
    # nested spans) rather than masking the original error.
    if stack and stack[-1] == name:
        stack.pop()
    elif name in stack:  # pragma: no cover - defensive
        del stack[len(stack) - 1 - stack[::-1].index(name)]
    proc.phase = stack[-1] if stack else ""
    log = proc.spans
    if log is not None:
        # The record is the path's only reader, so it is built here —
        # from the enclosing spans still open below this one's depth —
        # and only when logging is on (even if it was enabled inside
        # this span), from its fields in order: no generated __new__.
        log.append(tuple.__new__(SpanRecord, (
            name, t0, clock, proc.rank, depth,
            "/".join([*stack[:depth], name]),
        )))


class _SpanCtx:
    """Context manager behind :meth:`Process.span` — reentrant-safe
    because each ``with`` acquires a fresh instance."""

    __slots__ = ("_proc", "_name", "_t0", "_depth")

    def __init__(self, proc, name: str):
        self._proc = proc
        self._name = name

    def __enter__(self) -> "_SpanCtx":
        proc = self._proc
        stack = proc._span_stack
        self._depth = len(stack)
        self._t0 = proc.clock
        stack.append(self._name)
        proc.phase = self._name
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        close_span(self._proc, self._name, self._t0, self._depth)


#: ``span_on(proc, name)`` opens a span named ``name`` on ``proc``
span_on = _SpanCtx
