"""Zero-clock-charge phase spans.

A *span* marks a region of a rank's execution with a phase name —
``schedule:build``, ``pack``, ``wire``, ``unpack``, ``plan:execute``, or
an application's own ``inspector`` / ``sched`` / ``copy`` — without
touching the logical clock.  :meth:`Process.span` pushes the name onto
the rank's span stack on entry and pops it on exit; everything the rank
does in between (trace events, cost-model charges) is attributed to the
innermost open span.

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
  consumer.

A *leaf* span — one opened per message or per copy (``wire``, ``pack``,
``unpack``, ``copy:local``, the window's ``rma:*`` issues) — is opened
only when ``proc.labelled``: something reads span labels (a trace, the
span log, term attribution).  Otherwise the caller enters
:data:`NO_SPAN` instead (the row kernel opens nothing at all), so the
per-message path pays for no stack push and no total, and the leaf names
are absent from ``span_seconds``.

Spans *never* charge the clock: a record's ``start``/``end`` are
read-only observations of ``proc.clock``, so enabling observability
cannot perturb any published table (CI guards this byte-for-byte).

This module never imports the virtual machine; it only duck-types the
process object (``.clock``, ``.rank``, ``._span_stack``, ``.spans``,
``.metrics``), so the process layer can depend on it without cycles.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

__all__ = ["NO_SPAN", "SpanRecord", "span_on"]

#: what a leaf span's caller enters when nothing reads span labels
NO_SPAN = nullcontext()


@dataclass(frozen=True)
class SpanRecord:
    """One closed span on one rank (logical-clock timestamps, seconds)."""

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


class _SpanCtx:
    """Context manager behind :meth:`Process.span` — reentrant-safe
    because each ``with`` acquires a fresh instance."""

    __slots__ = ("_proc", "_name", "_t0", "_depth")

    def __init__(self, proc, name: str):
        self._proc = proc
        self._name = name

    def __enter__(self) -> "_SpanCtx":
        stack = self._proc._span_stack
        self._depth = len(stack)
        self._t0 = self._proc.clock
        stack.append(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        proc, name = self._proc, self._name
        totals = proc.metrics.span_seconds
        totals[name] = totals.get(name, 0.0) + (proc.clock - self._t0)
        stack = proc._span_stack
        # Tolerate a corrupted stack (an exception unwinding through
        # nested spans) rather than masking the original error.
        if stack and stack[-1] == name:
            stack.pop()
        elif name in stack:  # pragma: no cover - defensive
            del stack[len(stack) - 1 - stack[::-1].index(name)]
        log = proc.spans
        if log is not None:
            # The record is the path's only reader, so it is built here —
            # from the enclosing spans still open below this one's depth —
            # and only when logging is on (even if it was enabled inside
            # this span).
            log.append(
                SpanRecord(
                    name=name,
                    start=self._t0,
                    end=proc.clock,
                    rank=proc.rank,
                    depth=self._depth,
                    path="/".join([*stack[: self._depth], name]),
                )
            )


#: ``span_on(proc, name)`` opens a span named ``name`` on ``proc``
span_on = _SpanCtx
