"""Virtual processor context.

Each SPMD rank executes in its own thread with a :class:`Process` object as
its identity: global rank, logical clock, mailbox, cost model and phase
timer.  Library code retrieves the ambient process via
:func:`current_process`, so application kernels read like ordinary SPMD
code (``comm.rank``, ``comm.send(...)``) without threading machinery
leaking through.
"""

from __future__ import annotations

import os
import threading
from operator import attrgetter
from typing import Any

from repro.observe.metrics import MetricsRegistry
from repro.observe.spans import span_on
from repro.vmachine.cost_model import CostModel
from repro.vmachine.message import Mailbox, PackArena
from repro.vmachine.timing import PhaseTimer

__all__ = ["Process", "current_process", "default_recv_timeout_s"]

_tls = threading.local()

#: hard-coded fallback for the per-receive wall-clock timeout (seconds)
_DEFAULT_RECV_TIMEOUT_S = 120.0


def default_recv_timeout_s() -> float:
    """The default receive timeout: ``REPRO_RECV_TIMEOUT_S`` env var when
    set (seconds), else 120 s.  Evaluated per run so tests can tweak it."""
    raw = os.environ.get("REPRO_RECV_TIMEOUT_S")
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_RECV_TIMEOUT_S={raw!r} is not a number"
            ) from None
    return _DEFAULT_RECV_TIMEOUT_S


def current_process() -> "Process":
    """The :class:`Process` bound to the calling thread.

    Raises ``RuntimeError`` outside of a :class:`~repro.vmachine.machine.
    VirtualMachine` run — catching accidental use of distributed APIs from
    the driving (host) thread.
    """
    proc = getattr(_tls, "process", None)
    if proc is None:
        raise RuntimeError(
            "no virtual process bound to this thread; distributed calls are "
            "only valid inside VirtualMachine.run()"
        )
    return proc


def _concern(name: str) -> property:
    """An optional per-message concern of :class:`Process`: reading it is a
    C-level fetch, assigning it refreshes :attr:`Process.hooked`."""
    slot = "_" + name

    def install(self: "Process", value: Any) -> None:
        setattr(self, slot, value)
        self._rehook()

    return property(attrgetter(slot), install)


class Process:
    """State of one virtual processor.

    The *logical clock* (``self.clock``, seconds) is the process's notion of
    elapsed time.  All charges go through :meth:`charge`/:meth:`advance_to`
    so the phase timer sees a consistent view (the transport's all-off
    message path spells the same expressions inline; see :meth:`_rehook`).
    """

    # The optional concerns; None/False = off (all five start off).
    trace = _concern("trace")        # list of TraceEvent while tracing
    spans = _concern("spans")        # list of SpanRecord while observing
    faults = _concern("faults")      # FaultPlan (None = reliable transport)
    recorder = _concern("recorder")  # RankRecorder (zero clock charge)
    copy_on_send = _concern("copy_on_send")  # debug: deep-copy at send time

    def __init__(self, rank: int, nprocs: int, cost_model: CostModel):
        self.rank = rank
        self.nprocs = nprocs
        self.cost = cost_model
        self.clock = 0.0
        self.mailbox = Mailbox(rank)
        self.timer = PhaseTimer(lambda: self.clock)
        #: per-rank observability state: named counters (always on) plus
        #: opt-in cost-term attribution of every clock advance
        self.metrics = MetricsRegistry()
        #: free-form per-rank scratch for application code
        self.env: dict[str, Any] = {}
        #: open-span name stack (always maintained; labels events/terms)
        self._span_stack: list[str] = []
        #: per-receive wall-clock timeout (configurable per VirtualMachine
        #: or via the REPRO_RECV_TIMEOUT_S environment variable)
        self.recv_timeout_s: float = default_recv_timeout_s()
        #: clock-slowdown factor applied to every charge (fault injection)
        self.slowdown: float = 1.0
        self._trace = self._spans = self._faults = self._recorder = None
        self._copy_on_send = False
        self._rehook()
        #: pooled pack/unpack staging buffers (counters mirror into
        #: ``self.metrics``; see :class:`~repro.vmachine.message.PackArena`)
        self.arena = PackArena(self.metrics)

    # -- the transport's one predicate -------------------------------------

    def _rehook(self) -> None:
        """Refresh the flags the transport reads per message: ``labelled``
        (something reads span labels — trace events, span records,
        attributed terms — so the leaf ``wire`` span must be opened) and
        ``hooked`` (anything that can observe or perturb a message is
        installed; false = :mod:`repro.vmachine.comm` goes direct).  Run
        by the concern setters and :meth:`enable_observability`, the only
        switch of ``metrics.attributing``."""
        self.labelled = (self._trace is not None or self._spans is not None
                         or self.metrics.attributing)
        self.hooked = (self.labelled or self._faults is not None
                       or self._recorder is not None or self._copy_on_send)

    # -- observability -----------------------------------------------------

    @property
    def stats(self) -> dict[str, float]:
        """Counter view (name → number), kept for the historical dict API.

        Backed by :attr:`metrics` — ``proc.stats["messages_sent"] += 1``
        and ``proc.metrics.incr("messages_sent")`` hit the same storage.
        """
        return self.metrics.counters

    def span(self, name: str):
        """Open a zero-clock-charge phase span (context manager).

        Everything executed inside carries ``name`` as its phase: trace
        events record it, cost-term attribution buckets by it, and (when
        observing) a :class:`~repro.observe.spans.SpanRecord` is logged
        at exit for the Perfetto exporter.  Never charges the clock.
        """
        return span_on(self, name)

    @property
    def phase(self) -> str:
        """Innermost open span name ("" outside any span)."""
        stack = self._span_stack
        return stack[-1] if stack else ""

    @property
    def phase_path(self) -> str:
        """Full open-span path, e.g. ``"copy:execute/wire"``."""
        return "/".join(self._span_stack)

    def enable_observability(self) -> None:
        """Turn on span logging and cost-term attribution (idempotent).

        Pure bookkeeping — the logical clock trajectory is unchanged (the
        tables-byte-identity CI guard holds this to the last bit).
        """
        self.metrics.attributing = True
        if self._spans is None:
            self._spans = []
        self._rehook()

    # -- clock management --------------------------------------------------

    def charge(self, seconds: float, term: str = "other") -> None:
        """Advance the logical clock by a cost-model duration.

        A fault-plan ``slowdown`` factor scales every charge: a straggling
        rank's compute *and* messaging overheads take proportionally
        longer, which is exactly how a slow node manifests to its peers.

        ``term`` names the analytical cost-model term this charge belongs
        to (see :data:`~repro.observe.metrics.COST_TERMS`); when the rank
        is attributing, the *exact* clock delta is recorded under
        ``(current phase, term)`` so the metrics sum reproduces the clock.
        """
        if seconds < 0:
            raise ValueError(f"negative charge {seconds}")
        before = self.clock
        self.clock += seconds * self.slowdown
        metrics = self.metrics
        if metrics.attributing:
            metrics.add_term(self.phase, term, self.clock - before)

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute logical time ``t`` (no-op if
        already past it) — used when a receive waits for a message that has
        not yet 'arrived' in logical time.  The gap is the receiver-side
        latency the model calls ``alpha``."""
        if t > self.clock:
            metrics = self.metrics
            if metrics.attributing:
                metrics.add_term(self.phase, "alpha", t - self.clock)
            self.clock = t

    def charge_send_injection(self, nbytes: int, contention: float) -> None:
        """Charge one message's sender-side injection occupancy.

        Exactly ``charge(cost.send_occupancy(nbytes, contention))`` on
        the clock — the single-charge expression is preserved so clocks
        stay byte-identical — but the attributed delta is split into its
        ``beta`` (wire serialization, ``nbytes / bandwidth``) and
        ``occupancy`` (fixed ``o_send``) components.
        """
        before = self.clock
        self.clock += self.cost.send_occupancy(nbytes, contention) * self.slowdown
        metrics = self.metrics
        if not metrics.attributing:
            return
        delta = self.clock - before
        beta = min(
            delta,
            (contention * nbytes / self.cost.profile.bandwidth) * self.slowdown,
        )
        phase = self.phase
        metrics.add_term(phase, "beta", beta)
        metrics.add_term(phase, "occupancy", delta - beta)

    # -- convenience charge helpers ---------------------------------------

    def charge_flops(self, n: float) -> None:
        self.charge(self.cost.flops(n), term="per_element")

    def charge_mem(self, nbytes: float) -> None:
        self.charge(self.cost.mem(nbytes), term="per_element")

    def charge_deref_irregular(self, nelems: float) -> None:
        self.charge(self.cost.deref_irregular(nelems), term="per_element")

    def charge_deref_regular(self, nelems: float) -> None:
        self.charge(self.cost.deref_regular(nelems), term="per_element")

    def charge_hash(self, nrefs: float) -> None:
        self.charge(self.cost.hash_refs(nrefs), term="per_element")

    def charge_pack(self, nelems: float) -> None:
        self.charge(self.cost.pack(nelems), term="per_element")

    def charge_locate(self, nruns: float, nelems: float) -> None:
        self.charge(self.cost.locate(nruns, nelems), term="per_element")

    def charge_startup(self) -> None:
        self.charge(self.cost.startup(), term="occupancy")

    # -- thread binding ----------------------------------------------------

    def bind(self) -> None:
        _tls.process = self

    def unbind(self) -> None:
        _tls.process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(rank={self.rank}/{self.nprocs}, clock={self.clock * 1e3:.3f}ms)"
