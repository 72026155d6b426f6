"""Per-rank metrics: named counters, span totals and cost-term attribution.

:class:`MetricsRegistry` is the one place a virtual processor's
observability state accumulates.  It carries three kinds of data:

**Counters** (``counters``: name → number) — the event tallies that used
to grow ad hoc inside ``proc.stats`` (``messages_sent``, ``faults_drop``,
``plan_fused_messages``, ``arena_hits``, ``rel_retransmits``, and the
coupling service's ``svc_*`` family — ``svc_rounds``, ``svc_admitted``,
``svc_oneway_errors``, ``svc_tenants_evicted``, ...).  They are always
on: bumping a counter is a dict update, free of logical time.

Every caching layer reports through one ``cache_*`` namespace.  The
schedule store (:class:`~repro.core.cache.LayeredStore`) has one counter
table, mirrored under two prefixes:

============================ =========================================
``cache_<counter>``          the store a :class:`~repro.core.cache.
                             ScheduleCache` builds (request-keyed)
``cache_svc_<counter>``      the service's :class:`~repro.service.
                             cache.ServiceCache` (bind-keyed), one per
                             rank of the gateway and of the server
``cache_program_{hits,       MoveProgram rows: a miss is a RunList
misses}``                    half's first lowering (:func:`~repro.
                             core.dataplane.compile_offsets`); a hit
                             is a memo hit there (a fused compile
                             counts none) or a row a move executes,
                             counted per message by its segment
                             count (docs/MODEL.md §8)
============================ =========================================

``<counter>`` is one of ``schedule_{hits, misses, evictions}`` and
``plan_{hits, misses}`` (a plan hit: a one-member plan reused whole
from the memo on its schedule, :func:`~repro.core.plan.plan_of`; a
miss: a plan that had to be compiled, or assembled from its members'
memoised rows).
``snapshot()[<counter>]`` on either class equals the mirrored counter.

Cache mirroring is clock-free by construction — a counter bump never
advances logical time, so observed runs stay byte-identical with caching
enabled or disabled.

**Span totals** (``span_seconds``: span name → logical seconds) — every
:meth:`~repro.vmachine.process.Process.span` adds its *inclusive*
duration (exit clock minus entry clock, nested spans included) to its
name on exit.  Always on, like the counters: the paper's per-phase
numbers (``inspector``, ``sched``, ``copy`` ...) are these totals, merged
across ranks by :meth:`~repro.vmachine.machine.SPMDResult.span_ms`.

**Cost terms** (``terms``: (phase, term) → logical seconds) — every
logical-clock advance attributed to the analytical cost-model term that
caused it, bucketed by the enclosing :meth:`~repro.vmachine.process.
Process.span` phase.  Term attribution is *opt-in* (``attributing=True``,
enabled by ``VirtualMachine(observe=True)``): when enabled, the registry
records the **exact** floating-point delta applied to the clock, so the
sum of all term entries (:meth:`MetricsSnapshot.attributed_seconds` of a
:meth:`MetricsRegistry.snapshot`) reproduces the rank's final logical
clock to the last bit (the ``profile`` CLI and the test suite assert a
1e-9 bound to stay safe against future decompositions).

The term taxonomy (see MODEL.md §10):

========== ===========================================================
``alpha``   receiver-side latency: logical time spent blocked waiting
            for a message's arrival (``advance_to`` gaps)
``beta``    wire serialization: the ``nbytes / bandwidth`` share of the
            sender's injection occupancy
``occupancy`` per-message CPU overheads: ``o_send``'s share of
            injection, ``o_recv`` + drain on receive, and the fixed
            ``startup`` charge of schedule/collective operations
``per_element`` all per-element / per-byte local work: dereference,
            hashing, packing, unpacking, copying, flops
``rto``     reliability-layer retransmission-timer waits
``other``   untagged application charges (``proc.charge(x)``)
========== ===========================================================

Nothing in this module imports the virtual machine, so the process layer
can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "COST_TERMS",
    "MetricsRegistry",
    "MetricsSnapshot",
]

#: canonical cost-term names, in display order
COST_TERMS = ("alpha", "beta", "occupancy", "per_element", "rto", "other")


def _totals_by(terms: dict[tuple[str, str], float], index: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, seconds in terms.items():
        k = key[index]
        out[k] = out.get(k, 0.0) + seconds
    return out


def _delta(now: dict, before: dict, zero: float) -> dict:
    """Per-key ``now - before``, keys whose value did not move dropped."""
    return {k: v - before.get(k, zero) for k, v in now.items()
            if v != before.get(k, zero)}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable copy of a registry's state (or a diff of two states)."""

    counters: dict[str, float] = field(default_factory=dict)
    #: (phase, term) → logical seconds
    terms: dict[tuple[str, str], float] = field(default_factory=dict)
    #: span name → inclusive logical seconds
    span_seconds: dict[str, float] = field(default_factory=dict)

    def term_totals(self) -> dict[str, float]:
        """Logical seconds per cost term, summed over phases."""
        return _totals_by(self.terms, 1)

    def phase_totals(self) -> dict[str, float]:
        """Logical seconds per phase, summed over terms: *exclusive*, each
        charge counted once, under its innermost span (compare
        :attr:`span_seconds`, inclusive per name)."""
        return _totals_by(self.terms, 0)

    def attributed_seconds(self) -> float:
        """Total attributed logical time (== the clock delta it covers)."""
        return sum(self.terms.values())

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened since ``earlier``: per-key deltas, zeros dropped."""
        return MetricsSnapshot(
            counters=_delta(self.counters, earlier.counters, 0),
            terms=_delta(self.terms, earlier.terms, 0.0),
            span_seconds=_delta(self.span_seconds, earlier.span_seconds, 0.0),
        )


class MetricsRegistry:
    """One rank's counters and (optional) cost-term attribution.

    Thread-confinement contract: a registry belongs to exactly one
    virtual processor and is only mutated from that processor's thread
    (the same contract as the logical clock), so no locking is needed.
    """

    __slots__ = ("counters", "terms", "span_seconds", "attributing")

    #: counters every process starts with (kept in insertion order so
    #: ``proc.stats`` renders identically to the historical dict)
    BASE_COUNTERS = (
        "messages_sent",
        "messages_received",
        "bytes_sent",
        "bytes_received",
    )

    def __init__(self, attributing: bool = False):
        self.counters: dict[str, float] = {k: 0 for k in self.BASE_COUNTERS}
        self.terms: dict[tuple[str, str], float] = {}
        #: span name → inclusive logical seconds (written by the span exit)
        self.span_seconds: dict[str, float] = {}
        #: record cost-term attribution for every clock advance?
        self.attributing = attributing

    # -- counters ----------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Bump counter ``name`` by ``amount`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    # -- cost-term attribution ---------------------------------------------

    def add_term(self, phase: str, term: str, seconds: float) -> None:
        """Attribute ``seconds`` of logical time to ``term`` inside
        ``phase``.  Callers pass the *exact* clock delta so the term sum
        reproduces the clock."""
        key = (phase, term)
        self.terms[key] = self.terms.get(key, 0.0) + seconds

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current state; its views (totals per
        term or phase, attributed seconds, ``diff``) are the snapshot's.

        The idiom benchmarks use to attribute one phase of a longer run::

            before = proc.metrics.snapshot()
            ...  # the phase under measurement
            delta = proc.metrics.snapshot().diff(before)
        """
        return MetricsSnapshot(counters=dict(self.counters),
                               terms=dict(self.terms),
                               span_seconds=dict(self.span_seconds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self.counters)} counter(s), "
            f"{len(self.terms)} term bucket(s), "
            f"attributing={self.attributing})"
        )
