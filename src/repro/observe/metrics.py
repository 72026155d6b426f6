"""Per-rank metrics: named counters plus cost-term attribution.

:class:`MetricsRegistry` is the one place a virtual processor's
observability state accumulates.  It carries two kinds of data:

**Counters** (``counters``: name → number) — the event tallies that used
to grow ad hoc inside ``proc.stats`` (``messages_sent``, ``faults_drop``,
``plan_fused_messages``, ``arena_hits``, ``rel_retransmits``, and the
coupling service's ``svc_*`` family — ``svc_rounds``, ``svc_admitted``,
``svc_oneway_errors``, ``svc_tenants_evicted``, ...).  They are always
on: bumping a counter is a dict update, free of logical time.

Every caching layer reports through one ``cache_*`` namespace.  The
schedule → plan layers are one store (:class:`~repro.core.cache.
LayeredStore`) with one counter table, mirrored under two prefixes:

============================ =========================================
``cache_<counter>``          the store a :class:`~repro.core.cache.
                             ScheduleCache` builds (request-keyed)
``cache_svc_<counter>``      the service's :class:`~repro.service.
                             cache.ServiceCache` (bind-keyed), one per
                             rank of the gateway and of the server
``cache_program_{hits,       MoveProgram memoization on RunList halves
misses}``                    (:func:`~repro.core.dataplane.
                             compile_offsets`)
============================ =========================================

``<counter>`` is one of ``schedule_{hits, misses, evictions,
forced_rebuilds}`` (a forced rebuild: the resolve was told to build over
a key this store held — the service's bind negotiation, when the peer
program's replica missed) and ``plan_{hits, misses, evictions,
invalidations, uncached}`` (an invalidation: a member schedule was
evicted or replaced under a cached plan; uncached: a plan compiled over
members the store does not currently hold, handed to the caller but not
kept).  ``snapshot()[<counter>]`` on either class equals the mirrored
counter.

Cache mirroring is clock-free by construction — a counter bump never
advances logical time, so observed runs stay byte-identical with caching
enabled or disabled.

**Cost terms** (``terms``: (phase, term) → logical seconds) — every
logical-clock advance attributed to the analytical cost-model term that
caused it, bucketed by the enclosing :meth:`~repro.vmachine.process.
Process.span` phase.  Term attribution is *opt-in* (``attributing=True``,
enabled by ``VirtualMachine(observe=True)``): when enabled, the registry
records the **exact** floating-point delta applied to the clock, so the
sum of all term entries reproduces the rank's final logical clock to the
last bit (the ``profile`` CLI and the test suite assert a 1e-9 bound to
stay safe against future decompositions).

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


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable copy of a registry's state (or a diff of two states)."""

    counters: dict[str, float] = field(default_factory=dict)
    #: (phase, term) → logical seconds
    terms: dict[tuple[str, str], float] = field(default_factory=dict)

    def term_totals(self) -> dict[str, float]:
        """Logical seconds per cost term, summed over phases."""
        return _totals_by(self.terms, 1)

    def phase_totals(self) -> dict[str, float]:
        """Logical seconds per phase, summed over terms."""
        return _totals_by(self.terms, 0)

    def attributed_seconds(self) -> float:
        """Total attributed logical time (== the clock delta it covers)."""
        return sum(self.terms.values())

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened since ``earlier``: per-key deltas, zeros dropped."""
        counters = {
            k: v - earlier.counters.get(k, 0)
            for k, v in self.counters.items()
            if v != earlier.counters.get(k, 0)
        }
        terms = {
            k: v - earlier.terms.get(k, 0.0)
            for k, v in self.terms.items()
            if v != earlier.terms.get(k, 0.0)
        }
        return MetricsSnapshot(counters=counters, terms=terms)


class MetricsRegistry:
    """One rank's counters and (optional) cost-term attribution.

    Thread-confinement contract: a registry belongs to exactly one
    virtual processor and is only mutated from that processor's thread
    (the same contract as the logical clock), so no locking is needed.
    """

    __slots__ = ("counters", "terms", "attributing")

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

    def term_totals(self) -> dict[str, float]:
        """Logical seconds per cost term, summed over phases."""
        return _totals_by(self.terms, 1)

    def phase_totals(self) -> dict[str, float]:
        """Logical seconds per phase, summed over terms."""
        return _totals_by(self.terms, 0)

    def attributed_seconds(self) -> float:
        """Sum of every term entry — equals the rank's logical clock when
        attribution was enabled for the whole run."""
        return sum(self.terms.values())

    # -- snapshot / diff ----------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current state."""
        return MetricsSnapshot(counters=dict(self.counters),
                               terms=dict(self.terms))

    def diff(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """What happened since ``earlier``: per-key deltas, zeros dropped.

        The idiom benchmarks use to attribute one phase of a longer run::

            before = proc.metrics.snapshot()
            ...  # the phase under measurement
            delta = proc.metrics.diff(before)
        """
        counters = {
            k: v - earlier.counters.get(k, 0)
            for k, v in self.counters.items()
            if v != earlier.counters.get(k, 0)
        }
        terms = {
            k: v - earlier.terms.get(k, 0.0)
            for k, v in self.terms.items()
            if v != earlier.terms.get(k, 0.0)
        }
        return MetricsSnapshot(counters=counters, terms=terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self.counters)} counter(s), "
            f"{len(self.terms)} term bucket(s), "
            f"attributing={self.attributing})"
        )
