"""Seeded, deterministic fault injection for the virtual transport.

The paper's DEC Alpha farm experiments ran Meta-Chaos over PVM **on UDP
over ATM** (§5) — an unreliable datagram transport — while the SP2 runs
used MPL's reliable messaging.  The virtual machine historically modelled
only the reliable case: every :meth:`~repro.vmachine.message.Mailbox.
deliver` succeeded, and a lost peer turned into a 120-second hang.

This module supplies the missing machinery:

:class:`FaultPlan`
    A *seeded* description of network misbehaviour.  Per
    ``(src, dst, tag-class)`` it can **drop**, **duplicate**, **reorder**
    (hold a message back so a later one overtakes it), **delay** (inflate
    the logical arrival time) and **corrupt** (the envelope fails its
    checksum at the receiving NIC and is discarded) messages at
    configurable rates, plus slow individual ranks down and **crash**
    ranks or whole peer programs mid-run.  Every decision is drawn from a
    per-channel ``random.Random`` seeded by ``(seed, src, dst)``, so the
    same seed replays the same faults — and the same trace — every run.

:class:`FailureDetector`
    Shared run-wide registry of dead ranks.  When a rank dies (simulated
    crash or real exception) it is marked dead and every mailbox is woken;
    a receive blocked on a dead source raises :class:`RankLostError` with
    per-rank diagnostics instead of hanging until the receive timeout.

Error hierarchy
---------------
``RankLostError``
    A specific remote *rank* is known dead (or exhausted its retransmit
    budget) while this rank needed a message from it.  Carries the
    observing rank, the lost rank, the reason, and a dump of the
    observer's undelivered mailbox envelopes.

``PeerLostError``
    Subclass raised by the coupling layer when the lost rank belongs to a
    *peer program* of a coupled run (:mod:`repro.core.coupling`), adding
    the peer program's name.

All fault events are visible in traces (``TraceEvent.kind`` =
``"fault:drop"``, ``"fault:dup"``, ``"fault:hold"``, ``"fault:delay"``,
``"fault:corrupt"``) and in per-rank stats (``faults_dropped`` etc.), so
chaos runs are replayable *and* auditable.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.vmachine.tags import (
    COLLECTIVE_TAG_BASE,
    CONTEXT_STRIDE,
    REL_ACK,
    REL_DATA,
    TAG_DATA,
    TAG_DESCRIPTOR,
    TAG_RMA_BASE,
    TAG_SCHED_PIECES,
    TAG_SCHED_SRCINFO,
)
from repro.vmachine.trace import TraceEvent, format_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.vmachine.message import Mailbox, Message
    from repro.vmachine.process import Process

__all__ = [
    "FaultRates",
    "FaultRule",
    "CrashEvent",
    "FaultPlan",
    "DeliveryReceipt",
    "FailureDetector",
    "RankLostError",
    "PeerLostError",
    "SimulatedCrash",
    "faultplan_to_dict",
    "faultplan_from_dict",
    "tag_class",
]


@functools.cache  # pure in the tag; read for every message a plan sees
def tag_class(wire_tag: int) -> str:
    """Classify a wire tag into a fault-targeting class.

    Classes:

    - ``"collective"`` — internal collective traffic (barrier/bcast/...)
    - ``"control"``    — reliability acks / control envelopes
    - ``"data"``       — application data-move payloads (bare ``TAG_DATA``
      or a reliability data envelope wrapping it)
    - ``"sched"``      — schedule-construction exchanges (descriptors,
      ownership pieces)
    - ``"rma"``        — one-sided window traffic (put/get/accumulate
      envelopes and get responses, :mod:`repro.vmachine.window`)
    - ``"user"``       — everything else (application point-to-point)

    Reliability *data* envelopes inherit the class of the tag they wrap,
    so a plan targeting ``"data"`` (or ``"rma"``) faults the same logical
    traffic whether or not the reliable layer is interposed.
    """
    offset = wire_tag % CONTEXT_STRIDE
    if offset >= COLLECTIVE_TAG_BASE:
        return "collective"
    if offset & REL_ACK:
        return "control"
    if offset & REL_DATA:
        return tag_class(offset ^ REL_DATA)
    if offset == TAG_DATA:
        return "data"
    if offset in (TAG_SCHED_SRCINFO, TAG_SCHED_PIECES, TAG_DESCRIPTOR):
        return "sched"
    if TAG_RMA_BASE <= offset < REL_DATA:
        return "rma"
    return "user"


@dataclass(frozen=True)
class FaultRates:
    """Per-message fault probabilities for one matched channel class.

    Rates are independent draws per message, in precedence order
    ``drop`` → ``corrupt`` → ``reorder`` (hold) → deliver.  ``dup`` and
    ``delay`` are orthogonal extras applied to *delivered* messages.
    """

    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    #: uniform range of extra logical arrival latency for delayed messages
    delay_range_s: tuple[float, float] = (1e-4, 2e-3)

    #: any rate non-zero? Read per message, so set once by ``__post_init__``
    any_active = False  # (not a field: repr, == and hash are the rates')

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "reorder", "delay", "corrupt"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} rate {v} outside [0, 1]")
            if v > 0.0:
                object.__setattr__(self, "any_active", True)


@dataclass(frozen=True)
class FaultRule:
    """One targeting rule: rates applied to matching ``(src, dst, class)``.

    ``src``/``dst`` are global ranks (``None`` = any).  ``classes`` is the
    set of :func:`tag_class` values the rule covers; the default targets
    only the data plane, leaving schedule construction and collectives on
    the (reliable) control transport — mirroring the paper's split between
    the MPL/reliable setup phase and the UDP data path.
    """

    rates: FaultRates
    src: int | None = None
    dst: int | None = None
    classes: tuple[str, ...] = ("data",)

    def matches(self, src: int, dst: int, klass: str) -> bool:
        return (self.src in (None, src) and self.dst in (None, dst)
                and klass in self.classes)


@dataclass(frozen=True)
class CrashEvent:
    """Deterministic simulated crash of one rank.

    The rank raises :class:`SimulatedCrash` at its first send after it has
    completed ``after_sends`` sends (or its first receive after
    ``after_receives`` receives, or the first transport operation once its
    logical clock reaches ``at_time_s``).  ``rank`` is a global rank, or a
    ``"program:<name>"`` string resolved to every rank of that program when
    the run is launched.
    """

    rank: int | str
    after_sends: int | None = None
    after_receives: int | None = None
    at_time_s: float | None = None

    def __post_init__(self) -> None:
        if (
            self.after_sends is None
            and self.after_receives is None
            and self.at_time_s is None
        ):
            raise ValueError("CrashEvent needs a trigger")


class SimulatedCrash(RuntimeError):
    """Raised on a rank's own thread when its CrashEvent triggers."""

    def __init__(self, rank: int, trigger: str):
        self.rank = rank
        self.trigger = trigger
        super().__init__(f"rank {rank} crashed by fault plan ({trigger})")


class RankLostError(RuntimeError):
    """A needed remote rank is dead (crashed or unreachable).

    Attributes
    ----------
    rank:
        The observing (raising) rank.
    lost_rank:
        The dead/unreachable global rank.
    reason:
        Why the peer is considered lost.
    pending:
        Summaries of the observer's undelivered mailbox envelopes —
        ``(source, tag, nbytes)`` triples — at the time of the failure.
    last_ack:
        Reliability-layer acknowledgement state for the channel, when the
        failure was detected by the reliable-delivery protocol.
    """

    def __init__(
        self,
        rank: int,
        lost_rank: int,
        reason: str,
        pending: list[tuple[int, int, int]] | None = None,
        last_ack: str | None = None,
    ):
        self.rank = rank
        self.lost_rank = lost_rank
        self.reason = reason
        self.pending = list(pending or [])
        self.last_ack = last_ack
        lines = [
            f"rank {rank}: peer rank {lost_rank} lost ({reason})",
            f"  undelivered envelopes in rank {rank}'s mailbox: "
            + (
                ", ".join(
                    f"(src={s}, tag={format_tag(t)}, {n}B)"
                    for s, t, n in self.pending[:8]
                )
                + (" ..." if len(self.pending) > 8 else "")
                if self.pending
                else "none"
            ),
        ]
        if last_ack is not None:
            lines.append(f"  last-ack state: {last_ack}")
        super().__init__("\n".join(lines))


class PeerLostError(RankLostError):
    """A rank of a *peer program* in a coupled run is dead."""

    def __init__(
        self,
        rank: int,
        lost_rank: int,
        reason: str,
        peer_program: str | None = None,
        pending: list[tuple[int, int, int]] | None = None,
        last_ack: str | None = None,
    ):
        super().__init__(rank, lost_rank, reason, pending, last_ack)
        self.peer_program = peer_program
        if peer_program is not None:
            self.args = (
                f"peer program {peer_program!r} failed:\n" + self.args[0],
            )


class FailureDetector:
    """Run-wide registry of dead ranks shared by every mailbox.

    ``mark_dead`` records the rank and wakes every registered mailbox so
    that receives blocked on the dead rank can re-check and raise
    :class:`RankLostError` immediately instead of waiting out the receive
    timeout.  Pure bookkeeping: it charges no logical time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._dead: dict[int, str] = {}
        self._mailboxes: list["Mailbox"] = []

    def register(self, mailbox: "Mailbox") -> None:
        with self._lock:
            self._mailboxes.append(mailbox)
        mailbox.detector = self

    def mark_dead(self, rank: int, reason: str) -> None:
        with self._lock:
            if rank in self._dead:
                return
            self._dead[rank] = reason
            boxes = list(self._mailboxes)
        for mb in boxes:
            mb.wake()

    def dead_reason(self, rank: int) -> str | None:
        with self._lock:
            return self._dead.get(rank)

    def dead_ranks(self) -> dict[int, str]:
        with self._lock:
            return dict(self._dead)


class DeliveryReceipt:
    """What the (virtual) NIC reports about one send's delivery.

    The reliable-delivery layer uses this as its *retransmission oracle*:
    a real sender learns about a lost datagram only when its retransmission
    timer expires, so on a lost receipt the reliability layer charges the
    RTO wait to the sender's logical clock and retransmits — same logical
    cost and trace as a timer-driven ARQ, without wall-clock
    non-determinism.
    """

    __slots__ = ("delivered", "dropped", "corrupted", "held", "duplicated",
                 "delay_s", "lost")

    def __init__(
        self,
        delivered: int = 1,
        dropped: bool = False,
        corrupted: bool = False,
        held: bool = False,
        duplicated: int = 0,
        delay_s: float = 0.0,
    ):
        self.delivered = delivered
        self.dropped = dropped
        self.corrupted = corrupted
        self.held = held
        self.duplicated = duplicated
        self.delay_s = delay_s
        #: the payload will never reach the receiver's mailbox (read once
        #: per reliable send, so stored: a receipt is never changed)
        self.lost = dropped or corrupted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [
            n for n in ("dropped", "corrupted", "held") if getattr(self, n)
        ]
        return (
            f"DeliveryReceipt(delivered={self.delivered}, "
            f"dup={self.duplicated}, delay={self.delay_s:g}, "
            f"{'|'.join(flags) or 'ok'})"
        )


#: shared receipt for the fault-free fast path (immutable by convention)
OK_RECEIPT = DeliveryReceipt()


class _ChannelState:
    """Per-(src, dst) deterministic fault state.

    Only the *sender's* thread ever touches a channel (sends on a channel
    are sequential program order on the source rank), so no lock is
    needed beyond the creation lock in :class:`FaultPlan`.
    """

    __slots__ = ("rng", "stash")

    def __init__(self, seed: int, src: int, dst: int):
        # Mix with large odd constants: avoids Python's salted hash() so
        # the stream is stable across interpreter runs.
        self.rng = random.Random(((seed * 1000003) + src) * 1000003 + dst)
        #: held-back (reordered) messages awaiting a later delivery
        self.stash: list[tuple["Mailbox", "Message"]] = []


class FaultPlan:
    """Seeded, deterministic description of transport misbehaviour.

    Parameters
    ----------
    seed:
        Root seed; every per-channel RNG derives from it, so a plan with
        the same seed produces the same faults (and the same trace) on
        every run of the same program.
    rules:
        :class:`FaultRule` list checked in order; the first match supplies
        the rates for a message.  Convenience: passing ``rates=`` builds a
        single catch-all rule over ``classes``.
    slowdown:
        Mapping of global rank to a clock-slowdown factor (``2.0`` = the
        rank's local work and messaging overheads take twice as long).
    crashes:
        :class:`CrashEvent` list (deterministic rank/program kills).

    A plan also holds one launch's draw state (channel streams, crash
    counters).  The machine launches on a new plan built from this one's
    :func:`faultplan_to_dict` form, never on the caller's, so every launch
    of the same plan draws the same faults.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: Iterable[FaultRule] = (),
        rates: FaultRates | None = None,
        classes: tuple[str, ...] = ("data",),
        slowdown: dict[int, float] | None = None,
        crashes: Iterable[CrashEvent] = (),
        enabled: bool = True,
    ):
        self.seed = seed
        self.rules: list[FaultRule] = list(rules)
        if rates is not None:
            self.rules.append(FaultRule(rates=rates, classes=classes))
        self.slowdown = dict(slowdown or {})
        self.crashes = list(crashes)
        self.enabled = enabled
        self._lock = threading.Lock()
        self._channels: dict[tuple[int, int], _ChannelState] = {}
        #: per-rank transport-operation counters for crash triggers
        self._op_counts: dict[int, dict[str, int]] = {}
        #: ranks whose CrashEvent already fired (never fire twice)
        self._crashed: set[int] = set()
        self._rates: dict[tuple[int, int, str], FaultRates | None] = {}

    # -- targeting ---------------------------------------------------------

    def rates_for(self, src: int, dst: int, wire_tag: int) -> FaultRates | None:
        """The first matching rule's rates, or None when unfaulted.  Fixed
        for the plan's life, so memoised per (src, dst, tag class) — not
        per wire tag, which collectives draw anew; racing misses agree."""
        key = (src, dst, tag_class(wire_tag))
        try:
            return self._rates[key]
        except KeyError:
            rule = next((r for r in self.rules if r.matches(*key)), None)
            rates = self._rates[key] = (
                rule.rates if self.enabled and rule and rule.rates.any_active
                else None)
            return rates

    def slowdown_for(self, rank: int) -> float:
        return self.slowdown.get(rank, 1.0)

    # -- crash triggers ----------------------------------------------------

    def _counts(self, rank: int) -> dict[str, int]:
        c = self._op_counts.get(rank)
        if c is None:
            with self._lock:
                c = self._op_counts.setdefault(
                    rank, {"sends": 0, "recvs": 0}
                )
        return c

    def _check_crash(self, proc: "Process") -> None:
        if not self.enabled:
            return
        rank = proc.rank
        if rank in self._crashed:
            return
        counts = self._counts(rank)
        for ev in self.crashes:
            if ev.rank != rank:
                continue
            fired = (
                (ev.after_sends is not None and counts["sends"] >= ev.after_sends)
                or (
                    ev.after_receives is not None
                    and counts["recvs"] >= ev.after_receives
                )
                or (ev.at_time_s is not None and proc.clock >= ev.at_time_s)
            )
            if fired:
                self._crashed.add(rank)
                trigger = (
                    f"after_sends={ev.after_sends}"
                    if ev.after_sends is not None
                    else f"after_receives={ev.after_receives}"
                    if ev.after_receives is not None
                    else f"at_time_s={ev.at_time_s}"
                )
                raise SimulatedCrash(rank, trigger)

    def on_send(self, proc: "Process") -> None:
        """Crash hook + counter, before each send of a plan with crashes."""
        self._check_crash(proc)
        self._counts(proc.rank)["sends"] += 1

    def on_recv(self, proc: "Process") -> None:
        """Crash hook + counter, before each receive of a plan with crashes."""
        self._check_crash(proc)
        self._counts(proc.rank)["recvs"] += 1

    # -- delivery ----------------------------------------------------------

    def _new_channel(self, src: int, dst: int) -> _ChannelState:
        """A channel's state on its first faulted message (``apply`` looks
        an existing one up itself), created under the lock."""
        with self._lock:
            ch = self._channels.get((src, dst))
            if ch is None:
                ch = self._channels[src, dst] = _ChannelState(self.seed, src, dst)
        return ch

    def apply(
        self, proc: "Process", mailbox: "Mailbox", message: "Message"
    ) -> DeliveryReceipt:
        """Deliver ``message`` through the fault model; returns the receipt.

        Draw order per message (fixed, so streams are reproducible):
        ``drop``, ``corrupt``, ``reorder``, ``dup``, ``delay``.  A new
        delivery on a channel flushes any held (reordered) messages *after*
        itself — the overtaking that reordering means.  Duplicates are
        appended atomically with their original so the reliable layer's
        post-receive drain deterministically scoops them.
        """
        rates = self.rates_for(message.source, message.dest, message.tag)
        if rates is None:
            mailbox.deliver(message)
            return OK_RECEIPT
        ch = (self._channels.get((message.source, message.dest))
              or self._new_channel(message.source, message.dest))
        rng = ch.rng
        # Fixed draw schedule: always consume the same number of variates
        # per message so one fault never shifts the stream of the next.
        u_drop = rng.random()
        u_corrupt = rng.random()
        u_hold = rng.random()
        u_dup = rng.random()
        u_delay = rng.random()
        u_delay_amount = rng.random()

        if u_drop < rates.drop:
            self._note(proc, "fault:drop", message)
            return DeliveryReceipt(delivered=0, dropped=True)
        if u_corrupt < rates.corrupt:
            # Envelope fails its checksum at the receiving NIC: discarded
            # before it can be matched — indistinguishable from a drop to
            # the application, but separately traced and counted.
            self._note(proc, "fault:corrupt", message)
            return DeliveryReceipt(delivered=0, corrupted=True)

        delay = 0.0
        if u_delay < rates.delay:
            lo, hi = rates.delay_range_s
            delay = lo + (hi - lo) * u_delay_amount
            message.arrival += delay
            self._note(proc, "fault:delay", message)

        if u_hold < rates.reorder:
            ch.stash.append((mailbox, message))
            self._note(proc, "fault:hold", message)
            return DeliveryReceipt(delivered=0, held=True, delay_s=delay)

        batch = [message]
        duplicated = 0
        if u_dup < rates.dup:
            duplicated = 1
            batch.append(message.clone())
            self._note(proc, "fault:dup", message)
        # Overtaking: this delivery goes first, then the held-back
        # messages follow (FIFO among themselves).
        if ch.stash:
            held = [m for mb, m in ch.stash if mb is mailbox]
            ch.stash = [(mb, m) for mb, m in ch.stash if mb is not mailbox]
            batch.extend(held)
        mailbox.deliver_many(batch)
        if len(batch) == 1 and not delay:
            return OK_RECEIPT  # what a plain delivery reports
        return DeliveryReceipt(
            delivered=len(batch), duplicated=duplicated, delay_s=delay
        )

    def flush_channel(self, src: int, dst: int) -> int:
        """Deliver any held (reordered) messages on ``src → dst``.

        Called by the reliability layer's fence — the network finally
        delivering in-flight packets costs the *sender* nothing.  Returns
        the number of messages flushed.
        """
        ch = self._channels.get((src, dst))
        if ch is None or not ch.stash:
            return 0
        stash, ch.stash = ch.stash, []
        n = 0
        for mb, m in stash:
            mb.deliver(m)
            n += 1
        return n

    def held_count(self, src: int, dst: int) -> int:
        """Number of messages currently held back on ``src → dst``."""
        ch = self._channels.get((src, dst))
        return len(ch.stash) if ch is not None else 0

    # -- observability -----------------------------------------------------

    @staticmethod
    def _note(proc: "Process", kind: str, message: "Message") -> None:
        proc.metrics.incr("faults_" + kind.split(":", 1)[1])
        if proc.trace is not None:
            # ``peer`` is the *other* endpoint relative to the observing
            # rank: a sender-side fault names the destination, a
            # receiver-side one (dup suppression, reorder release) names
            # the source.  Recording ``message.dest`` unconditionally
            # mislabelled receiver-side events as self-directed.
            peer = (
                message.dest if proc.rank == message.source
                else message.source
            )
            path = "/".join(proc._span_stack)
            proc.trace.append(tuple.__new__(TraceEvent, (
                kind, proc.clock, proc.rank, peer, message.tag,
                message.nbytes, 0.0,
                # span context plus the fault kind, so a timeline or
                # Perfetto export shows *where* the fault struck
                f"{path}/{kind}" if path else kind,
            )))


# -- the plan as data -------------------------------------------------------


def _crash_ranks(rank: int | str, blocks: dict[str, list[int]] | None):
    """The global ranks a crash event's ``rank`` names: itself, or every
    rank of the program a ``"program:<name>"`` string names in
    ``blocks``."""
    if blocks is None or not (
            isinstance(rank, str) and rank.startswith("program:")):
        return (rank,)
    name = rank.split(":", 1)[1]
    if name not in blocks:
        raise ValueError(
            f"CrashEvent names unknown program {name!r}; "
            f"programs: {sorted(blocks)}"
        )
    return blocks[name]


def faultplan_to_dict(
    plan: FaultPlan | None, blocks: dict[str, list[int]] | None = None
) -> dict | None:
    """Serialize a :class:`FaultPlan` (its *specification*, not its RNG
    state — per-channel streams re-derive deterministically from the
    seed).  ``blocks`` (program name → global ranks, as the launcher lays
    them out) expands each ``"program:<name>"`` crash event to one event
    per rank of that program."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "enabled": plan.enabled,
        "rules": [
            {
                "rates": {
                    "drop": r.rates.drop,
                    "dup": r.rates.dup,
                    "reorder": r.rates.reorder,
                    "delay": r.rates.delay,
                    "corrupt": r.rates.corrupt,
                    "delay_range_s": list(r.rates.delay_range_s),
                },
                "src": r.src,
                "dst": r.dst,
                "classes": list(r.classes),
            }
            for r in plan.rules
        ],
        "slowdown": {str(k): v for k, v in sorted(plan.slowdown.items())},
        "crashes": [
            {
                "rank": rank,
                "after_sends": ev.after_sends,
                "after_receives": ev.after_receives,
                "at_time_s": ev.at_time_s,
            }
            for ev in plan.crashes
            for rank in _crash_ranks(ev.rank, blocks)
        ],
    }


def faultplan_from_dict(d: dict | None) -> FaultPlan | None:
    """A new :class:`FaultPlan` from :func:`faultplan_to_dict`'s form,
    drawing the faults the serialized plan draws."""
    if d is None:
        return None
    rules = [
        FaultRule(
            rates=FaultRates(
                drop=r["rates"]["drop"],
                dup=r["rates"]["dup"],
                reorder=r["rates"]["reorder"],
                delay=r["rates"]["delay"],
                corrupt=r["rates"]["corrupt"],
                delay_range_s=tuple(r["rates"]["delay_range_s"]),
            ),
            src=r["src"],
            dst=r["dst"],
            classes=tuple(r["classes"]),
        )
        for r in d["rules"]
    ]
    crashes = [
        CrashEvent(
            rank=c["rank"],
            after_sends=c["after_sends"],
            after_receives=c["after_receives"],
            at_time_s=c["at_time_s"],
        )
        for c in d["crashes"]
    ]
    return FaultPlan(
        seed=d["seed"],
        rules=rules,
        slowdown={int(k): v for k, v in d["slowdown"].items()},
        crashes=crashes,
        enabled=d["enabled"],
    )
