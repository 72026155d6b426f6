"""Messages, per-rank mailboxes, and the pooled pack-buffer arena.

A :class:`Mailbox` is the receive side of one virtual processor.  Senders
append :class:`Message` envelopes; the receiver blocks until a message
matching ``(source, tag)`` is available.  Matching supports the usual MPI
wildcards (:data:`ANY_SOURCE`, :data:`ANY_TAG`) and preserves pairwise FIFO
order: two messages from the same source with the same tag are received in
the order they were sent.

:class:`PackArena` is each rank's pool of message *staging* buffers
(pack/unpack scratch for the fused-plan executor in
:mod:`repro.core.plan`): size-class reuse so iterative loops stop
allocating a fresh buffer per message per timestep.  Buffers are leased
at send time and returned by the *receiver* once it has unpacked the
payload — safe on this zero-copy transport because each fused buffer has
exactly one receiver, and by the time ``release()`` runs nobody else
holds a live reference.  Checkout/release never charges the logical
clock, so arena behaviour (hit or miss) can never perturb a run's
timing determinism; the counters are wall-clock-truthful observability
only.

Failure behaviour: a mailbox may carry a reference to the run's
:class:`~repro.vmachine.faults.FailureDetector`.  A receive blocked on a
*specific* source that the detector knows to be dead raises
:class:`~repro.vmachine.faults.RankLostError` immediately (with a dump of
the undelivered envelopes) instead of waiting out the receive timeout —
this is what turns a crashed peer into a structured, diagnosable error
rather than a 120-second hang.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ArenaLease",
    "Message",
    "Mailbox",
    "PackArena",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(payload: Any) -> int:
    """Best-effort size in bytes of a message payload.

    Buffer-like objects (NumPy arrays and scalars, ``memoryview``) report
    their buffer size via ``.nbytes``; strings are charged their encoded
    UTF-8 length (what would actually cross the wire, not the code-point
    count); tuples/lists/dicts are sized recursively; everything else is
    charged a small fixed envelope.  The size feeds the cost model only —
    it does not have to be exact, just monotone in the real data volume.

    The ``.nbytes`` probe is restricted to genuinely buffer-like types up
    front; for opaque objects it is honored only when the attribute is a
    plain non-negative integer.  Schedules and descriptors define exactly
    such an ``nbytes`` property, so they stay precisely charged, while an
    arbitrary object whose ``nbytes`` is a method, a dtype quirk, or
    otherwise not a byte count falls back to the fixed envelope instead
    of crashing or mischarging — and a container subclass carrying a
    stray ``nbytes`` attribute is still sized by its contents.
    """
    if isinstance(payload, (np.ndarray, np.generic, memoryview)):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        # len() *is* the byte count for these.
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return 8 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    if isinstance(payload, (int, float, bool)) or payload is None:
        return 8
    if isinstance(payload, str):
        # Encoded size, not len(): non-ASCII text serializes to more than
        # one byte per code point (ASCII is unchanged, so historical
        # logical clocks are unaffected).
        return len(payload.encode("utf-8"))
    nbytes = getattr(payload, "nbytes", None)
    if (
        isinstance(nbytes, (int, np.integer))
        and not isinstance(nbytes, bool)
        and nbytes >= 0
    ):
        return int(nbytes)
    # Opaque object with no usable size: charge an envelope.
    return 64


@dataclass
class Message:
    """One in-flight message envelope."""

    source: int
    dest: int
    tag: int
    payload: Any
    #: logical time at which the payload is available at the receiver
    arrival: float
    #: payload size used for cost accounting
    nbytes: int = field(default=0)

    def matches(
        self,
        source: int,
        tag: int,
        tag_range: tuple[int, int] | None = None,
    ) -> bool:
        """Does this message match ``(source, tag)``?

        ``tag_range`` scopes an :data:`ANY_TAG` wildcard to the half-open
        wire-tag interval ``[lo, hi)`` — the caller's communicator context
        block — so a wildcard receive or probe can never match another
        communicator's traffic.  Ignored for exact tags.
        """
        if source != ANY_SOURCE and source != self.source:
            return False
        if tag == ANY_TAG:
            return tag_range is None or tag_range[0] <= self.tag < tag_range[1]
        return tag == self.tag

    def clone(self) -> "Message":
        """Shallow duplicate (same payload reference) — used by the fault
        layer's duplicate injection; the network copies bytes, not the
        application object graph."""
        return Message(
            source=self.source,
            dest=self.dest,
            tag=self.tag,
            payload=self.payload,
            arrival=self.arrival,
            nbytes=self.nbytes,
        )


def _remaining(
    deadline: float | None, timeout: float | None
) -> tuple[float | None, float | None]:
    """``(deadline, seconds left)`` of a receive that is about to wait.

    The deadline is taken on the first call (``deadline`` None) and
    passed back in on every later one, so a receive that never waits
    never reads the clock and a woken one cannot extend its budget.
    """
    if timeout is None:
        return None, None
    now = time.monotonic()
    if deadline is None:
        deadline = now + timeout
    return deadline, deadline - now


def _where(context: str | Callable[[], str] | None) -> str:
    """`` in <context>`` for a failure text; a callable context (built
    only now, when raising) is called."""
    if callable(context):
        context = context()
    return f" in {context}" if context else ""


class Mailbox:
    """Blocking, condition-variable based receive queue for one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: deque[Message] = deque()
        self._closed = False
        #: run-wide failure detector (set by VirtualMachine/run_programs)
        self.detector = None

    def deliver(self, message: Message) -> None:
        """Called by the sender thread to enqueue a message."""
        with self._cond:
            if self._closed:
                raise RuntimeError(
                    f"mailbox of rank {self.rank} is closed; "
                    f"late message from rank {message.source}"
                )
            self._messages.append(message)
            self._cond.notify_all()

    def deliver_many(self, messages: list[Message]) -> None:
        """Atomically enqueue several messages (single lock acquisition).

        The fault layer uses this so a duplicate is never observable
        without its original, and a flushed (reordered) batch keeps its
        chosen order — both properties the reliable layer's deterministic
        drain depends on.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError(
                    f"mailbox of rank {self.rank} is closed; "
                    f"late message batch of {len(messages)}"
                )
            self._messages.extend(messages)
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake all blocked receivers so they re-check failure state."""
        with self._cond:
            self._cond.notify_all()

    # -- failure / diagnostic helpers (call with lock held) ----------------

    def _pending_summary(self) -> list[tuple[int, int, int]]:
        return [(m.source, m.tag, m.nbytes) for m in self._messages]

    def _format_pending(self, limit: int = 8) -> str:
        pend = self._pending_summary()
        if not pend:
            return "no undelivered envelopes pending"
        shown = ", ".join(
            f"(src={s}, tag={t & 0xFFFF}, {n}B)" for s, t, n in pend[:limit]
        )
        more = f" ... and {len(pend) - limit} more" if len(pend) > limit else ""
        return f"{len(pend)} undelivered envelope(s): {shown}{more}"

    def _check_lost(self, source: int) -> None:
        """Raise RankLostError if ``source`` is known dead (lock held)."""
        det = self.detector
        if det is None or source == ANY_SOURCE:
            return
        reason = det.dead_reason(source)
        if reason is not None:
            from repro.vmachine.faults import RankLostError

            raise RankLostError(
                self.rank, source, reason, pending=self._pending_summary()
            )

    def receive(
        self,
        source: int,
        tag: int,
        timeout: float | None = None,
        tag_range: tuple[int, int] | None = None,
        context: str | Callable[[], str] | None = None,
    ) -> Message:
        """Block until a message matching ``(source, tag)`` arrives.

        ``tag_range`` scopes :data:`ANY_TAG` wildcards to one communicator's
        wire-tag block (see :meth:`Message.matches`).  ``context`` is an
        optional human-readable description of the waiting operation
        (communicator context) for failure diagnostics — or a callable
        returning it, called only if the receive fails.

        Raises ``TimeoutError`` after ``timeout`` wall-clock seconds
        (measured against a deadline fixed when the receive first has to
        wait, so spurious wakeups do not extend it, and a receive that
        finds its message queued never reads the clock), which turns an
        SPMD deadlock into a diagnosable test failure instead of a hung
        process; raises :class:`~repro.vmachine.faults.RankLostError` as
        soon as the awaited source is marked dead.
        """
        deadline = None
        with self._cond:
            while True:
                for i, msg in enumerate(self._messages):
                    if msg.matches(source, tag, tag_range):
                        del self._messages[i]
                        return msg
                if self._closed:
                    raise RuntimeError(
                        f"rank {self.rank}: receive(source={source}, tag={tag}) "
                        "on a closed mailbox"
                    )
                self._check_lost(source)
                deadline, remaining = _remaining(deadline, timeout)
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(self._timeout_text(source, tag, timeout,
                                                          context))
                self._cond.wait(timeout=remaining)

    def _timeout_text(
        self, source: int, tag: int, timeout: float | None, context
    ) -> str:
        where = _where(context)
        return (
            f"rank {self.rank}: receive(source={source}, "
            f"tag={tag if tag == ANY_TAG else tag & 0xFFFF}){where} "
            f"timed out after {timeout}s; {self._format_pending()}"
        )

    def receive_any_of(
        self,
        patterns: list[tuple[int, int, tuple[int, int] | None]],
        timeout: float | None = None,
        context: str | Callable[[], str] | None = None,
    ) -> tuple[int, Message]:
        """Wait-any over several ``(source, tag, tag_range)`` patterns.

        Blocks (wall-clock) until **every** pattern has at least one
        matching message physically delivered, then removes and returns
        ``(pattern_index, message)`` for the candidate with the earliest
        *logical* arrival time (ties broken by ``(source, tag)``; messages
        from the same source+tag keep pairwise FIFO order).

        Waiting for the full candidate set before choosing is what makes
        arrival-order completion *deterministic*: the pick depends only on
        logical arrival times, never on host thread scheduling.  The
        physical wait costs no logical time — completing the earliest
        message advances the clock only to that message's arrival.
        Callers must therefore only use it when every pattern's message is
        already in flight or will be sent without depending on this rank's
        subsequent actions (true for all Meta-Chaos executor phases, where
        sends are injected eagerly before the receive loop starts).

        Raises :class:`~repro.vmachine.faults.RankLostError` when an
        unmatched pattern's exact source is known dead — that pattern can
        never complete.
        """
        deadline = None
        with self._cond:
            while True:
                claimed: set[int] = set()
                candidates: list[tuple[float, int, int, int, int]] = []
                complete = True
                unmatched_sources: list[int] = []
                for k, (source, tag, tag_range) in enumerate(patterns):
                    found = False
                    for i, msg in enumerate(self._messages):
                        if i in claimed:
                            continue
                        if msg.matches(source, tag, tag_range):
                            # (arrival, source, tag) is a deterministic key;
                            # deque index i only resolves same-pair FIFO.
                            candidates.append(
                                (msg.arrival, msg.source, msg.tag, i, k)
                            )
                            claimed.add(i)
                            found = True
                            break
                    if not found:
                        complete = False
                        unmatched_sources.append(source)
                if complete:
                    arrival, src, tg, i, k = min(
                        candidates, key=lambda c: (c[0], c[1], c[2])
                    )
                    msg = self._messages[i]
                    del self._messages[i]
                    return k, msg
                if self._closed:
                    raise RuntimeError(
                        f"rank {self.rank}: receive_any_of on a closed mailbox"
                    )
                for source in unmatched_sources:
                    self._check_lost(source)
                deadline, remaining = _remaining(deadline, timeout)
                if remaining is not None and remaining <= 0:
                    where = _where(context)
                    raise TimeoutError(
                        f"rank {self.rank}: receive_any_of over "
                        f"{len(patterns)} pattern(s){where} timed out after "
                        f"{timeout}s; still unmatched sources "
                        f"{unmatched_sources}; {self._format_pending()}"
                    )
                self._cond.wait(timeout=remaining)

    def probe(
        self,
        source: int,
        tag: int,
        tag_range: tuple[int, int] | None = None,
    ) -> bool:
        """Non-blocking test for a matching pending message."""
        with self._lock:
            return any(m.matches(source, tag, tag_range) for m in self._messages)

    def pending(self) -> int:
        """Number of undelivered messages (used by leak checks in tests)."""
        with self._lock:
            return len(self._messages)

    def pending_summary(self) -> list[tuple[int, int, int]]:
        """Snapshot of undelivered envelopes as ``(source, tag, nbytes)``."""
        with self._lock:
            return self._pending_summary()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# pooled pack-buffer arena
# ---------------------------------------------------------------------------

#: smallest pooled buffer (bytes); sub-minimum requests round up to this
ARENA_MIN_CLASS = 256


class ArenaLease:
    """One checked-out staging buffer.

    ``buffer`` is a 1-D ``uint8`` array of the size class's capacity
    (>= the requested bytes; slice it to the payload length).  Call
    :meth:`release` exactly when no live reference to the bytes remains —
    for a fused data message, that is the moment the receiver has
    unpacked every segment.  ``release`` is idempotent and thread-safe
    (the receiver's thread returns the buffer to the *sender's* arena).
    A lease from a bypassed checkout (``pooled=False``) releases to
    nowhere: the buffer is ordinary garbage-collected storage.
    """

    __slots__ = ("buffer", "_arena", "_released")

    def __init__(self, buffer: np.ndarray, arena: "PackArena | None"):
        self.buffer = buffer
        self._arena = arena
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        if self._arena is not None:
            self._arena._give_back(self.buffer)


class PackArena:
    """Per-rank, size-class pool of message staging buffers.

    Capacities are powers of two (>= :data:`ARENA_MIN_CLASS`); a checkout
    reuses the most recently released buffer of the class when one is
    free (LIFO — the cache-warm buffer) and allocates otherwise.

    Counters (mirrored into the owning process's ``stats`` dict so they
    surface in :meth:`~repro.vmachine.machine.SPMDResult.total_stat`):

    - ``arena_hits`` / ``arena_misses`` — checkouts served from the pool
      vs freshly allocated;
    - ``arena_bytes_reused`` — capacity bytes served from the pool;
    - ``arena_high_water_bytes`` — largest total capacity ever owned
      (pooled + outstanding), the arena's memory footprint ceiling;
    - ``arena_bypass`` — checkouts that skipped pooling (see below).

    The ``copy_on_send`` escape hatch: when the process runs in
    copy-on-send debug mode, the transport deep-copies every payload at
    send time — the receiver then unpacks a *private copy* and its
    ``release()`` must not recycle a buffer the pool never really
    controlled (the deep copy severs the lease).  Callers therefore pass
    ``pooled=False`` (the fused executor passes
    ``not process.copy_on_send``), turning the checkout into a plain
    allocation with a no-op release.
    """

    def __init__(self, stats: Any = None):
        self._lock = threading.Lock()
        self._free: dict[int, list[np.ndarray]] = {}
        # Accepts a plain dict (historical/tests) or a
        # :class:`~repro.observe.metrics.MetricsRegistry` (the process
        # passes its registry; the arena writes the registry's counter
        # storage directly so `proc.stats` and `proc.metrics` agree).
        counters = getattr(stats, "counters", None)
        if counters is not None:
            self._stats = counters
        else:
            self._stats = stats if stats is not None else {}
        self._owned_bytes = 0  # total capacity: pooled + outstanding

    @staticmethod
    def size_class(nbytes: int) -> int:
        """Smallest power-of-two capacity >= ``nbytes`` (floored at
        :data:`ARENA_MIN_CLASS`)."""
        if nbytes < 0:
            raise ValueError(f"negative buffer size {nbytes}")
        cls = ARENA_MIN_CLASS
        while cls < nbytes:
            cls <<= 1
        return cls

    def _bump(self, key: str, amount: float = 1) -> None:
        self._stats[key] = self._stats.get(key, 0) + amount

    def checkout(self, nbytes: int, pooled: bool = True) -> ArenaLease:
        """Lease a staging buffer of capacity >= ``nbytes``.

        Never charges logical time.  ``pooled=False`` is the escape
        hatch: a fresh, unpooled allocation whose release is a no-op.
        """
        cls = self.size_class(nbytes)
        if not pooled:
            self._bump("arena_bypass")
            return ArenaLease(np.empty(cls, dtype=np.uint8), None)
        with self._lock:
            bucket = self._free.get(cls)
            if bucket:
                buf = bucket.pop()
                self._bump("arena_hits")
                self._bump("arena_bytes_reused", cls)
                return ArenaLease(buf, self)
            self._bump("arena_misses")
            self._owned_bytes += cls
            high = self._stats.get("arena_high_water_bytes", 0)
            if self._owned_bytes > high:
                self._stats["arena_high_water_bytes"] = self._owned_bytes
        return ArenaLease(np.empty(cls, dtype=np.uint8), self)

    def _give_back(self, buffer: np.ndarray) -> None:
        with self._lock:
            self._free.setdefault(len(buffer), []).append(buffer)

    # -- introspection (tests / diagnostics) -------------------------------

    @property
    def pooled_bytes(self) -> int:
        """Capacity currently sitting free in the pool."""
        with self._lock:
            return sum(cls * len(b) for cls, b in self._free.items())

    @property
    def owned_bytes(self) -> int:
        """Total capacity this arena has allocated and still tracks."""
        with self._lock:
            return self._owned_bytes
