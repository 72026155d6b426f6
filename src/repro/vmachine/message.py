"""Messages, per-rank mailboxes, and the pooled pack-buffer arena.

A :class:`Mailbox` is the receive side of one virtual processor.  Senders
enqueue :class:`Message` envelopes; the receiver blocks until a message
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

from repro.vmachine.trace import format_tag

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ArenaLease",
    "Message",
    "Mailbox",
    "PackArena",
]

ANY_SOURCE = -1
ANY_TAG = -1


def _matches(msg_source: int, msg_tag: int, source: int, tag: int,
             tag_range: tuple[int, int] | None) -> bool:
    """The matching rule, shared by :meth:`Message.matches` and the
    mailbox index (which matches keys, not envelopes)."""
    if source != ANY_SOURCE and source != msg_source:
        return False
    if tag == ANY_TAG:
        return tag_range is None or tag_range[0] <= msg_tag < tag_range[1]
    return tag == msg_tag


@dataclass(slots=True)
class Message:
    """One in-flight message envelope (slotted: one is built per send)."""

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
        return _matches(self.source, self.tag, source, tag, tag_range)

    def clone(self) -> "Message":
        """Shallow duplicate (same payload reference) — used by the fault
        layer's duplicate injection; the network copies bytes, not the
        application object graph."""
        return Message(self.source, self.dest, self.tag, self.payload,
                       self.arrival, self.nbytes)


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


#: awaited by a blocked wildcard or wait-any receiver: any delivery wakes it
_ANY_DELIVERY = object()


class Mailbox:
    """Blocking receive queue of one rank, indexed by ``(source, tag)``.

    Storage is ``(source, tag) -> deque[(seq, Message)]``, ``seq`` being
    this mailbox's delivery sequence number; a key exists only while its
    queue is non-empty.  An exact receive or probe is one dict look-up and
    takes its queue's head (pairwise FIFO); a wildcard scans the keys, not
    the envelopes, and takes the match with the smallest ``seq`` — the
    first match of a linear scan in delivery order.  One receiver per
    mailbox (the rank's thread) is an invariant: it registers what it
    awaits in ``_waiting`` and sleeps acquiring ``_wake`` (held whenever
    no wake-up is in flight), and a delivery releases that only for the
    awaited key — any delivery for wildcards and wait-any, :meth:`wake`
    and :meth:`close` always.  See docs/MODEL.md, *The transport seam*.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._lock = threading.Lock()
        self._queues: dict[tuple[int, int], deque[tuple[int, Message]]] = {}
        self._seq = 0
        self._waiting: Any = None  # None | awaited key | _ANY_DELIVERY
        self._wake = threading.Lock()
        self._wake.acquire()
        self._closed = False
        #: run-wide failure detector (set by VirtualMachine._launch)
        self.detector = None

    def deliver(self, message: Message) -> None:
        """Called by the sender thread to enqueue a message."""
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"mailbox of rank {self.rank} is closed; "
                    f"late message from rank {message.source}"
                )
            self._enqueue(message)

    def deliver_many(self, messages: list[Message]) -> None:
        """Atomically enqueue several messages (single lock acquisition).

        The fault layer uses this so a duplicate is never observable
        without its original, and a flushed (reordered) batch keeps its
        chosen order — both properties the reliable layer's deterministic
        drain depends on.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"mailbox of rank {self.rank} is closed; "
                    f"late message batch of {len(messages)}"
                )
            for message in messages:
                self._enqueue(message)

    def wake(self) -> None:
        """Wake the blocked receiver so it re-checks failure state."""
        with self._lock:
            self._signal()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._signal()

    # -- index and wait primitive (call with lock held) ---------------------

    def _enqueue(self, message: Message) -> None:
        key = (message.source, message.tag)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        self._seq = seq = self._seq + 1
        queue.append((seq, message))
        waiting = self._waiting
        if waiting is not None and (waiting is _ANY_DELIVERY or waiting == key):
            self._signal()

    def _signal(self) -> None:
        """Wake the blocked receiver, if any — once per wait."""
        if self._waiting is not None:
            self._waiting = None
            self._wake.release()

    def _wait(self, awaited: Any, remaining: float | None) -> None:
        """Sleep (lock dropped) until a delivery for ``awaited``, a
        :meth:`wake`/:meth:`close`, or ``remaining`` seconds."""
        if self._waiting is not None:
            raise RuntimeError(
                f"rank {self.rank}: a second thread tried to block on a "
                "mailbox that has a blocked receiver (one receiver per mailbox)"
            )
        self._waiting = awaited
        self._lock.release()
        try:
            self._wake.acquire(timeout=-1 if remaining is None else remaining)
        finally:
            self._lock.acquire()
            self._waiting = None
            # Re-arm: a signal that landed between a timeout and re-taking
            # the lock must not be left to satisfy the next wait.
            self._wake.acquire(False)

    def _first(self, source: int, tag: int,
               tag_range: tuple[int, int] | None, claimed=()):
        """Oldest match whose ``seq`` is not in ``claimed``, as ``(seq, key,
        index in the key's queue, message)``; None without one."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            keys = ((source, tag),) if (source, tag) in self._queues else ()
        else:
            keys = [key for key in self._queues
                    if _matches(key[0], key[1], source, tag, tag_range)]
        best = None
        for key in keys:
            for index, (seq, message) in enumerate(self._queues[key]):
                if seq not in claimed:
                    if best is None or seq < best[0]:
                        best = (seq, key, index, message)
                    break
        return best

    def _remove(self, key: tuple[int, int], index: int) -> None:
        queue = self._queues[key]
        del queue[index]
        if not queue:
            del self._queues[key]

    # -- failure / diagnostic helpers (call with lock held) ----------------

    def _pending_summary(self) -> list[tuple[int, int, int]]:
        # delivery order; seq is unique, so no two messages are compared
        entries = sorted(e for queue in self._queues.values() for e in queue)
        return [(m.source, m.tag, m.nbytes) for _, m in entries]

    def _format_pending(self, limit: int = 8) -> str:
        pend = self._pending_summary()
        if not pend:
            return "no undelivered envelopes pending"
        shown = ", ".join(
            f"(src={s}, tag={format_tag(t)}, {n}B)" for s, t, n in pend[:limit]
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
        exact = source != ANY_SOURCE and tag != ANY_TAG
        key = (source, tag)
        deadline = None
        with self._lock:
            while True:
                if exact:
                    queue = self._queues.get(key)
                    if queue is not None:
                        message = queue.popleft()[1]
                        if not queue:
                            del self._queues[key]
                        return message
                else:
                    hit = self._first(source, tag, tag_range)
                    if hit is not None:
                        self._remove(hit[1], hit[2])
                        return hit[3]
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
                self._wait(key if exact else _ANY_DELIVERY, remaining)

    def _timeout_text(
        self, source: int, tag: int, timeout: float | None, context
    ) -> str:
        where = _where(context)
        return (
            f"rank {self.rank}: receive(source={source}, "
            f"tag={format_tag(tag)}){where} "
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
        from the same source+tag keep pairwise FIFO order: each pattern
        claims the oldest match no earlier pattern claimed).

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
        with self._lock:
            while True:
                claimed: set[int] = set()
                candidates: list[tuple] = []
                unmatched_sources: list[int] = []
                for k, (source, tag, tag_range) in enumerate(patterns):
                    hit = self._first(source, tag, tag_range, claimed)
                    if hit is None:
                        unmatched_sources.append(source)
                    else:
                        claimed.add(hit[0])
                        candidates.append((k, *hit))
                if not unmatched_sources:
                    # first minimum in pattern order: same-pair FIFO on ties
                    k, _, key, index, msg = min(
                        candidates,
                        key=lambda c: (c[4].arrival, c[4].source, c[4].tag))
                    self._remove(key, index)
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
                self._wait(_ANY_DELIVERY, remaining)

    def probe(
        self,
        source: int,
        tag: int,
        tag_range: tuple[int, int] | None = None,
    ) -> bool:
        """Non-blocking test for a matching pending message."""
        with self._lock:
            return self._first(source, tag, tag_range) is not None

    def pending(self) -> int:
        """Number of undelivered messages (used by leak checks in tests)."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def pending_summary(self) -> list[tuple[int, int, int]]:
        """Undelivered envelopes, ``(source, tag, nbytes)`` in delivery order."""
        with self._lock:
            return self._pending_summary()


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
