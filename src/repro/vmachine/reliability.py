"""Opt-in reliable delivery over the unreliable point-to-point transport.

The paper's Alpha-farm runs put Meta-Chaos on **PVM over UDP over ATM**
(§5) — the runtime itself had to tolerate datagram loss — while the SP2
runs rode MPL's reliable messaging.  This module reproduces that split as
a measurable design axis: the :class:`Reliability` layer implements a
sequence-numbered, cumulative-ack, timeout/backoff-retransmit protocol
**on top of** the ordinary ``send``/``recv`` primitives, exactly the way
the collectives are layered, so every control message (ack, retransmit)
is charged by the same LogGP cost model as application traffic.  Running
a workload with and without the layer is the reliability-overhead
ablation (``benchmarks/bench_ablation_reliability.py``) — the analogue of
the paper's MPL-vs-PVM/UDP transport difference.

Protocol
--------
Per directed channel ``(communicator context, peer, tag)``:

- **Sender**: wraps each payload as ``(seq, payload)`` and sends it on the
  shadow data tag (``tag | REL_DATA``).  The virtual NIC's
  :class:`~repro.vmachine.faults.DeliveryReceipt` is the *retransmission
  oracle*: a real sender only learns of a lost datagram when its
  retransmission timer (RTO) expires, so on a lost receipt the layer
  charges the RTO (exponential backoff: ``BASE_RTO_S * BACKOFF**attempt``)
  to the sender's logical clock and retransmits — the same logical cost
  and the same wire traffic as a timer-driven ARQ, with none of the
  wall-clock non-determinism.  After ``MAX_RETRIES`` lost receipts the
  peer is declared lost (:class:`~repro.vmachine.faults.RankLostError`
  carrying the channel's last-ack state).
- **Receiver**: accepts envelopes, suppresses duplicates, buffers
  out-of-order sequence numbers, delivers strictly in order, and answers
  each delivery with a **cumulative ack** (highest contiguous sequence
  received) on the shadow ack tag.  After every accepted envelope it
  drains the channel's mailbox backlog so duplicate copies (which the
  fault layer appends atomically with their originals) are consumed and
  counted rather than leaking.
- **Fence**: the sender's end-of-phase barrier.  It first asks the fault
  plan to release any held-back (reordered) in-flight messages, then
  blocks until every channel's cumulative ack has caught up with its send
  sequence; acks are received as ordinary charged messages.  A fence that
  cannot complete within the bounded deadline raises with the channel's
  last-ack diagnostics.

The layer is deliberately *conservative*: the sender's retransmission
timer blocks the injection pipeline (stop-and-wait on loss), so measured
reliability overhead is an upper bound of what a windowed implementation
would pay.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.vmachine.faults import RankLostError
from repro.vmachine.tags import REL_ACK, REL_DATA
from repro.vmachine.trace import format_tag

__all__ = ["Reliability", "ReliableView", "REL_DATA", "REL_ACK",
           "BASE_RTO_S", "BACKOFF", "MAX_RETRIES"]

# Shadow-tag bits (repro.vmachine.tags): a reliable data envelope for
# user/runtime tag ``t`` travels on ``t | REL_DATA``; its cumulative acks
# on ``t | REL_ACK``.  Both stay below the collective tag block and inside
# the owning communicator's context block, so context scoping still applies.


#: initial retransmission timeout charged on the first lost delivery
BASE_RTO_S = 2e-3
#: multiplicative backoff applied per successive retransmission
BACKOFF = 2.0
#: lost deliveries tolerated per message before declaring the peer lost
MAX_RETRIES = 8


class _OutChannel:
    """Sender-side state of one directed channel."""

    __slots__ = ("endpoint", "peer", "tag", "next_seq", "acked")

    def __init__(self, endpoint, peer: int, tag: int):
        self.endpoint = endpoint
        self.peer = peer
        self.tag = tag
        self.next_seq = 0
        #: highest cumulatively acknowledged sequence (-1 = none yet)
        self.acked = -1

    def describe(self) -> str:
        return (
            f"out-channel to group rank {self.peer} tag "
            f"{format_tag(self.endpoint._wire_tag(self.tag))}: "
            f"sent seqs [0, {self.next_seq}), last cumulative ack "
            f"{self.acked}"
        )


class _InChannel:
    """Receiver-side state of one directed channel."""

    __slots__ = ("endpoint", "peer", "tag", "expected", "buffer", "dups")

    def __init__(self, endpoint, peer: int, tag: int):
        self.endpoint = endpoint
        self.peer = peer
        self.tag = tag
        #: next in-order sequence number owed to the application
        self.expected = 0
        #: out-of-order envelopes keyed by sequence number
        self.buffer: dict[int, Any] = {}
        self.dups = 0

    def describe(self) -> str:
        return (
            f"in-channel from group rank {self.peer} tag "
            f"{format_tag(self.endpoint._wire_tag(self.tag))}: "
            f"delivered seqs [0, {self.expected}), {len(self.buffer)} "
            f"buffered out-of-order, {self.dups} duplicate(s) suppressed"
        )


class Reliability:
    """Reliable-delivery protocol instance for one processor's channels.

    One instance is attached per :class:`~repro.core.universe.Universe`
    (and shared with its reversed view), so sequence numbers persist
    across repeated data moves on the same topology — exactly what
    duplicate suppression across retransmissions requires.
    """

    def __init__(self):
        self._out: dict[tuple[int, int, int], _OutChannel] = {}
        self._in: dict[tuple[int, int, int], _InChannel] = {}

    def over(self, endpoint) -> "ReliableView":
        """``endpoint``'s traffic through this protocol instance, behind
        the endpoint's own ``send``/``recv``/``arrivals``."""
        return ReliableView(self, endpoint)

    # -- channel lookup ----------------------------------------------------

    def _out_channel(self, endpoint, peer: int, tag: int) -> _OutChannel:
        key = (endpoint._context, peer, tag)
        ch = self._out.get(key)
        if ch is None:
            ch = self._out[key] = _OutChannel(endpoint, peer, tag)
        return ch

    def _in_channel(self, endpoint, peer: int, tag: int) -> _InChannel:
        key = (endpoint._context, peer, tag)
        ch = self._in.get(key)
        if ch is None:
            ch = self._in[key] = _InChannel(endpoint, peer, tag)
        return ch

    # -- stats helpers -----------------------------------------------------

    @staticmethod
    def _bump(proc, key: str, amount: float = 1) -> None:
        proc.metrics.incr(key, amount)

    # -- sender side -------------------------------------------------------

    def _transmit(self, endpoint, peer: int, item: Any, wire_tag: int,
                  ch, what: str) -> None:
        """Send ``item`` until the virtual NIC stops reporting it lost.

        The sender's retransmission timer: each lost receipt charges the
        RTO as logical wait (exponential backoff), then the retransmit
        goes out as an ordinary (charged, traced) message.  Data
        envelopes and cumulative acks share this one discipline.
        """
        proc = endpoint.process
        receipt = endpoint.send(peer, item, wire_tag)
        attempt = 0
        while receipt.lost:
            if attempt >= MAX_RETRIES:
                raise RankLostError(
                    proc.rank,
                    endpoint.peer_global(peer),
                    f"{what} still lost after {MAX_RETRIES} "
                    "retransmissions",
                    pending=proc.mailbox.pending_summary(),
                    last_ack=ch.describe(),
                )
            rto = BASE_RTO_S * BACKOFF ** attempt
            proc.charge(rto, term="rto")
            self._bump(proc, "rel_rto_wait_s", rto)
            receipt = endpoint.send(peer, item, wire_tag)
            self._bump(proc, "rel_retransmits")
            attempt += 1

    def send(self, endpoint, peer: int, payload: Any, tag: int) -> None:
        """Reliably send ``payload`` to group rank ``peer`` on ``tag``.

        Never blocks on the ack (acks are collected opportunistically and
        at :meth:`fence`); blocks only for the logical RTO charges of
        retransmissions when the virtual NIC reports loss.
        """
        ch = self._out_channel(endpoint, peer, tag)
        seq = ch.next_seq
        ch.next_seq += 1
        self._transmit(endpoint, peer, (seq, payload), REL_DATA | tag, ch,
                       f"seq {seq}")
        # Acks are *not* harvested here: an opportunistic probe-based
        # drain would make the sender's logical clock depend on host
        # thread scheduling (whether an ack is physically present at send
        # time).  All acks are collected at the fence, whose blocking
        # receives match deterministically (pairwise FIFO) — this is what
        # keeps a seeded chaos run's trace byte-identical across replays.

    def _drain_acks(self, endpoint, peer: int, tag: int, ch: _OutChannel) -> None:
        """Scoop physically-pending ack copies (post-fence housekeeping).

        Only called once a channel is fully acked, when any matching
        envelope is necessarily a duplicated/late ack copy — consuming it
        keeps the machine's leak check clean.  With the default fault
        targeting (``classes=("data",)``) acks are never faulted and this
        probe deterministically finds nothing.
        """
        while endpoint.probe(peer, REL_ACK | tag):
            ack = endpoint.recv(peer, REL_ACK | tag)
            if ack > ch.acked:
                ch.acked = ack

    def _send_ack(self, endpoint, peer: int, tag: int, ch: _InChannel) -> None:
        """Cumulative ack: highest contiguous sequence delivered so far.

        Ack datagrams cross the same faulty network; a lost ack is
        retransmitted under the same RTO/backoff discipline (acks are
        class ``"control"`` to the fault plan, so they are only faulted
        when a rule targets that class).
        """
        ack = ch.expected - 1
        self._transmit(endpoint, peer, ack, REL_ACK | tag, ch,
                       f"cumulative ack {ack}")
        self._bump(endpoint.process, "rel_acks_sent")

    # -- receiver side -----------------------------------------------------

    def _ingest(self, ch: _InChannel, proc, envelope: tuple[int, Any]) -> None:
        seq, payload = envelope
        if seq < ch.expected or seq in ch.buffer:
            ch.dups += 1
            self._bump(proc, "rel_dups_discarded")
            return
        ch.buffer[seq] = payload

    def _drain_backlog(self, endpoint, peer: int, tag: int, ch: _InChannel) -> None:
        """Consume every already-delivered envelope on the channel.

        The fault layer appends duplicate copies atomically with their
        originals, so by the time the application has matched a given
        envelope, all its duplicates are physically pending — one probe
        loop deterministically scoops them (each is a charged receive)
        and duplicate suppression discards them.
        """
        while endpoint.probe(peer, REL_DATA | tag):
            envelope = endpoint.recv(peer, REL_DATA | tag)
            self._ingest(ch, endpoint.process, envelope)

    def recv(self, endpoint, peer: int, tag: int,
             timeout: float | None = None) -> Any:
        """Reliably receive the next in-order payload from ``peer``."""
        proc = endpoint.process
        ch = self._in_channel(endpoint, peer, tag)
        while ch.expected not in ch.buffer:
            envelope = endpoint.recv(peer, REL_DATA | tag, timeout=timeout)
            self._ingest(ch, proc, envelope)
            self._drain_backlog(endpoint, peer, tag, ch)
        payload = ch.buffer.pop(ch.expected)
        ch.expected += 1
        self._send_ack(endpoint, peer, tag, ch)
        return payload

    def recv_any(
        self,
        endpoint,
        peers: list[int],
        tag: int,
        timeout: float | None = None,
    ) -> tuple[int, Any]:
        """Reliable wait-any: next in-order payload from any of ``peers``.

        Buffered deliverable payloads win first (lowest group rank — a
        deterministic tie-break); otherwise the call waits on all listed
        channels and completes the logically earliest arrival, exactly
        like :func:`~repro.vmachine.comm.waitany`, ingesting whatever
        envelope (original, duplicate or out-of-order) that yields.
        Returns ``(peer, payload)``.
        """
        from repro.vmachine.comm import Request

        proc = endpoint.process
        channels = {p: self._in_channel(endpoint, p, tag) for p in peers}
        while True:
            deliverable = sorted(
                p for p, ch in channels.items() if ch.expected in ch.buffer
            )
            if deliverable:
                p = deliverable[0]
                ch = channels[p]
                payload = ch.buffer.pop(ch.expected)
                ch.expected += 1
                self._send_ack(endpoint, p, tag, ch)
                return p, payload
            requests = [
                endpoint.irecv(p, REL_DATA | tag) for p in sorted(channels)
            ]
            idx, envelope = Request.waitany(requests, timeout=timeout)
            p = sorted(channels)[idx]
            self._ingest(channels[p], proc, envelope)
            self._drain_backlog(endpoint, p, tag, channels[p])

    # -- fencing -----------------------------------------------------------

    def flush(self) -> int:
        """Release every fault-plan-held message on this side's channels.

        Non-blocking and free of logical charge — it models the network
        finally delivering in-flight datagrams at a phase boundary.  The
        single-program data move calls it between its send and receive
        halves: each (src, dst) pair carries one aggregated message per
        move, so a held *final* packet has no later same-channel traffic
        to overtake it, and without the boundary flush two ranks holding
        each other's packets would wait out the receive timeout.  Returns
        the number of messages released.
        """
        n = 0
        for ch in self._out.values():
            n += ch.endpoint._flush_held(ch.peer)
        return n

    def fence(self, timeout: float | None = None) -> None:
        """Block until every sent sequence number is cumulatively acked.

        Also releases any fault-plan-held (reordered) messages still in
        flight on this sender's channels — the network finally delivering
        them — before waiting, so a held final packet cannot wedge the
        receiver.  Raises :class:`~repro.vmachine.faults.RankLostError`
        with last-ack diagnostics when a peer stops acknowledging.
        ``timeout`` bounds each ack wait, like every other wait: ``None``
        is the process receive time-out.
        """
        # Every unacked channel is released before the first blocking
        # wait: a receiver completing in arrival order (``recv_any``)
        # needs all its senders' packets before it acks any, so two
        # senders each holding one back while awaiting the other
        # receiver's ack would wait for ever.
        for ch in self._out.values():
            if ch.acked < ch.next_seq - 1:
                ch.endpoint._flush_held(ch.peer)
        for ch in self._out.values():
            endpoint = ch.endpoint
            proc = endpoint.process
            if ch.acked >= ch.next_seq - 1:
                self._drain_acks(endpoint, ch.peer, ch.tag, ch)
                continue
            budget = timeout if timeout is not None else proc.recv_timeout_s
            while ch.acked < ch.next_seq - 1:
                try:
                    ack = endpoint.recv(ch.peer, REL_ACK | ch.tag,
                                        timeout=budget)
                except TimeoutError as exc:
                    raise RankLostError(
                        proc.rank,
                        endpoint.peer_global(ch.peer),
                        f"fence timed out after {budget}s awaiting acks",
                        pending=proc.mailbox.pending_summary(),
                        last_ack=ch.describe(),
                    ) from exc
                except RankLostError as exc:
                    exc.last_ack = ch.describe()
                    raise
                if ack > ch.acked:
                    ch.acked = ack
            # Scoop duplicated/late ack copies so they cannot trip the
            # machine's unconsumed-message leak check after the run.
            self._drain_acks(endpoint, ch.peer, ch.tag, ch)

    # -- diagnostics -------------------------------------------------------

    def describe(self) -> str:
        """Multi-line protocol state summary (used in failure reports)."""
        lines = [ch.describe() for ch in self._out.values()]
        lines += [ch.describe() for ch in self._in.values()]
        return "\n".join(lines) if lines else "no reliable channels"


class ReliableView:
    """One endpoint's traffic routed through a :class:`Reliability`
    instance (:meth:`Reliability.over`): the ``send``/``recv``/``arrivals``
    of the endpoint itself, so a caller holds one or the other and never
    asks which.  Channel state lives on the instance, not here — views
    are free to create and drop.
    """

    __slots__ = ("_rel", "_endpoint")

    def __init__(self, rel: Reliability, endpoint):
        self._rel = rel
        self._endpoint = endpoint

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """:meth:`Reliability.send` toward group rank ``dest``."""
        self._rel.send(self._endpoint, dest, payload, tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None) -> Any:
        """:meth:`Reliability.recv` from group rank ``source``."""
        return self._rel.recv(self._endpoint, source, tag, timeout)

    def arrivals(
        self,
        sources: Sequence[int],
        tag: int = 0,
        overlap: bool = False,
        timeout: float | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(source, payload)`` once per rank in ``sources``, each
        payload the channel's next in-order one: in the order given, or —
        ``overlap`` and more than one source — :meth:`Reliability.recv_any`
        over the sources still owed (buffered deliverable payloads first,
        else the logically earliest arrival)."""
        rel, endpoint = self._rel, self._endpoint
        if overlap and len(sources) > 1:
            owed = set(sources)
            while owed:
                s, payload = rel.recv_any(endpoint, sorted(owed), tag,
                                          timeout=timeout)
                owed.discard(s)
                yield s, payload
        else:
            for s in sources:
                yield s, rel.recv(endpoint, s, tag, timeout=timeout)
