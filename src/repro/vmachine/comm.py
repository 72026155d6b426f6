"""Communicators: tagged point-to-point messaging plus collectives.

A :class:`Communicator` spans an ordered group of virtual processors and
gives each a local rank.  All collectives are implemented *on top of* the
point-to-point layer (binomial trees, dissemination barrier, pairwise
exchange), so their logical-clock cost emerges from the same cost model as
application messaging instead of being special-cased.

An :class:`InterComm` connects the processes of two different programs (the
MPI inter-communicator analogue) and is what Meta-Chaos uses for the
separate-program experiments (paper sections 5.2 and 5.4).  Both get
their point-to-point surface — ``send``, ``recv``, ``irecv``, ``probe``,
``recv_any``, ``arrivals``, addressed by group rank — from the one
endpoint class they derive from, so code that moves data holds "an
endpoint" and never asks which kind.

.. warning:: The transport is **zero-copy**: the receiver gets a reference
   to the very object that was sent.  As with any zero-copy messaging
   layer, a sender must not mutate a payload after sending it (send a
   ``.copy()`` when the buffer will be reused), and a receiver that plans
   to mutate a payload in place should copy it first.  The opt-in
   *copy-on-send* debug mode (``VirtualMachine(copy_on_send=True)`` or
   ``REPRO_COPY_ON_SEND=1``) deep-copies every payload at send time,
   which makes mutate-after-send bugs visible as behavioural differences
   between the two modes.

Fault injection: when a :class:`~repro.vmachine.faults.FaultPlan` is
installed on the process, every send is routed through it — messages may
be dropped, duplicated, held back (reordered), delayed or discarded as
corrupt, and the send returns a
:class:`~repro.vmachine.faults.DeliveryReceipt` describing what the
virtual NIC observed.  The receipt is what the opt-in reliable-delivery
layer (:mod:`repro.vmachine.reliability`) uses as its retransmission
oracle.
"""

from __future__ import annotations

import contextlib
import copy as _copy
from typing import Any, Callable, Iterator, Sequence

from repro.vmachine.faults import OK_RECEIPT, DeliveryReceipt
from repro.vmachine.message import ANY_SOURCE, ANY_TAG, Mailbox, Message
from repro.vmachine.payload import payload_nbytes
from repro.vmachine.process import Process
from repro.vmachine.trace import TraceEvent

__all__ = ["Communicator", "InterComm", "Request", "waitany", "waitall",
           "CONTEXT_STRIDE"]

# Tags >= _COLLECTIVE_TAG_BASE are reserved for internal collective traffic.
_COLLECTIVE_TAG_BASE = 1 << 24
# Context-id spacing between communicators: each communicator owns the
# wire-tag block [context, context + CONTEXT_STRIDE).  ANY_TAG wildcards
# (receives, probes, Request.test) are scoped to this block so they can
# never match another communicator's traffic.
CONTEXT_STRIDE = 1 << 32
# Split-derived communicators draw their context-block indices from above
# this floor so they can never collide with the small sequential indices
# handed to program/pair communicators by the program runner.
_SPLIT_BLOCK_BASE = 1 << 20

#: stands in for the leaf ``wire`` span when nothing reads span labels
_NO_SPAN = contextlib.nullcontext()


def _cantor_pair(a: int, b: int) -> int:
    """Cantor's pairing function: a deterministic injection N x N -> N."""
    s = a + b
    return s * (s + 1) // 2 + b


def _crash_check_recv(proc) -> None:
    """Receive seam, before the match (may raise SimulatedCrash)."""
    plan = proc.faults
    if plan is not None:
        plan.on_recv(proc)


def _account_recv(proc, msg: Message) -> None:
    """Receive seam, after the match: advance/charge → count → trace →
    record.  Hooked, the ``wire`` span attributes the blocked wait
    (``alpha``) and the drain overhead (``occupancy``) to the enclosing
    phase, and the ``recv`` trace event carries the span path."""
    nbytes = msg.nbytes
    counters = proc.metrics.counters
    if not proc.hooked:
        # == advance_to(arrival) + charge(recv_overhead), unattributed
        if msg.arrival > proc.clock:
            proc.clock = msg.arrival
        seconds = proc.cost.recv_overhead(nbytes)
        if seconds < 0:
            raise ValueError(f"negative charge {seconds}")
        proc.clock += seconds * proc.slowdown
        counters["messages_received"] += 1
        counters["bytes_received"] += nbytes
        return
    with proc.span("wire") if proc.labelled else _NO_SPAN:
        wait = max(0.0, msg.arrival - proc.clock)
        proc.advance_to(msg.arrival)
        proc.charge(proc.cost.recv_overhead(nbytes), term="occupancy")
        counters["messages_received"] += 1
        counters["bytes_received"] += nbytes
        if proc.trace is not None:
            proc.trace.append(
                TraceEvent("recv", proc.clock, proc.rank, msg.source,
                           msg.tag, nbytes, wait,
                           phase=proc.phase_path)
            )
        rec = proc.recorder
        if rec is not None:
            rec.on_recv(msg, wait, proc.clock)


class _Endpoint:
    """One channel: this process's point-to-point traffic with an ordered
    group of peers, addressed by group rank.

    ``peers[i]`` is the global rank addressed as rank ``i`` — a
    communicator's members, an inter-communicator's remote group.  The
    whole point-to-point surface is defined here, once, so a caller
    holding an endpoint never asks which kind it is.
    """

    def __init__(
        self,
        process: Process,
        peers: list[int],
        router: dict[int, Mailbox],
        context: int,
        contention: float,
    ):
        self.process = process
        self._peers = list(peers)
        self._npeers = len(self._peers)
        self._rank_of = {g: i for i, g in enumerate(self._peers)}
        self._router = router
        self._context = context
        self._contention = contention

    # -- wire-tag arithmetic ----------------------------------------------

    def _wire_tag(self, tag: int) -> int:
        """User tag -> wire tag (ANY_TAG stays wildcard; see _tag_range)."""
        return self._context + tag if tag != ANY_TAG else ANY_TAG

    def _tag_range(self, tag: int) -> tuple[int, int] | None:
        """Tag block scoping an ANY_TAG wildcard; None for exact tags.

        The wildcard covers this communicator's *user* tags only — wire
        tags ``[context, context + _COLLECTIVE_TAG_BASE)``.  Internal
        collective traffic lives above ``_COLLECTIVE_TAG_BASE`` within the
        same context block and must never satisfy an application wildcard
        (e.g. a neighbour already inside the next barrier).
        """
        if tag != ANY_TAG:
            return None
        return (self._context, self._context + _COLLECTIVE_TAG_BASE)

    def _context_label(self) -> str:
        """Human-readable communicator context for failure diagnostics."""
        return f"communicator context block {self._context // CONTEXT_STRIDE}"

    # -- raw point-to-point (global-rank addressed) ------------------------

    def _send_global(
        self, dest_global: int, payload: Any, tag: int
    ) -> DeliveryReceipt:
        """The send seam (docs/MODEL.md, *The transport seam*).  Hooked:
        crash check → copy → size → charge → count → trace → record →
        fault-apply/deliver; with nothing installed (``proc.hooked``
        false): size → charge → count → deliver, the same clock arithmetic
        spelled directly (``test_transport_identity`` holds them equal)."""
        proc = self.process
        mailbox = self._router.get(dest_global)
        if mailbox is None:
            raise ValueError(f"no such rank {dest_global} on this machine")
        wire_tag = self._context + tag if tag != ANY_TAG else tag
        counters = proc.metrics.counters
        if not proc.hooked:
            nbytes = payload_nbytes(payload)
            # == charge_send_injection, unattributed
            proc.clock += (proc.cost.send_occupancy(nbytes, self._contention)
                           * proc.slowdown)
            counters["messages_sent"] += 1
            counters["bytes_sent"] += nbytes
            mailbox.deliver(Message(
                proc.rank, dest_global, wire_tag, payload,
                proc.clock + proc.cost.post_injection_latency(), nbytes,
            ))
            return OK_RECEIPT
        plan = proc.faults
        if plan is not None:
            plan.on_send(proc)  # may raise SimulatedCrash
        if proc.copy_on_send:
            # Debug mode: snapshot the payload so later sender-side
            # mutation cannot reach the receiver (zero-copy hazard guard).
            payload = _copy.deepcopy(payload)
        with proc.span("wire") if proc.labelled else _NO_SPAN:
            nbytes = payload_nbytes(payload)
            # Sender pays injection (occupancy + wire serialization); the
            # payload becomes available one wire latency after injection
            # completes.
            proc.charge_send_injection(nbytes, self._contention)
            message = Message(
                proc.rank, dest_global, wire_tag, payload,
                proc.clock + proc.cost.post_injection_latency(), nbytes,
            )
            counters["messages_sent"] += 1
            counters["bytes_sent"] += nbytes
            if proc.trace is not None:
                proc.trace.append(
                    TraceEvent("send", proc.clock, proc.rank, dest_global,
                               wire_tag, nbytes, phase=proc.phase_path)
                )
            rec = proc.recorder
            if rec is not None:
                # Digest before delivery: the receiver may unpack a fused
                # buffer and recycle its staging arena the moment
                # ``deliver`` returns (zero-copy transport).
                rec.pre_send(message)
            if plan is not None:
                receipt = plan.apply(proc, mailbox, message)
            else:
                mailbox.deliver(message)
                receipt = OK_RECEIPT
            if rec is not None:
                rec.on_send(message, receipt, proc.clock)
            return receipt

    def _recv_global(
        self, source_global: int, tag: int, timeout: float | None = None
    ) -> Message:
        """The receive seam for one pattern (``source_global`` may be
        :data:`ANY_SOURCE`): crash check → match → account."""
        proc = self.process
        if proc.hooked:
            _crash_check_recv(proc)
        exact = tag != ANY_TAG
        msg = proc.mailbox.receive(
            source_global, self._context + tag if exact else ANY_TAG,
            timeout if timeout is not None else proc.recv_timeout_s,
            None if exact else self._tag_range(tag), self._context_label,
        )
        _account_recv(proc, msg)
        return msg

    def _probe_global(self, source_global: int, tag: int) -> bool:
        """Mailbox probe with its outcome recorded (when recording).

        Probe outcomes are part of a run's provenance: the reliability layer
        drains acks/backlog through ``while probe(...)`` loops, so a
        single-rank isolation replay must answer each probe exactly as the
        original run did — by consulting the recorded outcome stream, not
        the log's future contents.
        """
        proc = self.process
        hit = proc.mailbox.probe(
            source_global, self._wire_tag(tag), tag_range=self._tag_range(tag)
        )
        if proc.hooked:
            rec = proc.recorder
            if rec is not None:
                rec.on_probe(hit)
        return hit

    # -- point-to-point (group-rank addressed) -----------------------------

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self._npeers:
            raise ValueError(
                f"rank {r} out of range for a peer group of size {self._npeers}"
            )

    def peer_global(self, rank: int) -> int:
        """Global rank of group rank ``rank`` (diagnostics/fencing)."""
        self._check_rank(rank)
        return self._peers[rank]

    def send(self, dest: int, payload: Any, tag: int = 0) -> DeliveryReceipt:
        """Send ``payload`` to group rank ``dest``.

        Returns the :class:`~repro.vmachine.faults.DeliveryReceipt` from
        the (possibly fault-injected) transport; callers on a reliable
        machine can ignore it.
        """
        if not 0 <= dest < self._npeers:  # inline: the call is only to raise
            self._check_rank(dest)
        return self._send_global(self._peers[dest], payload, tag)

    def recv(
        self, source: int, tag: int = 0, timeout: float | None = None
    ) -> Any:
        """Receive a message from group rank ``source``.

        ``timeout`` (wall-clock seconds) overrides the per-process receive
        timeout for this one operation: one wait, which raises
        ``TimeoutError`` naming the budget it was given.
        """
        if not 0 <= source < self._npeers:
            self._check_rank(source)
        return self._recv_global(self._peers[source], tag, timeout).payload

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive: match and charge only at ``wait()``.

        Work performed between ``irecv`` and ``wait`` overlaps the message
        flight time — the classic latency-hiding pattern the inspector/
        executor libraries of the era used.  Requests of either endpoint
        kind compose with :func:`waitany`/:func:`waitall`.
        """
        self._check_rank(source)
        return Request(self, self._peers[source], tag)

    def probe(self, source: int, tag: int = 0) -> bool:
        """Non-blocking, zero-cost test for a pending matching message
        (ANY_TAG confined to this endpoint's context block)."""
        self._check_rank(source)
        return self._probe_global(self._peers[source], tag)

    def recv_any(self, tag: int = 0) -> tuple[int, Any]:
        """Receive from *any* peer (MPI_ANY_SOURCE).

        Returns ``(source_group_rank, payload)``.  Matching is confined to
        this endpoint's tag namespace — including for ANY_TAG, which is
        scoped to the context block — so a wildcard receive never steals
        another communicator's traffic (only this endpoint's peers send
        on its context toward this process).
        """
        msg = self._recv_global(ANY_SOURCE, tag)
        return self._rank_of[msg.source], msg.payload

    def arrivals(
        self,
        sources: Sequence[int],
        tag: int = 0,
        overlap: bool = False,
        timeout: float | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(source, payload)`` once per rank in ``sources``: one
        message from each of these peers.

        By default, blocking receives in the order given.  With
        ``overlap`` (and more than one source) every receive is posted up
        front and completed in *logical-arrival* order (:func:`waitany`),
        so the caller handles one message while later ones are still in
        flight.  ``timeout`` bounds each wait (wall-clock seconds).
        """
        if overlap and len(sources) > 1:
            requests = [self.irecv(s, tag) for s in sources]
            for _ in sources:
                idx, payload = Request.waitany(requests, timeout=timeout)
                yield sources[idx], payload
        else:
            for s in sources:
                yield s, self.recv(s, tag, timeout)

    def _flush_held(self, dest: int) -> int:
        """Deliver fault-plan-held (reordered) messages toward a peer."""
        plan = self.process.faults
        if plan is None:
            return 0
        return plan.flush_channel(self.process.rank, self.peer_global(dest))


class Request:
    """Handle for a nonblocking operation.

    Sends on this transport are buffered and eager, so a send request is
    complete at creation.  A receive request defers the matching: the
    payload only enters the program (and the clock only advances to the
    arrival time) at :meth:`wait` — which is exactly what makes
    computation/communication overlap visible in logical time.
    """

    __slots__ = ("_endpoint", "_source_global", "_tag", "_payload", "_done")

    def __init__(self, endpoint=None, source_global=None, tag=None, payload=None,
                 done=False):
        self._endpoint = endpoint
        self._source_global = source_global
        self._tag = tag
        self._payload = payload
        self._done = done

    def test(self) -> bool:
        """True when :meth:`wait` would not block (never charges time).

        ANY_TAG probes are scoped to the owning communicator's context
        block, so a wildcard request can never report readiness because of
        another communicator's pending traffic.
        """
        if self._done:
            return True
        return self._endpoint._probe_global(self._source_global, self._tag)

    def wait(self) -> Any:
        """Complete the operation; returns the payload for receives."""
        if self._done:
            return self._payload
        self._payload = self._endpoint._recv_global(
            self._source_global, self._tag).payload
        self._done = True
        return self._payload

    # -- multi-request completion (MPI_Waitany / MPI_Waitall analogue) -----

    @staticmethod
    def waitany(
        requests: list["Request"], timeout: float | None = None
    ) -> tuple[int, Any]:
        """Complete the *logically earliest* incomplete request.

        Returns ``(index, payload)`` of the completed request.  The choice
        is deterministic: among all incomplete requests' matching messages,
        the one with the smallest ``(arrival, source, tag)`` completes —
        the receiver's clock advances only to *that* message's arrival, so
        work done before the next ``waitany`` call overlaps the remaining
        messages' flight time (the latency-hiding pattern the OVERLAP
        executor policy is built on).

        Determinism is bought by physically waiting until every incomplete
        request has a matching message before choosing (wall-clock only;
        no logical charge) — callers must ensure all awaited messages are
        sent without depending on this rank's subsequent actions, which
        holds for every eager-send/receive-loop phase in this codebase.
        """
        pending = [(i, r) for i, r in enumerate(requests) if not r._done]
        if not pending:
            raise ValueError("waitany needs at least one incomplete request")
        proc = pending[0][1]._endpoint.process
        if any(r._endpoint.process is not proc for _, r in pending):
            raise ValueError("waitany requests must belong to one process")
        patterns = [
            (r._source_global, r._endpoint._wire_tag(r._tag),
             r._endpoint._tag_range(r._tag))
            for _, r in pending
        ]
        if proc.hooked:
            _crash_check_recv(proc)
        k, msg = proc.mailbox.receive_any_of(
            patterns,
            timeout=timeout if timeout is not None else proc.recv_timeout_s,
            context=pending[0][1]._endpoint._context_label,
        )
        idx, req = pending[k]
        _account_recv(proc, msg)
        req._payload = msg.payload
        req._done = True
        return idx, msg.payload

    @staticmethod
    def waitall(requests: list["Request"]) -> list[Any]:
        """Complete every request in arrival order; payloads in list order.

        Equivalent to looping :meth:`waitany` until done: each completion
        advances the clock only as far as its own message's arrival, so
        per-message processing interleaves with the later messages' flight
        time instead of serializing behind the slowest one.
        """
        while any(not r._done for r in requests):
            Request.waitany(requests)
        return [r._payload for r in requests]


#: module-level conveniences mirroring ``MPI_Waitany`` / ``MPI_Waitall``
waitany = Request.waitany
waitall = Request.waitall


class Communicator(_Endpoint):
    """Intra-program communicator over an ordered group of global ranks.

    ``members[i]`` is the global rank of local rank ``i``.  All ranks in the
    group must construct the communicator with the same ``members`` order
    and ``context`` id (the :class:`~repro.vmachine.machine.VirtualMachine`
    and :mod:`~repro.vmachine.program` helpers guarantee this).
    """

    def __init__(
        self,
        process: Process,
        members: list[int],
        router: dict[int, Mailbox],
        context: int = 0,
        contention: float = 1.0,
    ):
        super().__init__(process, members, router, context, contention)
        self.members = self._peers
        if process.rank not in self.members:
            raise ValueError(
                f"process rank {process.rank} is not in communicator group {members}"
            )
        self.rank = self._rank_of[process.rank]
        self.size = self._npeers
        self._collective_seq = 0

    # -- point-to-point beyond the endpoint's ------------------------------

    def sendrecv(
        self, dest: int, payload: Any, source: int, send_tag: int = 0, recv_tag: int = 0
    ) -> Any:
        """Combined send+receive (deadlock-free pairwise exchange)."""
        self.send(dest, payload, send_tag)
        return self.recv(source, recv_tag)

    def isend(self, dest: int, payload: Any, tag: int = 0) -> Request:
        """Nonblocking send.  Buffered-eager: complete immediately."""
        self.send(dest, payload, tag)
        return Request(done=True)

    # -- collectives -------------------------------------------------------

    def _next_tag(self) -> int:
        self._collective_seq += 1
        return _COLLECTIVE_TAG_BASE + self._collective_seq

    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 P) rounds of pairwise messages."""
        tag = self._next_tag()
        if self.size == 1:
            return
        distance = 1
        while distance < self.size:
            dest = (self.rank + distance) % self.size
            source = (self.rank - distance) % self.size
            self.send(dest, None, tag)
            self.recv(source, tag)
            distance *= 2

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the payload on every rank."""
        tag = self._next_tag()
        if self.size == 1:
            return payload
        vrank = (self.rank - root) % self.size
        # Phase 1: receive from parent (the rank that differs in my lowest
        # set bit).  The root (vrank 0) never receives and exits the loop
        # with mask = first power of two >= size.
        mask = 1
        while mask < self.size:
            if vrank & mask:
                parent = ((vrank - mask) + root) % self.size
                payload = self.recv(parent, tag)
                break
            mask <<= 1
        # Phase 2: forward to children vrank + m for each m below the bit at
        # which we received (below the tree top, for the root).
        mask >>= 1
        while mask >= 1:
            if vrank + mask < self.size:
                child = ((vrank + mask) + root) % self.size
                self.send(child, payload, tag)
            mask >>= 1
        return payload

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Gather one payload from every rank at ``root`` (rank order)."""
        tag = self._next_tag()
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, tag)
            return out
        self.send(root, payload, tag)
        return None

    def allgather(self, payload: Any) -> list[Any]:
        """Gather at rank 0, then broadcast the full list."""
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, payloads: list[Any] | None, root: int = 0) -> Any:
        """Scatter one element of ``payloads`` to each rank."""
        tag = self._next_tag()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("scatter root needs one payload per rank")
            for dest in range(self.size):
                if dest != root:
                    self.send(dest, payloads[dest], tag)
            return payloads[root]
        return self.recv(root, tag)

    def alltoall(self, payloads: list[Any]) -> list[Any]:
        """Pairwise-exchange all-to-all; ``payloads[i]`` goes to rank ``i``.

        ``None`` entries are still exchanged (they cost one small message);
        use :meth:`alltoall_sparse` to skip empty pairs — the distinction
        matters for the message-count accounting in the benchmarks.
        """
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per rank")
        tag = self._next_tag()
        result: list[Any] = [None] * self.size
        result[self.rank] = payloads[self.rank]
        for step in range(1, self.size):
            dest = (self.rank + step) % self.size
            source = (self.rank - step) % self.size
            result[source] = self.sendrecv(dest, payloads[dest], source, tag, tag)
        return result

    def alltoall_sparse(self, payloads: dict[int, Any]) -> dict[int, Any]:
        """All-to-all that only sends to ranks present in ``payloads``.

        Every rank must call it.  A preliminary allgather of destination
        sets tells each rank how many messages to expect; then only the
        non-empty pairs exchange data.  This is how Meta-Chaos data moves
        send at most one message per communicating processor pair.
        """
        dests = sorted(payloads.keys())
        for d in dests:
            self._check_rank(d)
        all_dests = self.allgather(dests)
        tag = self._next_tag()
        incoming = sorted(
            src for src, their in enumerate(all_dests) if self.rank in their
        )
        result: dict[int, Any] = {}
        # Self-delivery is free of messaging.
        if self.rank in payloads:
            result[self.rank] = payloads[self.rank]
        for d in dests:
            if d != self.rank:
                self.send(d, payloads[d], tag)
        for src in incoming:
            if src != self.rank:
                result[src] = self.recv(src, tag)
        return result

    def scan(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Inclusive prefix reduction: rank r gets op-fold of ranks 0..r.

        Linear pipeline (rank r receives the prefix from r-1, folds, and
        forwards) — the latency chain is the realistic cost of a scan on
        a message-passing machine without special hardware.
        """
        tag = self._next_tag()
        acc = value
        if self.rank > 0:
            prefix = self.recv(self.rank - 1, tag)
            acc = op(prefix, value)
        if self.rank < self.size - 1:
            self.send(self.rank + 1, acc, tag)
        return acc

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the communicator by ``color`` (collective).

        Ranks passing the same color form a new communicator, ordered by
        ``key`` (default: current rank).  Mirrors ``MPI_Comm_split``; used
        by applications that carve worker subsets out of a program.
        """
        if key is None:
            key = self.rank
        triples = self.allgather((color, key, self.members[self.rank]))
        mine = sorted(
            (k, g) for c, k, g in triples if c == color
        )
        members = [g for _, g in mine]
        # Deterministic, stride-aligned context block shared by the group:
        # the block *index* is a Cantor pairing of the parent's block index
        # with (color, collective epoch), offset above the small sequential
        # indices used for program/pair communicators.  Injective, so no
        # two distinct splits (or nested splits) ever share a wire-tag
        # block — which is what keeps ANY_TAG wildcards from matching
        # another communicator's traffic.  Purely arithmetic: every member
        # computes the same block with no coordination, keeping traces
        # reproducible run to run.
        parent_block = self._context // CONTEXT_STRIDE
        new_block = _SPLIT_BLOCK_BASE + _cantor_pair(
            parent_block, _cantor_pair(color + 1, self._collective_seq)
        )
        new_context = new_block * CONTEXT_STRIDE
        return Communicator(
            self.process, members, self._router,
            context=new_context, contention=self._contention,
        )

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        """Binomial-tree reduction with a user-supplied associative ``op``.

        O(ceil(log2 P)) logical depth — the root receives ~log2(P)
        messages instead of the P-1 serialized receives of a gather-based
        reduction, so the critical path shrinks from O(P) to O(log P)
        while the total message count stays P-1 (each non-root sends
        exactly one partial).

        ``op`` must be associative (the MPI contract).  Values combine in
        virtual-rank order — ``root, root+1, ..., P-1, 0, ..., root-1`` —
        as a balanced tree over contiguous rank ranges, so the *order* of
        operands is deterministic and commutativity is not required; the
        tree *grouping* does mean non-associative floating-point effects
        can differ from a linear fold in the last bits.
        """
        tag = self._next_tag()
        if self.size == 1:
            return value
        vrank = (self.rank - root) % self.size
        acc = value
        mask = 1
        while mask < self.size:
            if vrank & mask:
                # My subtree is folded; ship it to the parent and leave.
                parent = ((vrank & ~mask) + root) % self.size
                self.send(parent, acc, tag)
                return None
            child = vrank | mask
            if child < self.size:
                # acc spans vranks [vrank, vrank+mask); the child's partial
                # spans [child, child+mask) — op order stays contiguous.
                acc = op(acc, self.recv((child + root) % self.size, tag))
            mask <<= 1
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Tree reduce at rank 0, then binomial broadcast: O(log P) depth."""
        reduced = self.reduce(value, op, root=0)
        return self.bcast(reduced, root=0)


class InterComm(_Endpoint):
    """Connects the processes of two programs (local group vs remote group).

    Every rank passed to or returned by the point-to-point surface
    (:meth:`send`, :meth:`recv`, :meth:`irecv`, :meth:`probe`,
    :meth:`recv_any`, :meth:`arrivals`) is a *remote-group* local rank,
    mirroring MPI inter-communicator semantics.
    """

    def __init__(
        self,
        process: Process,
        local_members: list[int],
        remote_members: list[int],
        router: dict[int, Mailbox],
        context: int,
        contention: float = 1.0,
    ):
        super().__init__(process, remote_members, router, context, contention)
        self.local_members = list(local_members)
        self.remote_members = self._peers
        if process.rank not in self.local_members:
            raise ValueError(
                f"process rank {process.rank} is not in local group {local_members}"
            )
        self.rank = self.local_members.index(process.rank)
        self.local_size = len(self.local_members)
        self.remote_size = self._npeers
