"""One-sided memory windows with active-target epochs (MPI-2 RMA analogue).

The paper's libraries couple through *two-sided* schedules: every element
moved needs a matching send and receive, which is exactly what makes
irregular, data-dependent access patterns (hash tables, work queues,
sparse tensor assembly) painful — the owner of the data must know, ahead
of time, who will touch it.  The one-sided model inverts that: a rank
*registers* a region of memory as a :class:`Window`, and any peer may
``put``/``get``/``accumulate`` into it without the owner posting a
matching receive.  This module reproduces that model **on top of** the
existing two-sided transport, the same way the collectives and the
reliability protocol are layered, so every one-sided operation is

- **charged like a send, once per pair per epoch**: issuing is free on
  the origin's logical clock; the fence pays one ``alpha + beta *
  sum(nbytes)`` injection per peer for the whole batch (the target stays
  passive during the epoch and pays one receive per peer at the fence),
- **fault-injectable** (window traffic rides a dedicated wire-tag block
  classified ``"rma"`` by :func:`repro.vmachine.faults.tag_class`),
- **retransmittable** (pass ``reliable=True`` and every batch rides
  the :class:`~repro.vmachine.reliability.Reliability` ack protocol),
- **observable** (``rma:put``/``rma:get``/``rma:acc``/``rma:fetch``
  spans and kind-prefixed trace annotations, ``rma_*`` metrics), and
- **replayable** (every batch is an ordinary recorded message — a plain
  ``list`` of envelope tuples — so record/replay works unchanged).

Synchronization model — *active target*, fence epochs (the BSP-style
subset of MPI RMA):

1. Every rank issues any number of one-sided operations; each appends
   one envelope to the epoch's per-target buffer and sends nothing
   (the paper's data move likewise aggregates to one message per
   processor pair).
2. Every rank calls :func:`fence` over one window or a *group* of
   windows sharing a communicator and a channel (collective;
   ``win.fence()`` is the one-member group).  It is one pairwise
   exchange — exactly one message per ordered pair, carrying every
   member's envelopes behind the members' ids, even where nothing was
   issued, so both sides know what to receive and pairwise FIFO
   isolates epochs — and applies every mutating operation in
   ``(window, origin rank, issue order)``: a deterministic total order,
   so even floating-point ``accumulate`` is bitwise reproducible.
3. ``get`` requests are served *after* all applies: a get observes the
   post-epoch window, including every local store its target made
   before fencing.  ``fetch_add`` / ``compare_and_swap`` return the
   value seen at their position in the total order — cross-epoch
   atomics for the distributed containers (:mod:`repro.containers`).
4. Handles resolve at the fence, from at most one response message per
   pair for the whole group (sent only where a batch asked for one);
   reading ``.value`` earlier raises.

Windows over the same communicator draw sequential ids (collective
construction order) and disjoint tag pairs inside the RMA block, so
multiple windows never cross-match each other's traffic; a group
travels on its first member's pair.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability, ReliabilityConfig
from repro.vmachine.tags import REL_DATA, TAG_RMA_BASE
from repro.vmachine.trace import TraceEvent

__all__ = ["Window", "RMAHandle", "fence", "TAG_RMA_BASE", "ACCUMULATE_OPS"]

# The one-sided wire-tag block is [TAG_RMA_BASE, REL_DATA) — above the
# user/app tag space, below the reliability shadow bits, and classified
# "rma" by repro.vmachine.faults.tag_class (repro.vmachine.tags).

#: supported elementwise ``accumulate`` combiners
ACCUMULATE_OPS = ("sum", "min", "max", "replace")


class RMAHandle:
    """Deferred result of a ``get``/``fetch_add``/``compare_and_swap``.

    The value materializes at the issuing epoch's :meth:`Window.fence`;
    touching :attr:`value` before that raises ``RuntimeError`` — a
    one-sided read has no defined value until the epoch closes.
    """

    __slots__ = ("_value", "_ready", "_seq")

    def __init__(self, seq: int):
        self._value = None
        self._ready = False
        self._seq = seq

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def value(self) -> Any:
        if not self._ready:
            raise RuntimeError(
                "RMA handle read before the epoch's fence(); one-sided "
                "results only materialize when the epoch closes"
            )
        return self._value

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._ready = True


class Window:
    """A registered memory region exposed for one-sided access.

    Parameters
    ----------
    comm:
        The communicator spanning the window group.  Construction is
        collective: every rank contributes its local region and learns
        every peer's extent.
    local:
        This rank's exposed storage — a 1-D contiguous NumPy array.  The
        window addresses it by element offset; the caller keeps the
        reference and may read it freely between fences (local reads of
        the post-fence state are the point of the model).
    reliable:
        Route every batch through a private
        :class:`~repro.vmachine.reliability.Reliability` instance, making
        window traffic correct under a fault plan that drops, duplicates
        or reorders ``"rma"``-class messages.
    reliability:
        Share an existing :class:`Reliability` instance instead, as
        windows fenced as one group must (passing it with ``reliable=True``
        or ``reliability_config`` raises ``ValueError``).
    """

    def __init__(
        self,
        comm: Communicator,
        local: np.ndarray,
        reliable: bool = False,
        reliability: Reliability | None = None,
        reliability_config: ReliabilityConfig | None = None,
    ):
        if reliability is not None and (reliable or reliability_config is not None):
            raise ValueError(
                "pass either an existing reliability= instance or "
                "reliable=True (with an optional reliability_config=), "
                "not both: the shared instance keeps its own config"
            )
        local = np.asarray(local)
        if local.ndim != 1:
            raise ValueError(
                f"window storage must be 1-D (got shape {local.shape}); "
                "ravel or reshape a view before registering"
            )
        if not local.flags["C_CONTIGUOUS"]:
            raise ValueError("window storage must be C-contiguous")
        self.comm = comm
        self.local = local
        self.dtype = local.dtype
        # Sequential per-communicator window id: every rank constructs
        # windows in the same collective order, so the counter agrees
        # without coordination — and each window owns a disjoint tag pair.
        wid = getattr(comm, "_rma_window_seq", 0)
        comm._rma_window_seq = wid + 1
        if 2 * wid + 1 >= REL_DATA - TAG_RMA_BASE:
            raise ValueError("window id space exhausted on this communicator")
        self._wid = wid
        self._data_tag = TAG_RMA_BASE + 2 * wid
        self._resp_tag = TAG_RMA_BASE + 2 * wid + 1
        if reliable:
            reliability = Reliability(reliability_config)
        self._rel: Reliability | None = reliability
        #: where every batch travels: the communicator, or its reliable
        #: view — same ``send``/``recv``, chosen once
        self._chan = comm if reliability is None else reliability.over(comm)
        # Collective: learn every peer's extent (and check dtype accord)
        # so origins can bounds-check without touching the target.
        meta = comm.allgather((int(local.size), local.dtype.str))
        self.sizes = [m[0] for m in meta]
        dtypes = {m[1] for m in meta}
        if len(dtypes) != 1:
            raise ValueError(
                f"window dtype mismatch across ranks: {sorted(dtypes)}"
            )
        self.epoch = 0
        # Pairwise-staggered fence order: step s sends to rank+s and
        # hears from rank-s.
        rank, size = comm.rank, comm.size
        self._dests = [(rank + step) % size for step in range(1, size)]
        self._sources = [(rank - step) % size for step in range(1, size)]
        # -- per-epoch origin-side state -----------------------------------
        self._op_seq = 0                       # issue order, monotone
        # this epoch's envelopes, per target (own rank included), in
        # issue order: what the fence exchanges, one list per pair
        self._outgoing: list[list[tuple]] = [[] for _ in range(comm.size)]
        # handles awaiting a response, per target, in issue order
        self._expect: dict[int, list[RMAHandle]] = {}

    # -- issue-side helpers ----------------------------------------------

    def _bounds(self, target: int, start: int, count: int | None) -> int:
        """Check ``[start, start+count)`` on ``target`` (``count=None``:
        to the end of its extent); returns the count."""
        if not 0 <= target < self.comm.size:
            raise ValueError(f"target rank {target} out of range")
        if count is None:  # a start past the end is the range error below
            count = max(self.sizes[target] - start, 0)
        if count < 0:
            raise ValueError(f"negative element count {count}")
        if start < 0 or start + count > self.sizes[target]:
            raise IndexError(
                f"window range [{start}, {start + count}) exceeds rank "
                f"{target}'s extent {self.sizes[target]}"
            )
        return count

    def _issue(self, target: int, kind: str, nbytes_hint: int, op: str,
               *fields, reply: bool = False) -> RMAHandle | None:
        """Buffer the envelope ``(op, seq, *fields)`` for ``target`` — it
        travels at the fence — under a ``kind`` span and trace annotation
        (never a message endpoint); ``reply`` returns the handle the
        fence will resolve."""
        proc = self.comm.process
        seq = self._op_seq
        self._op_seq = seq + 1
        self._outgoing[target].append((op, seq, *fields))
        if proc.labelled:  # something reads span labels
            with proc.span(kind):
                if proc.trace is not None:
                    proc.trace.append(
                        TraceEvent(kind, proc.clock, proc.rank,
                                   self.comm.peer_global(target),
                                   self._data_tag, nbytes_hint,
                                   phase=proc.phase_path)
                    )
        if not reply:
            return None
        handle = RMAHandle(seq)
        self._expect.setdefault(target, []).append(handle)
        return handle

    def _release_held(self, peers) -> None:
        """Deliver fault-plan-held messages toward ``peers`` at the phase
        boundary: a pair carries one message per phase, so a held one has
        nothing behind it to overtake it, and two ranks holding each
        other's would deadlock."""
        if self.comm.process.faults is not None:
            for peer in peers:
                self.comm._flush_held(peer)

    # -- one-sided operations ---------------------------------------------

    def put(self, target: int, data, start: int = 0) -> None:
        """Replace ``target``'s elements ``[start, start+len(data))``.

        Free at issue; the epoch's fence sends it (the origin pays one
        injection per peer for the whole batch) and the target applies
        it.  ``data`` belongs to the window until that fence: it is read
        — and, under ``copy_on_send``, snapshotted — there, not here, so
        do not mutate it in between.
        """
        data = np.atleast_1d(np.asarray(data, dtype=self.dtype))
        self._bounds(target, start, data.size)
        metrics = self.comm.process.metrics
        metrics.incr("rma_puts")
        metrics.incr("rma_bytes_put", data.nbytes)
        self._issue(target, "rma:put", data.nbytes, "put", start, data)

    def accumulate(self, target: int, data, start: int = 0,
                   op: str = "sum") -> None:
        """Combine ``data`` into ``target``'s elements with ``op``.

        ``op`` is one of :data:`ACCUMULATE_OPS`.  Applications from all
        origins apply in ``(origin, issue order)`` — a deterministic
        total order, so floating-point accumulation is reproducible.
        As for :meth:`put`, ``data`` belongs to the window until the
        epoch's fence.
        """
        if op not in ACCUMULATE_OPS:
            raise ValueError(f"unknown accumulate op {op!r}; "
                             f"expected one of {ACCUMULATE_OPS}")
        data = np.atleast_1d(np.asarray(data, dtype=self.dtype))
        self._bounds(target, start, data.size)
        metrics = self.comm.process.metrics
        metrics.incr("rma_accs")
        metrics.incr("rma_bytes_acc", data.nbytes)
        self._issue(target, "rma:acc", data.nbytes, "acc", start, op, data)

    def get(self, target: int, start: int = 0,
            count: int | None = None) -> RMAHandle:
        """One-sided read of ``target``'s ``[start, start+count)``.

        Returns an :class:`RMAHandle`; the value (a NumPy array) lands at
        the fence and reflects the *post-epoch* window state (every put/
        accumulate of the epoch applies first).
        """
        count = self._bounds(target, start, count)
        metrics = self.comm.process.metrics
        metrics.incr("rma_gets")
        metrics.incr("rma_bytes_got", count * self.dtype.itemsize)
        return self._issue(target, "rma:get", 24, "get", start, count,
                           reply=True)

    def fetch_add(self, target: int, index: int, value) -> RMAHandle:
        """Atomically add ``value`` to one element; returns the old value.

        The returned handle resolves at the fence to the element's value
        immediately before this operation's position in the epoch's
        deterministic total order — the fetch-and-op primitive BCL-style
        containers build reservations on.
        """
        self._bounds(target, index, 1)
        self.comm.process.metrics.incr("rma_fetch_ops")
        return self._issue(target, "rma:fetch", 24, "fadd", index,
                           self.dtype.type(value), reply=True)

    def compare_and_swap(self, target: int, index: int, expected,
                         desired) -> RMAHandle:
        """Atomic CAS on one element; resolves to the *old* value.

        The swap happens iff the element equals ``expected`` at this
        operation's position in the total order; the caller learns the
        outcome by comparing the resolved old value against ``expected``.
        """
        self._bounds(target, index, 1)
        self.comm.process.metrics.incr("rma_fetch_ops")
        return self._issue(target, "rma:fetch", 32, "cas", index,
                           self.dtype.type(expected),
                           self.dtype.type(desired), reply=True)

    # -- epoch close -------------------------------------------------------

    def fence(self, *others: Window) -> None:
        """Close the epoch (collective): exchange, apply, serve, resolve.

        ``fence(a, b, ...)`` — the module-level name of this function —
        closes a *group* of distinct windows sharing a communicator and a
        channel (one ``reliability=`` instance, or none) in one exchange;
        anything else raises ``ValueError`` before a message is sent.
        Every rank must fence the same groups, in the same member order
        (SPMD discipline): a batch naming other members raises
        ``RuntimeError`` before anything is applied.

        Sends each peer one message carrying every member's envelopes,
        receives one from each, applies in ``(window, origin, issue
        order)`` and answers each asking origin with one message for the
        whole group.  On return every put/accumulate of the epoch is
        applied, every handle issued in it resolved.
        """
        windows = (self, *others)
        comm, chan = self.comm, self._chan
        wids = tuple(w._wid for w in windows)
        if len(set(map(id, windows))) < len(windows) or any(
                w.comm is not comm or w._rel is not self._rel for w in others):
            raise ValueError(
                f"fence group {wids} must list distinct windows on one "
                f"communicator and one channel (the same reliability= "
                f"instance, or none)")
        proc = comm.process
        rank, size = comm.rank, comm.size
        with proc.span("rma:fence"):
            proc.metrics.incr("rma_fences")
            # One message per pair, empty or not: the batch is its own
            # count, and by the time a peer's arrives every envelope that
            # peer issued this epoch is in it.
            for dest in self._dests:
                chan.send(dest, [wids, *(w._outgoing[dest] for w in windows)],
                          self._data_tag)
            self._release_held(self._dests)
            batches = {rank: [w._outgoing[rank] for w in windows]}
            for src in self._sources:
                ids, *batch = chan.recv(src, self._data_tag)
                if ids != wids:
                    raise RuntimeError(
                        f"rank {rank} fenced windows {wids} but rank {src}'s "
                        f"batch carries windows {ids}: every rank must fence "
                        f"the same group")
                batches[src] = batch
            # Total order: window, origin rank, issue order (a batch is in
            # its origin's issue order).  One response per asking origin:
            # an answer list per member, sorted by seq (``_apply`` sorts).
            owed: dict[int, list[list[tuple]]] = {}
            for m, win in enumerate(windows):
                for origin, seq, value in win._apply(
                        [(src, env) for src in range(size)
                         for env in batches[src][m]]):
                    owed.setdefault(origin, [[] for _ in windows])[m].append(
                        (seq, value))
            mine = owed.pop(rank, None)
            for origin in sorted(owed):
                chan.send(origin, owed[origin], self._resp_tag)
            self._release_held(owed)
            # Collect my own: the origin knows from ``_expect`` which
            # targets owe it one, and the handles' issue order.
            for target in sorted({t for w in windows for t in w._expect}):
                answers = (mine if target == rank
                           else chan.recv(target, self._resp_tag))
                for win, got in zip(windows, answers):
                    handles = win._expect.get(target, [])
                    if [a[0] for a in got] != [h._seq for h in handles]:
                        raise RuntimeError(
                            f"rma responses from rank {target} do not match "
                            f"the handles issued to it (window {win._wid})"
                        )
                    for handle, (_, value) in zip(handles, got):
                        handle._resolve(value)
            if self._rel is not None:
                # Block until every batch/response is cumulatively
                # acked, so retransmit state cannot leak across epochs.
                self._rel.fence()
        for win in windows:
            win._outgoing = [[] for _ in range(size)]
            win._expect = {}
            win.epoch += 1

    def _apply(self, ops: list[tuple[int, tuple]]) -> list[tuple]:
        """Apply mutating ops in total order; gets observe the final state.

        Returns ``(origin, seq, value)`` response triples sorted by
        ``(origin, seq)``.
        """
        proc = self.comm.process
        local = self.local
        responses: list[tuple] = []
        gets: list[tuple[int, tuple]] = []
        napplied = 0
        for origin, env in ops:
            kind = env[0]
            if kind == "put":
                _, seq, start, data = env
                local[start:start + data.size] = data
                proc.charge_mem(data.nbytes)
                napplied += 1
            elif kind == "acc":
                _, seq, start, op, data = env
                sl = local[start:start + data.size]
                if op == "sum":
                    np.add(sl, data, out=sl)
                elif op == "min":
                    np.minimum(sl, data, out=sl)
                elif op == "max":
                    np.maximum(sl, data, out=sl)
                else:  # replace
                    sl[...] = data
                proc.charge_flops(data.size)
                proc.charge_mem(data.nbytes)
                napplied += 1
            elif kind == "fadd":
                _, seq, index, value = env
                old = local[index]
                local[index] += value
                proc.charge_flops(1)
                responses.append((origin, seq, self.dtype.type(old)))
                napplied += 1
            elif kind == "cas":
                _, seq, index, expected, desired = env
                old = local[index]
                if old == expected:
                    local[index] = desired
                proc.charge_flops(1)
                responses.append((origin, seq, self.dtype.type(old)))
                napplied += 1
            elif kind == "get":
                gets.append((origin, env))
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown rma envelope kind {kind!r}")
        proc.metrics.incr("rma_ops_applied", napplied)
        # Gets read the post-epoch state (every mutation above is in).
        for origin, env in gets:
            _, seq, start, count = env
            value = local[start:start + count].copy()
            proc.charge_mem(value.nbytes)
            responses.append((origin, seq, value))
        responses.sort(key=lambda r: (r[0], r[1]))
        return responses


#: ``fence(*windows)``: one epoch close over a group — :meth:`Window.fence`
fence = Window.fence
