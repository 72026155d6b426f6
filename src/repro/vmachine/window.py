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

- **charged like a send** on the origin's logical clock (``alpha +
  beta * nbytes`` injection; the target stays passive during the epoch
  and pays only its receive drain at the fence),
- **fault-injectable** (window traffic rides a dedicated wire-tag block
  classified ``"rma"`` by :func:`repro.vmachine.faults.tag_class`),
- **retransmittable** (pass ``reliable=True`` and every envelope rides
  the :class:`~repro.vmachine.reliability.Reliability` ack protocol),
- **observable** (``rma:put``/``rma:get``/``rma:acc``/``rma:fetch``
  spans and kind-prefixed trace annotations, ``rma_*`` metrics), and
- **replayable** (every envelope is an ordinary recorded message, so
  record/replay works unchanged).

Synchronization model — *active target*, fence epochs (the BSP-style
subset of MPI RMA):

1. Every rank issues any number of one-sided operations; each sends one
   eager envelope to the target (self-targeted operations buffer
   locally and send nothing).
2. Every rank calls :meth:`Window.fence` (collective over the window's
   communicator).  The fence exchanges per-pair envelope counts
   (alltoall), drains exactly that many envelopes per peer (pairwise
   FIFO isolates epochs — no trailing barrier is needed), and applies
   every mutating operation in ``(origin rank, issue order)`` — a
   deterministic total order, so even floating-point ``accumulate`` is
   bitwise reproducible run to run.
3. ``get`` requests are served *after* all applies: a get observes the
   fully-updated post-epoch window.  ``fetch_add`` / ``compare_and_swap``
   are mutating and return the value seen at their position in the total
   order — which is what makes them usable as cross-epoch atomics for
   the distributed containers (:mod:`repro.containers`).
4. Handles returned by ``get``/``fetch_add``/``compare_and_swap``
   resolve at the fence; reading ``.value`` earlier raises.

Windows over the same communicator draw sequential ids (collective
construction order) and disjoint tag pairs inside the RMA block, so
multiple windows never cross-match each other's traffic.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability, ReliabilityConfig
from repro.vmachine.trace import TraceEvent

__all__ = ["Window", "RMAHandle", "TAG_RMA_BASE", "ACCUMULATE_OPS"]

#: base of the one-sided wire-tag block ``[TAG_RMA_BASE, 1 << 22)`` —
#: above the user/app tag space, below the reliability shadow bits, and
#: classified ``"rma"`` by :func:`repro.vmachine.faults.tag_class`
#: (mirrored there as ``_TAG_RMA_BASE``).
TAG_RMA_BASE = 3 << 20

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
        Route every envelope through a private
        :class:`~repro.vmachine.reliability.Reliability` instance, making
        window traffic correct under a fault plan that drops, duplicates
        or reorders ``"rma"``-class messages.
    reliability:
        Share an existing :class:`Reliability` instance instead (mutually
        exclusive with ``reliable=True`` / ``reliability_config`` creating
        one: passing both raises ``ValueError``).
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
        if 2 * wid + 1 >= (1 << 22) - TAG_RMA_BASE:
            raise ValueError("window id space exhausted on this communicator")
        self._wid = wid
        self._data_tag = TAG_RMA_BASE + 2 * wid
        self._resp_tag = TAG_RMA_BASE + 2 * wid + 1
        if reliable:
            reliability = Reliability(reliability_config)
        self._rel: Reliability | None = reliability
        #: where every envelope travels: the communicator, or its reliable
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
        # -- per-epoch origin-side state -----------------------------------
        self._op_seq = 0                       # issue order, monotone
        self._sent_counts = [0] * comm.size    # envelopes sent per target
        self._self_ops: list[tuple] = []       # ops targeting this rank
        # handles awaiting a response, per target, in issue order
        self._expect: dict[int, list[RMAHandle]] = {}
        self._self_expect: dict[int, RMAHandle] = {}  # seq -> handle

    # -- issue-side helpers ----------------------------------------------

    def _bounds(self, target: int, start: int, count: int) -> None:
        if not 0 <= target < self.comm.size:
            raise ValueError(f"target rank {target} out of range")
        if count < 0:
            raise ValueError(f"negative element count {count}")
        if start < 0 or start + count > self.sizes[target]:
            raise IndexError(
                f"window range [{start}, {start + count}) exceeds rank "
                f"{target}'s extent {self.sizes[target]}"
            )

    def _annotate(self, kind: str, target: int, nbytes: int) -> None:
        """Kind-prefixed trace annotation (never a message endpoint)."""
        proc = self.comm.process
        if proc.hooked and proc.trace is not None:
            proc.trace.append(
                TraceEvent(kind, proc.clock, proc.rank,
                           self.comm.peer_global(target), self._data_tag,
                           nbytes, phase=proc.phase_path)
            )

    def _issue(self, target: int, envelope: tuple, nbytes_hint: int,
               kind: str) -> None:
        """Ship one envelope toward ``target`` (self-targets buffer)."""
        self._annotate(kind, target, nbytes_hint)
        if target == self.comm.rank:
            # Self-targeted: no message; applied in the same deterministic
            # total order at the fence.
            self._self_ops.append(envelope)
            return
        self._chan.send(target, envelope, self._data_tag)
        self._sent_counts[target] += 1

    def _next_seq(self) -> int:
        seq = self._op_seq
        self._op_seq += 1
        return seq

    # -- one-sided operations ---------------------------------------------

    def put(self, target: int, data, start: int = 0) -> None:
        """Replace ``target``'s elements ``[start, start+len(data))``.

        Charged like a send at the origin (injection occupancy + wire
        time); the target applies it at the next fence.  Zero-copy
        transport rules apply: do not mutate ``data`` after issuing.
        """
        data = np.atleast_1d(np.asarray(data, dtype=self.dtype))
        self._bounds(target, start, data.size)
        proc = self.comm.process
        with proc.span("rma:put"):
            proc.metrics.incr("rma_puts")
            proc.metrics.incr("rma_bytes_put", data.nbytes)
            self._issue(target, ("put", self._next_seq(), start, data),
                        data.nbytes, "rma:put")

    def accumulate(self, target: int, data, start: int = 0,
                   op: str = "sum") -> None:
        """Combine ``data`` into ``target``'s elements with ``op``.

        ``op`` is one of :data:`ACCUMULATE_OPS`.  Applications from all
        origins apply in ``(origin, issue order)`` — a deterministic
        total order, so floating-point accumulation is reproducible.
        """
        if op not in ACCUMULATE_OPS:
            raise ValueError(f"unknown accumulate op {op!r}; "
                             f"expected one of {ACCUMULATE_OPS}")
        data = np.atleast_1d(np.asarray(data, dtype=self.dtype))
        self._bounds(target, start, data.size)
        proc = self.comm.process
        with proc.span("rma:acc"):
            proc.metrics.incr("rma_accs")
            proc.metrics.incr("rma_bytes_acc", data.nbytes)
            self._issue(target, ("acc", self._next_seq(), start, op, data),
                        data.nbytes, "rma:acc")

    def get(self, target: int, start: int = 0,
            count: int | None = None) -> RMAHandle:
        """One-sided read of ``target``'s ``[start, start+count)``.

        Returns an :class:`RMAHandle`; the value (a NumPy array) lands at
        the fence and reflects the *post-epoch* window state (every put/
        accumulate of the epoch applies first).
        """
        if count is None:
            count = self.sizes[target] - start
        self._bounds(target, start, count)
        proc = self.comm.process
        with proc.span("rma:get"):
            proc.metrics.incr("rma_gets")
            proc.metrics.incr("rma_bytes_got",
                              count * self.dtype.itemsize)
            handle = RMAHandle(self._next_seq())
            env = ("get", handle._seq, start, count)
            self._issue(target, env, 24, "rma:get")
            self._register_handle(target, handle)
        return handle

    def fetch_add(self, target: int, index: int, value) -> RMAHandle:
        """Atomically add ``value`` to one element; returns the old value.

        The returned handle resolves at the fence to the element's value
        immediately before this operation's position in the epoch's
        deterministic total order — the fetch-and-op primitive BCL-style
        containers build reservations on.
        """
        self._bounds(target, index, 1)
        proc = self.comm.process
        with proc.span("rma:fetch"):
            proc.metrics.incr("rma_fetch_ops")
            handle = RMAHandle(self._next_seq())
            env = ("fadd", handle._seq, index,
                   self.dtype.type(value))
            self._issue(target, env, 24, "rma:fetch")
            self._register_handle(target, handle)
        return handle

    def compare_and_swap(self, target: int, index: int, expected,
                         desired) -> RMAHandle:
        """Atomic CAS on one element; resolves to the *old* value.

        The swap happens iff the element equals ``expected`` at this
        operation's position in the total order; the caller learns the
        outcome by comparing the resolved old value against ``expected``.
        """
        self._bounds(target, index, 1)
        proc = self.comm.process
        with proc.span("rma:fetch"):
            proc.metrics.incr("rma_fetch_ops")
            handle = RMAHandle(self._next_seq())
            env = ("cas", handle._seq, index,
                   self.dtype.type(expected), self.dtype.type(desired))
            self._issue(target, env, 32, "rma:fetch")
            self._register_handle(target, handle)
        return handle

    def _register_handle(self, target: int, handle: RMAHandle) -> None:
        if target == self.comm.rank:
            self._self_expect[handle._seq] = handle
        else:
            self._expect.setdefault(target, []).append(handle)

    # -- epoch close -------------------------------------------------------

    def fence(self) -> None:
        """Close the epoch (collective): apply, serve, resolve, resync.

        Every rank must call ``fence`` the same number of times on every
        window (SPMD discipline).  On return: every put/accumulate of the
        epoch is applied at its target, every handle issued this epoch is
        resolved, and the local region reflects all peers' writes.
        """
        comm, chan = self.comm, self._chan
        proc = comm.process
        with proc.span("rma:fence"):
            proc.metrics.incr("rma_fences")
            # Release fault-plan-held (reordered) envelopes still sitting
            # on this origin's channels — the network delivering in-flight
            # datagrams at the phase boundary (same contract as the
            # reliability fence, which also does this for its own sends).
            for peer in range(comm.size):
                if peer != comm.rank and self._sent_counts[peer]:
                    comm._flush_held(peer)
            # How many envelopes is each pair owed?  The alltoall also
            # orders the epoch: by the time it completes here, every
            # peer's eager envelope sends have executed.
            incoming = comm.alltoall(list(self._sent_counts))
            ops: list[tuple[int, tuple]] = [
                (comm.rank, env) for env in self._self_ops
            ]
            for src in range(comm.size):
                if src == comm.rank:
                    continue
                for _ in range(incoming[src]):
                    ops.append((src, chan.recv(src, self._data_tag)))
            # Deterministic total order: origin rank, then issue order.
            ops.sort(key=lambda o: (o[0], o[1][1]))
            responses = self._apply(ops)
            # Serve responses in (origin, seq) order; per-origin FIFO then
            # delivers them in that origin's issue order.
            resp_targets = set()
            for origin, seq, value in responses:
                if origin == comm.rank:
                    self._self_expect.pop(seq)._resolve(value)
                else:
                    resp_targets.add(origin)
                    chan.send(origin, (seq, value), self._resp_tag)
            # Release fault-plan-held (delayed/reordered) response
            # envelopes before blocking on our own: two ranks whose held
            # responses to each other are never flushed would otherwise
            # deadlock — the reliability fence's flush runs only *after*
            # this collection loop.
            for origin in sorted(resp_targets):
                comm._flush_held(origin)
            # Collect my own responses: exact counts, issue order.
            for target in sorted(self._expect):
                for handle in self._expect[target]:
                    seq, value = chan.recv(target, self._resp_tag)
                    if seq != handle._seq:
                        raise RuntimeError(
                            f"rma response out of order: expected seq "
                            f"{handle._seq}, got {seq} (window {self._wid})"
                        )
                    handle._resolve(value)
            if self._rel is not None:
                # Block until every envelope/response is cumulatively
                # acked, so retransmit state cannot leak across epochs.
                self._rel.fence()
        assert not self._self_expect, "unresolved self-targeted handles"
        self._sent_counts = [0] * comm.size
        self._self_ops = []
        self._expect = {}
        self.epoch += 1

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

    # -- conveniences ------------------------------------------------------

    @property
    def size(self) -> int:
        """This rank's exposed extent, in elements."""
        return int(self.local.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Window(id={self._wid}, rank={self.comm.rank}/{self.comm.size}, "
            f"size={self.local.size}, dtype={self.dtype}, epoch={self.epoch}, "
            f"reliable={self._rel is not None})"
        )
