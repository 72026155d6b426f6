"""Batched wire protocol of the coupling service.

Many concurrent *tenant sessions* are multiplexed by a gateway program:
instead of one request per control round trip, the gateway's rank 0 ships
one :class:`ServiceBatch` per dispatch round — the head operation of
every ready session — and the server answers with one
:class:`BatchReply`.  Heavy traffic thus pays the control-channel latency
alpha once per *round*, not once per request, and the moves inside a
round fuse into one :class:`~repro.core.plan.MovePlan` message per
processor pair.  A lone client (:mod:`repro.dobj`) is the one-tenant,
one-op-per-round case of the same protocol.

Binds carry the tenant array's canonical **signature** — the
``(distribution, region-set, dtype)`` content key — so both programs can
consult their shared cross-tenant caches; the :class:`BindAck` phase
negotiates, per bind, whether the collective schedule build can be
skipped (both sides hit) before either program commits to it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TAG_SERVICE",
    "ServiceConfig",
    "Reply",
    "CallOp",
    "BindOp",
    "UnbindOp",
    "MoveOp",
    "DisconnectOp",
    "ShutdownOp",
    "CreateOp",
    "GatherOp",
    "ServiceBatch",
    "BindGrant",
    "BindAck",
    "BatchReply",
    "server_ops",
    "PUSH",
    "PULL",
]

#: control tag of the gateway<->server batch channel (class "user" for the
#: fault model — chaos plans target the data plane by default, and the
#: batch channel stays on the reliable setup transport exactly like
#: schedule construction does)
TAG_SERVICE = (1 << 21) + 101

PUSH = "push"
PULL = "pull"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the coupling service, shared by gateway and server.

    The cache sizes must agree *within* each program (every rank of a
    program decides hits deterministically together); across programs the
    :class:`BindAck` negotiation keeps the two cache hierarchies coherent
    even when their sizes differ.
    """

    #: admission watermark: total queued ops across all sessions beyond
    #: which new submissions are shed with ``Reply(ok=False, error="busy")``
    max_queue_depth: int = 1024
    #: per-tenant cap on submitted-but-unresolved operations
    max_inflight_per_tenant: int = 8
    #: largest number of ops dispatched in one batch round
    max_batch_ops: int = 256
    #: entries in the shared schedule cache (None = unbounded)
    schedule_cache_size: int | None = None
    #: entries in the shared fused-plan cache (None = unbounded)
    plan_cache_size: int | None = None
    #: executor policy for schedule builds and data moves
    policy: str = "ordered"
    #: enable the reliable-delivery layer on the data plane
    reliability: bool = False
    #: wall-clock bound per collective phase before declaring the peer lost
    deadline_s: float | None = None
    #: cooperative-scheduling yields granted to runnable tenant tasks
    #: before a round is sealed (the batching window)
    batch_window: int = 2

    def fingerprint(self) -> tuple:
        """The cross-program compatibility core of the config."""
        return ("v1", self.policy, self.reliability)


def _pickled_nbytes(obj: Any) -> int:
    try:
        return len(pickle.dumps(obj, protocol=4))
    except Exception:  # noqa: BLE001 - cost model only, never fail a send
        return 64


@dataclass(frozen=True)
class Reply:
    """The outcome of one operation, as its tenant sees it."""

    ok: bool
    value: Any = None
    error: str = ""
    binding: int = -1

    @property
    def nbytes(self) -> int:
        return 64


# ---------------------------------------------------------------------------
# per-tenant operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallOp:
    """SPMD method invocation on a named server object."""

    tenant: int
    obj: str
    method: str
    args: tuple = ()
    oneway: bool = False

    @property
    def nbytes(self) -> int:
        return 48 + (_pickled_nbytes(self.args) if self.args else 0)


@dataclass(frozen=True)
class BindOp:
    """Establish a bulk-data path between a tenant array and an export.

    ``signature`` is the canonical content key of the tenant's side of
    the requested copy — ``(lib, distribution, region-set, dtype)`` — and
    ``client_hit`` whether the gateway's shared cache already holds the
    schedule for ``(obj, attr, signature)``.  ``client_hit`` is stamped
    when the round is sealed (:func:`~repro.service.dispatch.lead_round`
    — the cache may move between submission and dispatch); the server
    answers through the :class:`BindAck` phase before any collective work
    starts.
    ``array_name`` stays gateway-local in meaning but rides the op so
    every gateway rank can resolve the tenant's array from the round
    broadcast.
    """

    tenant: int
    obj: str
    attr: str
    array_name: str
    signature: tuple
    client_hit: bool = False

    @property
    def nbytes(self) -> int:
        return 48 + _pickled_nbytes(self.signature)


@dataclass(frozen=True)
class UnbindOp:
    """Release one binding slot (both programs reuse it)."""

    tenant: int
    slot: int

    nbytes = 48


@dataclass(frozen=True)
class MoveOp:
    """One tenant's bulk transfer over an established binding."""

    tenant: int
    slot: int
    direction: str  # PUSH (tenant -> object) or PULL (object -> tenant)

    nbytes = 48


@dataclass(frozen=True)
class DisconnectOp:
    """Session end: release every binding slot the tenant still holds."""

    tenant: int

    nbytes = 48


@dataclass(frozen=True)
class ShutdownOp:
    """Stop the service (gateway-initiated; final batch)."""

    reason: str = ""

    nbytes = 48


# ---------------------------------------------------------------------------
# gateway-local operations (never shipped to the server, but part of the
# round broadcast so every gateway rank executes them collectively)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CreateOp:
    """Materialize a tenant-owned distributed array on the gateway ranks."""

    tenant: int
    name: str
    spec: Any  # ArraySpec — deterministic per-rank factory input

    @property
    def nbytes(self) -> int:
        return 48 + _pickled_nbytes(self.spec)


@dataclass(frozen=True)
class GatherOp:
    """Gather a tenant array's global value to the gateway's rank 0."""

    tenant: int
    name: str

    nbytes = 48


#: op types the server must see (everything else is gateway-local)
_SERVER_OPS = (CallOp, BindOp, UnbindOp, MoveOp, DisconnectOp, ShutdownOp)


def server_ops(ops: tuple) -> tuple:
    """The sub-sequence of ``ops`` that rides the wire to the server."""
    return tuple(op for op in ops if isinstance(op, _SERVER_OPS))


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceBatch:
    """One dispatch round's server-visible operations, in batch order."""

    seq: int
    ops: tuple = ()

    @property
    def nbytes(self) -> int:
        return 32 + sum(op.nbytes for op in self.ops)

    @property
    def has_binds(self) -> bool:
        return any(isinstance(op, BindOp) for op in self.ops)

    @property
    def shutdown(self) -> bool:
        return any(isinstance(op, ShutdownOp) for op in self.ops)

    @property
    def expects_reply(self) -> bool:
        """Does the server answer this round with a :class:`BatchReply`?

        Oneway calls have no reply slot, so a round made only of them (or
        of nothing the server sees) has nothing to carry back: the server
        sends no reply and the gateway waits for none — both read the
        rule off the batch itself.
        """
        return any(
            not (isinstance(op, CallOp) and op.oneway) for op in self.ops
        )


@dataclass(frozen=True)
class BindGrant:
    """Server's per-bind verdict, delivered before collective work."""

    tenant: int
    ok: bool
    slot: int = -1
    #: must both programs run the collective schedule build?
    need_build: bool = True
    error: str = ""

    nbytes = 48


@dataclass(frozen=True)
class BindAck:
    """Bind-negotiation phase of a round (sent only when binds exist)."""

    seq: int
    grants: tuple = ()

    @property
    def nbytes(self) -> int:
        return 32 + sum(g.nbytes for g in self.grants)


@dataclass(frozen=True)
class BatchReply:
    """Per-op replies of one round, in server-op order (oneways skipped)."""

    seq: int
    replies: tuple = ()
    #: server-side counters piggybacked for gateway-side observability
    server_counters: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return 32 + sum(r.nbytes for r in self.replies) + 16 * len(
            self.server_counters
        )
