"""One dispatch round on the gateway program's ranks.

One dispatch *round* is the unit of collective work: the gateway's rank 0
seals a batch (at most one operation per tenant session), negotiates the
bind phase with the server, and broadcasts a :class:`Round` to the other
gateway ranks (:func:`lead_round`); every gateway rank then executes the
identical round through :func:`execute_round` (ranks >= 1 from
:func:`follow_round`) while the server program executes its mirror image
— so the collective calls (schedule builds, fused moves, gathers) line up
pairwise without any per-rank coordination beyond the one broadcast.

The round's order and bookkeeping are :func:`repro.service.rounds.
apply_round`, shared with the server.  Who seals the rounds is the
caller's business: the asyncio dispatcher of :mod:`repro.service.
frontend` batches many tenants; a synchronous SPMD client
(:mod:`repro.dobj`) leads one op at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.coupling import guard_peer
from repro.service.cache import array_signature, bind_key
from repro.service.protocol import (
    TAG_SERVICE,
    BatchReply,
    BindOp,
    CreateOp,
    DisconnectOp,
    GatherOp,
    Reply,
    ServiceBatch,
    server_ops,
)
from repro.service.rounds import ServiceState, apply_round
from repro.service.session import make_sor, materialize_array
from repro.vmachine.faults import PeerLostError

__all__ = [
    "Round",
    "Shutdown",
    "GatewayState",
    "execute_round",
    "lead_round",
    "follow_round",
    "gateway_follower_loop",
]


@dataclass(frozen=True)
class Round:
    """One dispatch round, broadcast from the gateway's rank 0.

    ``ops`` is the full sealed batch **including** gateway-local
    operations (creates, gathers); ``grants`` are the server's bind
    verdicts, aligned with the round's :class:`BindOp` entries in batch
    order (empty when the round carries no binds).
    """

    seq: int
    ops: tuple = ()
    grants: tuple = ()


@dataclass(frozen=True)
class Shutdown:
    """Terminal broadcast: the follower loops return."""

    reason: str = ""


@dataclass
class GatewayState(ServiceState):
    """The gateway's tables: the shared ones plus the tenants' arrays."""

    #: (tenant, name) -> (library, array, set-of-regions)
    arrays: dict[tuple, tuple] = field(default_factory=dict)

    def signature_of(self, tenant: int, name: str) -> tuple:
        """Canonical content key of one tenant array (rank-local)."""
        return array_signature(*self._array(tenant, name))

    def _array(self, tenant: int, name: str) -> tuple:
        try:
            return self.arrays[(tenant, name)]
        except KeyError:
            raise KeyError(
                f"tenant {tenant} has no materialized array {name!r}"
            ) from None


def execute_round(state: GatewayState, rnd: Round) -> list:
    """Execute one round on this gateway rank (collective).

    Returns the gateway's view of the round's replies, in op order:
    meaningful on rank 0 for the *gateway-local* operations (creates and
    gathers), which the dispatcher pairs with the server's
    :class:`BatchReply` to resolve tenant futures; ``None`` for the
    operations only the server executes (calls, shutdown).
    """

    def gateway_op(op):
        if isinstance(op, CreateOp):
            state.arrays[(op.tenant, op.name)] = (
                op.spec.lib,
                materialize_array(op.spec, state.comm),
                make_sor(op.spec.region, op.spec.n),
            )
            return Reply(ok=True)
        if isinstance(op, GatherOp):
            _, array, _ = state._array(op.tenant, op.name)
            return Reply(ok=True, value=array.gather_global())  # collective
        if isinstance(op, DisconnectOp):
            for ref in [r for r in state.arrays if r[0] == op.tenant]:
                del state.arrays[ref]
        return None

    return apply_round(
        state, rnd.ops, rnd.grants,
        lambda op: state._array(op.tenant, op.array_name), gateway_op,
    )


def lead_round(
    state: GatewayState, seq: int, ops: tuple
) -> tuple[list, BatchReply | None]:
    """Rank 0's half of one round: ship the server-visible slice, settle
    the bind negotiation, broadcast the :class:`Round`, execute it, and
    collect the server's reply (``None`` when the batch expects none).
    Returns ``(gateway replies, server reply)``.

    Bind ops get their ``client_hit`` stamped here, as the round is
    sealed — the store may have moved since the op was submitted, and the
    negotiation must see the truth at build time.
    """
    ops = tuple(
        replace(op, client_hit=state.cache.peek(
            bind_key(op.obj, op.attr, op.signature)))
        if isinstance(op, BindOp) else op
        for op in ops
    )
    batch = ServiceBatch(seq, server_ops(ops))
    ic = state.ctx.peer(state.peer)
    deadline = state.config.deadline_s
    if batch.ops:
        ic.send(0, batch, TAG_SERVICE)
    grants = ()
    if batch.has_binds:
        grants = guard_peer(
            state.universe, deadline, "bind negotiation",
            ic.recv, 0, TAG_SERVICE, timeout=deadline,
        ).grants
    rnd = Round(seq, ops, grants)
    state.comm.bcast(rnd, root=0)
    local = execute_round(state, rnd)
    reply = None
    if batch.expects_reply:
        reply = guard_peer(
            state.universe, deadline, "round reply",
            ic.recv, 0, TAG_SERVICE, timeout=deadline,
        )
    return local, reply


def follow_round(state: GatewayState) -> Round | Shutdown:
    """Ranks >= 1: take rank 0's next broadcast and, if it is a round,
    execute it.  Returns the broadcast message."""
    msg = state.comm.bcast(None, root=0)
    if isinstance(msg, Round):
        execute_round(state, msg)
    return msg


def gateway_follower_loop(state: GatewayState) -> None:
    """Ranks >= 1 of the gateway: execute broadcast rounds until shutdown.

    A peer loss raised mid-round ends the loop gracefully — rank 0 makes
    the same observation at the same collective point and stops
    broadcasting, so returning (rather than crashing the rank) is what
    keeps "no wedged sessions" true on every rank.
    """
    try:
        while isinstance(follow_round(state), Round):
            pass
    except PeerLostError:
        state.proc.metrics.incr("svc_peer_lost")
