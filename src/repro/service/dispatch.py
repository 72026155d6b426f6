"""Collective round execution on the gateway program's ranks.

One dispatch *round* is the unit of collective work: the gateway's rank 0
seals a batch (at most one operation per tenant session), negotiates the
bind phase with the server, and broadcasts a :class:`Round` to the other
gateway ranks; every gateway rank then executes the identical round
through :func:`execute_round` while the server program executes its
mirror image — so the collective calls (schedule builds, fused moves,
gathers) line up pairwise without any per-rank coordination beyond the
one broadcast.

Execution order within a round is canonical and shared with the server:

1. **slot acquisition** — granted binds acquire slots in batch order
   (before any unbind frees one, so both programs' slot tables stay in
   lockstep with the ids the server previewed into the grants);
2. **batch order** — creates, calls (server-side), binds (collective
   schedule build when the negotiation said so, shared-cache lookup
   otherwise), unbinds, disconnects, gathers;
3. **all pushes**, as one :class:`~repro.core.plan.MovePlan` — one
   message per processor pair, fused when a round carries several;
4. **all pulls**, likewise (over the reversed universe).

The at-most-one-op-per-tenant rule makes every operation in a round
independent, which is what makes this order safe to impose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.coupling import coupled_universe, exchange, guard_peer
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import CommSchedule, ScheduleMethod, build_schedule
from repro.core.universe import TwoProgramUniverse
from repro.dobj.protocol import Reply, SlotTable
from repro.service.cache import ServiceCache, array_signature, bind_key
from repro.service.protocol import (
    PULL,
    PUSH,
    BindGrant,
    BindOp,
    CreateOp,
    DisconnectOp,
    GatherOp,
    MoveOp,
    ServiceConfig,
    UnbindOp,
)
from repro.service.session import make_sor, materialize_array
from repro.vmachine.faults import PeerLostError

__all__ = [
    "Round",
    "Shutdown",
    "GatewayState",
    "GatewayBinding",
    "ProtocolError",
    "execute_round",
    "gateway_follower_loop",
    "guard_peer",
]


class ProtocolError(RuntimeError):
    """The two programs' mirrored state diverged — a service bug, raised
    loudly instead of letting a desynchronized collective hang."""


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
class GatewayBinding:
    """One rank's record of an established tenant binding."""

    slot: int
    tenant: int
    key: tuple                 # schedule-cache key (embeds the signature)
    schedule: CommSchedule
    array_ref: tuple           # (tenant, array_name)
    lib: str


@dataclass
class GatewayState:
    """Per-rank gateway state, identical in shape on every gateway rank.

    All mutation happens inside :func:`execute_round`, driven by the
    broadcast op stream — which is what keeps the replicas (and the
    server's mirror tables) consistent without shipping state.
    """

    ctx: Any
    server: str
    config: ServiceConfig
    universe: TwoProgramUniverse
    cache: ServiceCache
    policy: ExecutorPolicy
    slots: SlotTable = field(default_factory=SlotTable)
    bindings: dict[int, GatewayBinding] = field(default_factory=dict)
    #: (tenant, name) -> (spec, array, set-of-regions)
    arrays: dict[tuple, tuple] = field(default_factory=dict)
    rounds: int = 0

    @property
    def comm(self):
        return self.ctx.comm

    @property
    def proc(self):
        return self.ctx.comm.process

    def signature_of(self, tenant: int, name: str) -> tuple:
        """Canonical content key of one tenant array (rank-local)."""
        spec, array, sor = self._array(tenant, name)
        return array_signature(spec.lib, array, sor)

    def _array(self, tenant: int, name: str) -> tuple:
        try:
            return self.arrays[(tenant, name)]
        except KeyError:
            raise KeyError(
                f"tenant {tenant} has no materialized array {name!r}"
            ) from None


def make_gateway_state(ctx, server: str, config: ServiceConfig) -> GatewayState:
    """Build one rank's gateway state (collective-free)."""
    universe = coupled_universe(ctx, server, "src")
    if config.reliability:
        universe.enable_reliability()
    metrics = ctx.comm.process.metrics
    cache = ServiceCache(
        schedule_maxsize=config.schedule_cache_size,
        plan_maxsize=config.plan_cache_size,
        metrics=metrics,
    )
    return GatewayState(
        ctx=ctx,
        server=server,
        config=config,
        universe=universe,
        cache=cache,
        policy=ExecutorPolicy.coerce(config.policy),
    )


# ---------------------------------------------------------------------------
# round execution (collective over the gateway program)
# ---------------------------------------------------------------------------


def execute_round(state: GatewayState, rnd: Round) -> dict[int, Reply]:
    """Execute one round on this gateway rank (collective).

    Returns the replies of the *gateway-local* operations (creates and
    gathers), keyed by op index — meaningful on rank 0, where the
    dispatcher pairs them with the server's :class:`BatchReply` to
    resolve tenant futures.
    """
    state.rounds += 1
    state.proc.metrics.incr("svc_rounds")
    local: dict[int, Reply] = {}

    # Phase 1: slot acquisition for granted binds, in batch order.  Runs
    # before any unbind in the same round frees a slot, matching the
    # server's preview-time view of its table.
    grant_of: dict[int, BindGrant] = {}
    grants = iter(rnd.grants)
    for i, op in enumerate(rnd.ops):
        if isinstance(op, BindOp):
            grant = next(grants)
            grant_of[i] = grant
            if grant.ok:
                slot = state.slots.acquire()
                if slot != grant.slot:
                    raise ProtocolError(
                        f"slot tables diverged: gateway acquired {slot}, "
                        f"server granted {grant.slot}"
                    )

    # Phase 2: batch order.
    pushes: list[MoveOp] = []
    pulls: list[MoveOp] = []
    for i, op in enumerate(rnd.ops):
        if isinstance(op, CreateOp):
            sor = make_sor(op.spec.region, op.spec.n)
            array = materialize_array(op.spec, state.comm)
            state.arrays[(op.tenant, op.name)] = (op.spec, array, sor)
            local[i] = Reply(ok=True)

        elif isinstance(op, GatherOp):
            _, array, _ = state._array(op.tenant, op.name)
            value = array.gather_global()  # collective over the gateway
            local[i] = Reply(ok=True, value=value)

        elif isinstance(op, BindOp):
            _execute_bind(state, op, grant_of[i])

        elif isinstance(op, UnbindOp):
            binding = state.bindings.pop(op.slot, None)
            if binding is not None:
                state.slots.release(op.slot)

        elif isinstance(op, DisconnectOp):
            _disconnect_tenant(state, op.tenant)

        elif isinstance(op, MoveOp):
            # A move on a slot this round's mirror no longer holds is
            # skipped on *both* programs (the server replies an error);
            # liveness is decided from replicated state, so the skip
            # decision is identical everywhere.
            if op.slot in state.bindings:
                (pushes if op.direction == PUSH else pulls).append(op)

        # CallOp / ShutdownOp execute on the server only.

    # Phases 3-4: fused bulk transfers.
    for ops, direction in ((pushes, PUSH), (pulls, PULL)):
        group = [state.bindings[op.slot] for op in ops]
        _execute_moves(
            state.universe, state.policy, state.config.deadline_s,
            state.cache, group, [state.arrays[b.array_ref][1] for b in group],
            direction,
        )
    return local


def _execute_bind(state: GatewayState, op: BindOp, grant: BindGrant) -> None:
    if not grant.ok:
        return
    spec, array, sor = state._array(op.tenant, op.array_name)
    key = bind_key(op.obj, op.attr, op.signature)
    # ``force``: the negotiation saw a miss on at least one side.  Not
    # forced, a miss here means the key was evicted between the
    # negotiation's peek and now (store smaller than one round's distinct
    # keys); both stores are deterministic replicas of the same op
    # stream, so the server reaches the identical conclusion and joins
    # this collective rebuild.
    sched = state.cache.resolve(
        key,
        lambda: guard_peer(
            state.universe, state.config.deadline_s, "bind (schedule build)",
            build_schedule,
            state.universe,
            spec.lib, array, sor,
            spec.lib, None, None,  # destination side lives in the server
            method=ScheduleMethod.COOPERATION,
            policy=state.policy,
        ),
        force=grant.need_build,
    )
    state.bindings[grant.slot] = GatewayBinding(
        slot=grant.slot,
        tenant=op.tenant,
        key=key,
        schedule=sched,
        array_ref=(op.tenant, op.array_name),
        lib=spec.lib,
    )


def _disconnect_tenant(state: GatewayState, tenant: int) -> None:
    for slot in sorted(
        s for s, b in state.bindings.items() if b.tenant == tenant
    ):
        del state.bindings[slot]
        state.slots.release(slot)
    for ref in [r for r in state.arrays if r[0] == tenant]:
        del state.arrays[ref]


def _execute_moves(
    universe: TwoProgramUniverse,
    policy: ExecutorPolicy,
    deadline_s,
    cache: ServiceCache,
    group: list,
    arrays: list,
    direction: str,
) -> None:
    """One direction's transfers for a round, as one plan across tenants
    (both programs: ``group`` is this side's binding records, ``arrays``
    their rank-local arrays).

    The round's k independent moves compile (or fetch from the shared
    plan cache) one :class:`~repro.core.plan.MovePlan` — one message per
    gateway/server processor pair for the *whole group*, which is where
    multi-tenant batching pays: the per-pair latency is amortized over
    every tenant in the round.  A single move is the k = 1 plan, whose
    bare wire keeps its logical clock that of the one-client protocol.
    Pushes run the forward schedules (the gateway sends), pulls their
    reverses over the reversed universe (the server sends).
    """
    if not group:
        return
    universe.process.metrics.incr("svc_moves", len(group))
    reverse = direction == PULL
    plan = cache.plan(
        [b.key for b in group], [b.schedule for b in group], reverse
    )
    exchange(plan, arrays, universe, reverse, policy, deadline_s)


def gateway_follower_loop(state: GatewayState) -> None:
    """Ranks >= 1 of the gateway: execute broadcast rounds until shutdown.

    A peer loss raised mid-round ends the loop gracefully — rank 0 makes
    the same observation at the same collective point and stops
    broadcasting, so returning (rather than crashing the rank) is what
    keeps "no wedged sessions" true on every rank.
    """
    while True:
        msg = state.comm.bcast(None, root=0)
        if isinstance(msg, Shutdown):
            return
        try:
            execute_round(state, msg)
        except PeerLostError:
            state.proc.metrics.incr("svc_peer_lost")
            return
