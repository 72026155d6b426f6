"""The replicated tables of a service program and the one round it runs.

The gateway and the server each keep, per rank, the same three tables —
binding **slots**, live **bindings** and the shared schedule → plan
**store** — and never ship them: both programs apply the same
deterministic rules (:func:`apply_round`) to the same op stream, so the
replicas agree by construction.  Everything a rule decides — which slot a
bind gets, whether a slot is live, *whose* it is — is decided here, once,
from that replicated state, which is what lets one program skip exactly
the collective work the other one refuses.

Execution order within a round is canonical:

1. **slot acquisition** — granted binds acquire slots in batch order
   (before any unbind frees one, so both programs' slot tables stay in
   lockstep with the ids the server previewed into the grants);
2. **batch order** — binds (collective schedule build when the
   negotiation said so, shared-store lookup otherwise), unbinds,
   disconnects, and each program's own operations (creates and gathers
   on the gateway, calls on the server);
3. **all pushes**, as one :class:`~repro.core.plan.MovePlan` — one
   message per processor pair, fused when a round carries several;
4. **all pulls**, likewise (over the reversed universe).

The at-most-one-op-per-tenant rule makes every operation in a round
independent, which is what makes this order safe to impose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.coupling import coupled_universe, exchange, guard_peer
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import CommSchedule, ScheduleMethod, build_schedule
from repro.core.universe import TwoProgramUniverse
from repro.service.cache import ServiceCache, bind_key
from repro.service.protocol import (
    PULL,
    PUSH,
    BindGrant,
    BindOp,
    DisconnectOp,
    MoveOp,
    Reply,
    ServiceConfig,
    UnbindOp,
)

__all__ = [
    "SlotTable",
    "Binding",
    "ServiceState",
    "ProtocolError",
    "apply_round",
]


#: the reply of every accepted move and unbind (replies are immutable)
_OK = Reply(ok=True)


class ProtocolError(RuntimeError):
    """The two programs' mirrored state diverged — a service bug, raised
    loudly instead of letting a desynchronized collective hang."""


class SlotTable:
    """Lowest-free-slot id allocator with deterministic reuse.

    Binding ids are *slots*: a bind takes the lowest free one and an
    unbind returns it, so long-lived clients that cycle through bindings
    reuse a bounded table.  Both programs run this discipline over the
    same op stream, which keeps their id assignment in lockstep without
    shipping tables around.
    """

    def __init__(self) -> None:
        self._free: list[int] = []
        self._next = 0
        #: largest number of simultaneously live slots ever observed
        self.high_water = 0

    def acquire(self) -> int:
        if self._free:
            # Lowest slot first: deterministic and keeps the table dense.
            slot = self._free.pop(0)
        else:
            slot = self._next
            self._next += 1
        self.high_water = max(self.high_water, self.live)
        return slot

    def release(self, slot: int) -> None:
        if not 0 <= slot < self._next or slot in self._free:
            raise KeyError(f"slot {slot} is not live")
        # Insertion keeps the free list sorted so acquire() pops the
        # lowest slot without a scan.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid] < slot:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, slot)

    def preview(self, k: int) -> list[int]:
        """The ``k`` slot ids the next ``k`` :meth:`acquire` calls would
        return, without mutating the table.

        The bind negotiation answers clients *before* the collective
        phase in which both programs actually acquire the slots, so the
        server previews its assignment to put authoritative ids on the
        wire while keeping all mutation in one ordered phase.
        """
        out = self._free[:k]
        n = self._next
        while len(out) < k:
            out.append(n)
            n += 1
        return out

    @property
    def live(self) -> int:
        """Number of slots currently allocated."""
        return self._next - len(self._free)

    @property
    def capacity(self) -> int:
        """Size of the underlying table (live + free slots)."""
        return self._next

    def is_live(self, slot: int) -> bool:
        return 0 <= slot < self._next and slot not in self._free


@dataclass
class Binding:
    """One rank's half of an established tenant binding (slot-indexed)."""

    slot: int
    tenant: int
    key: tuple            # store key (embeds the tenant array's signature)
    schedule: CommSchedule
    array: Any            # this program's rank-local end of the copy


@dataclass
class ServiceState:
    """Per-rank tables of one service program, identical in shape on every
    rank of both programs.

    All mutation happens inside :func:`apply_round`, driven by the op
    stream — which is what keeps the replicas consistent without shipping
    state.
    """

    ctx: Any
    peer: str
    config: ServiceConfig
    universe: TwoProgramUniverse
    cache: ServiceCache
    policy: ExecutorPolicy
    slots: SlotTable = field(default_factory=SlotTable)
    bindings: dict[int, Binding] = field(default_factory=dict)
    rounds: int = 0

    @classmethod
    def open(cls, ctx, peer: str, role: str, config: ServiceConfig):
        """Build one rank's state (collective-free).  ``role`` is this
        program's end of every schedule: the gateway owns the sources
        (``"src"``), the server the destinations (``"dst"``)."""
        universe = coupled_universe(ctx, peer, role)
        if config.reliability:
            universe.enable_reliability()
        cache = ServiceCache(
            schedule_maxsize=config.schedule_cache_size,
            plan_maxsize=config.plan_cache_size,
            metrics=ctx.comm.process.metrics,
        )
        return cls(ctx, peer, config, universe, cache,
                   ExecutorPolicy.coerce(config.policy))

    @property
    def comm(self):
        return self.ctx.comm

    @property
    def proc(self):
        return self.ctx.comm.process

    def release(self, slot: int) -> None:
        del self.bindings[slot]
        self.slots.release(slot)


def apply_round(
    state: ServiceState,
    ops: tuple,
    grants: tuple,
    local_half: Callable[[BindOp], tuple],
    other: Callable[[Any], Reply | None],
) -> list:
    """Run one round on this rank (collective over both programs).

    ``local_half(bind_op)`` resolves this program's ``(lib, array,
    set-of-regions)`` end of a granted bind; ``other(op)`` executes the
    operations only this program acts on (after the shared bookkeeping,
    for a disconnect).  Returns one reply per op, in op order, as this
    program sees it — ``None`` where ``other`` had none to give.
    """
    state.rounds += 1
    state.proc.metrics.incr("svc_rounds")

    granted: dict[int, BindGrant] = {}
    remaining = iter(grants)
    for i, op in enumerate(ops):
        if isinstance(op, BindOp):
            grant = granted[i] = next(remaining)
            if grant.ok:
                slot = state.slots.acquire()
                if slot != grant.slot:
                    raise ProtocolError(
                        f"slot tables diverged: acquired {slot}, "
                        f"server granted {grant.slot}"
                    )

    replies: list = []
    moves: dict[str, list[Binding]] = {PUSH: [], PULL: []}
    for i, op in enumerate(ops):
        if isinstance(op, BindOp):
            replies.append(_bind(state, op, granted[i], local_half))
        elif isinstance(op, (MoveOp, UnbindOp)):
            # Liveness and ownership are read from replicated state, so
            # the gateway skips an op exactly when the server refuses it.
            binding = state.bindings.get(op.slot)
            error = ""
            if binding is None:
                error = f"KeyError: binding {op.slot} is not live"
            elif binding.tenant != op.tenant:
                error = (f"PermissionError: binding {op.slot} belongs to "
                         "another tenant")
            elif isinstance(op, MoveOp):
                moves[op.direction].append(binding)
            else:
                state.release(op.slot)
            replies.append(Reply(ok=False, error=error) if error else _OK)
        else:
            if isinstance(op, DisconnectOp):
                for slot in sorted(
                    s for s, b in state.bindings.items()
                    if b.tenant == op.tenant
                ):
                    state.release(slot)
            replies.append(other(op))

    for direction in (PUSH, PULL):
        _execute_moves(state, moves[direction], direction)
    return replies


def _bind(state: ServiceState, op: BindOp, grant: BindGrant, local_half) -> Reply:
    if not grant.ok:
        return Reply(ok=False, error=grant.error)
    lib, array, sor = local_half(op)
    mine, theirs = (lib, array, sor), (lib, None, None)
    key = bind_key(op.obj, op.attr, op.signature)
    # ``force``: the negotiation saw a miss on at least one side.  Not
    # forced, a miss here means the key was evicted between the
    # negotiation's peek and now (store smaller than one round's distinct
    # keys); both stores are deterministic replicas of the same op
    # stream, so the peer reaches the identical conclusion and joins this
    # collective rebuild.
    schedule = state.cache.resolve(
        key,
        lambda: guard_peer(
            state.universe, state.config.deadline_s, "bind (schedule build)",
            build_schedule,
            state.universe,
            *(mine + theirs if state.universe.role == "src" else theirs + mine),
            method=ScheduleMethod.COOPERATION,
            policy=state.policy,
        ),
        force=grant.need_build,
    )
    state.bindings[grant.slot] = Binding(
        grant.slot, op.tenant, key, schedule, array
    )
    return Reply(ok=True, binding=grant.slot)


def _execute_moves(state: ServiceState, group: list[Binding], direction: str) -> None:
    """One direction's transfers for a round, as one plan across tenants.

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
    state.proc.metrics.incr("svc_moves", len(group))
    reverse = direction == PULL
    plan = state.cache.plan(
        [b.key for b in group], [b.schedule for b in group], reverse
    )
    exchange(
        plan, [b.array for b in group], state.universe, reverse,
        state.policy, state.config.deadline_s,
    )
