"""Server side of the coupling service: batched rounds over dobj objects.

:func:`serve_service` is the server program's body — the multi-tenant
generalization of :func:`repro.dobj.server.serve_objects`.  It serves the
same :class:`~repro.dobj.server.ParallelObject` instances, but the unit
of control traffic is one :class:`~repro.service.protocol.ServiceBatch`
per dispatch round instead of one request, and all of a round's bulk
transfers in one direction fuse into a single
:class:`~repro.core.plan.MovePlan` message per processor pair.

Round handling mirrors the gateway's canonical order exactly (slot
acquisition for granted binds first, then batch order, then pushes, then
pulls — see :mod:`repro.service.dispatch`), because the two programs'
slot tables, binding tables and caches are *replicas coordinated only by
the op stream*: as long as both sides apply the same deterministic rules
to the same ops, no state ever needs to ride the wire.

The bind negotiation is the one extra round trip: rank 0 validates each
bind locally, previews the slot it will get, peeks its shared schedule
cache, and answers a :class:`~repro.service.protocol.BindAck` *before*
any collective work — so a failed export never strands the gateway in a
half-started schedule build, and a double cache hit (both programs hold
the schedule) skips the collective build entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coupling import coupled_universe
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import CommSchedule, ScheduleMethod, build_schedule
from repro.dobj.protocol import Reply, SlotTable
from repro.dobj.server import ParallelObject, _lookup
from repro.service.cache import ServiceCache, bind_key
from repro.service.dispatch import _execute_moves
from repro.service.protocol import (
    PULL,
    PUSH,
    TAG_SERVICE,
    BatchReply,
    BindAck,
    BindGrant,
    BindOp,
    CallOp,
    DisconnectOp,
    MoveOp,
    ServiceBatch,
    ServiceConfig,
    ShutdownOp,
    UnbindOp,
)
from repro.vmachine.faults import RankLostError
from repro.vmachine.program import ProgramContext

__all__ = ["serve_service"]


@dataclass
class _ServedBinding:
    """Server half of one tenant binding (slot-indexed)."""

    slot: int
    tenant: int
    key: tuple
    schedule: CommSchedule
    array: object  # the exported array's rank-local piece


def serve_service(
    ctx: ProgramContext,
    gateway: str,
    objects: dict[str, ParallelObject],
    config: ServiceConfig | None = None,
) -> dict:
    """Serve batched multi-tenant rounds until the gateway shuts down.

    Collective over the server program.  Returns a summary dict
    (rounds, ops served, cache counters) for monitoring and tests.
    """
    config = config or ServiceConfig()
    comm = ctx.comm
    ic = ctx.peer(gateway)
    policy = ExecutorPolicy.coerce(config.policy)
    universe = coupled_universe(ctx, gateway, "dst")
    if config.reliability:
        universe.enable_reliability()
    metrics = comm.process.metrics
    cache = ServiceCache(
        schedule_maxsize=config.schedule_cache_size,
        plan_maxsize=config.plan_cache_size,
        metrics=metrics,
    )
    slots = SlotTable()
    bindings: dict[int, _ServedBinding] = {}
    rounds = 0
    ops_served = 0
    peer_lost = ""

    while True:
        msg = None
        if comm.rank == 0:
            try:
                batch = ic.recv(0, TAG_SERVICE, timeout=config.deadline_s)
            except (RankLostError, TimeoutError) as exc:
                msg = ("lost", f"{type(exc).__name__}: {exc}")
            else:
                grants = ()
                if batch.has_binds:
                    grants = _grant_binds(batch, objects, cache, slots)
                    ic.send(0, BindAck(batch.seq, grants), TAG_SERVICE)
                msg = ("round", batch, grants)
        msg = comm.bcast(msg, root=0)

        if msg[0] == "lost":
            metrics.incr("svc_peer_lost")
            peer_lost = msg[1]
            break
        _, batch, grants = msg
        rounds += 1
        metrics.incr("svc_rounds")
        replies = _execute_batch(
            ctx, universe, policy, config, objects, cache, slots, bindings,
            batch, grants,
        )
        ops_served += len(batch.ops) - (1 if batch.shutdown else 0)
        if comm.rank == 0:
            # Twelve entries, as ever: BatchReply.nbytes charges the
            # logical clock 16 B per piggybacked counter.
            counters = {
                **cache.counters,
                "schedule_entries": len(cache),
                "bindings_live": len(bindings),
                "slot_high_water": slots.high_water,
            }
            ic.send(
                0, BatchReply(batch.seq, tuple(replies), counters), TAG_SERVICE
            )
        if batch.shutdown:
            break

    summary = cache.snapshot()
    summary.update(cache.program_stats())
    summary["rounds"] = rounds
    summary["ops_served"] = ops_served
    summary["slot_high_water"] = slots.high_water
    summary["bindings_live"] = len(bindings)
    if peer_lost:
        summary["peer_lost"] = peer_lost
    return summary


def _grant_binds(
    batch: ServiceBatch,
    objects: dict[str, ParallelObject],
    cache: ServiceCache,
    slots: SlotTable,
) -> tuple:
    """Rank 0's bind pre-pass: validate, preview slots, consult the cache.

    Pure with respect to the slot table and the cache — every mutation
    waits for the collective phase, so the previewed ids are exactly the
    ones both programs will acquire there (in batch order, before any
    unbind in the same round frees a slot).
    """
    bind_ops = [op for op in batch.ops if isinstance(op, BindOp)]
    previewed = iter(slots.preview(len(bind_ops)))
    grants = []
    #: keys already granted a build earlier in THIS round — by the time a
    #: later identical bind executes, both programs have stored the
    #: schedule (binds run in batch order on both sides), so duplicate
    #: signatures in one round pay the collective build exactly once.
    building: set = set()
    for op in bind_ops:
        try:
            obj = _lookup(objects, op.obj)
            obj.export_array(op.attr)  # raises KeyError for unknown attrs
        except Exception as exc:  # noqa: BLE001 - reported to the tenant
            grants.append(
                BindGrant(op.tenant, ok=False,
                          error=f"{type(exc).__name__}: {exc}")
            )
            continue
        key = bind_key(op.obj, op.attr, op.signature)
        if key in building:
            need_build = False
        else:
            need_build = not (
                op.client_hit and cache.peek(key)
            )
            if need_build:
                building.add(key)
        grants.append(
            BindGrant(
                op.tenant,
                ok=True,
                slot=next(previewed),
                need_build=need_build,
            )
        )
    return tuple(grants)


def _execute_batch(
    ctx,
    universe,
    policy: ExecutorPolicy,
    config: ServiceConfig,
    objects: dict[str, ParallelObject],
    cache: ServiceCache,
    slots: SlotTable,
    bindings: dict[int, _ServedBinding],
    batch: ServiceBatch,
    grants: tuple,
) -> list[Reply]:
    """Execute one round collectively; replies in server-op order
    (oneway calls produce none)."""
    comm = ctx.comm
    metrics = comm.process.metrics

    # Phase 1: slot acquisition for granted binds, in batch order.
    grant_of: dict[int, BindGrant] = {}
    it = iter(grants)
    for i, op in enumerate(batch.ops):
        if isinstance(op, BindOp):
            grant = next(it)
            grant_of[i] = grant
            if grant.ok:
                slot = slots.acquire()
                if slot != grant.slot:
                    raise RuntimeError(
                        f"server slot table diverged from its own preview: "
                        f"acquired {slot}, granted {grant.slot}"
                    )

    # Phase 2: batch order.
    replies: list[Reply] = []
    pushes: list[MoveOp] = []
    pulls: list[MoveOp] = []
    for i, op in enumerate(batch.ops):
        if isinstance(op, CallOp):
            if op.oneway:
                # Execute, never reply (see serve_objects): failures are
                # counted, not reported — there is no reply slot to fill.
                try:
                    obj = _lookup(objects, op.obj)
                    if not obj._callable(op.method):
                        raise AttributeError(op.method)
                    getattr(obj, op.method)(*op.args)
                except Exception:  # noqa: BLE001 - deliberately silent
                    metrics.incr("svc_oneway_errors")
                continue
            try:
                obj = _lookup(objects, op.obj)
                if not obj._callable(op.method):
                    raise AttributeError(
                        f"object {op.obj!r} has no remote method "
                        f"{op.method!r}"
                    )
                value = getattr(obj, op.method)(*op.args)
                replies.append(Reply(ok=True, value=value))
            except Exception as exc:  # noqa: BLE001 - reported to the tenant
                replies.append(
                    Reply(ok=False, error=f"{type(exc).__name__}: {exc}")
                )

        elif isinstance(op, BindOp):
            grant = grant_of[i]
            if not grant.ok:
                replies.append(Reply(ok=False, error=grant.error))
                continue
            lib, array, sor = _lookup(objects, op.obj).export_array(op.attr)
            key = bind_key(op.obj, op.attr, op.signature)

            # Mirror of the gateway's resolve (see dispatch._execute_bind).
            sched = cache.resolve(
                key,
                lambda: build_schedule(
                    universe,
                    lib, None, None,  # source side lives in the gateway
                    lib, array, sor,
                    method=ScheduleMethod.COOPERATION,
                    policy=policy,
                ),
                force=grant.need_build,
            )
            bindings[grant.slot] = _ServedBinding(
                slot=grant.slot, tenant=op.tenant, key=key,
                schedule=sched, array=array,
            )
            replies.append(Reply(ok=True, binding=grant.slot))

        elif isinstance(op, UnbindOp):
            binding = bindings.pop(op.slot, None)
            if binding is None:
                replies.append(
                    Reply(ok=False,
                          error=f"KeyError: binding {op.slot} is not live")
                )
            else:
                slots.release(op.slot)
                replies.append(Reply(ok=True))

        elif isinstance(op, MoveOp):
            if op.slot not in bindings:
                replies.append(
                    Reply(ok=False,
                          error=f"KeyError: binding {op.slot} is not live")
                )
                continue
            (pushes if op.direction == PUSH else pulls).append(op)
            replies.append(Reply(ok=True))

        elif isinstance(op, DisconnectOp):
            for slot in sorted(
                s for s, b in bindings.items() if b.tenant == op.tenant
            ):
                del bindings[slot]
                slots.release(slot)
            replies.append(Reply(ok=True))

        elif isinstance(op, ShutdownOp):
            replies.append(Reply(ok=True))

        else:
            replies.append(
                Reply(ok=False, error=f"unknown op {type(op).__name__}")
            )

    # Phases 3-4: fused bulk transfers (mirror of the gateway's).
    for ops, direction in ((pushes, PUSH), (pulls, PULL)):
        group = [bindings[op.slot] for op in ops]
        _execute_moves(
            universe, policy, config.deadline_s, cache, group,
            [b.array for b in group], direction,
        )
    metrics.incr("svc_ops", len(batch.ops))
    return replies
