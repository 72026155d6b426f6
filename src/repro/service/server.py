"""Server side of the coupling service: parallel objects served in rounds.

A server program constructs :class:`ParallelObject` instances (whose
state includes distributed arrays and whose methods are SPMD across the
server's processors), then enters :func:`serve_service` — an ORB-style
dispatch loop whose unit of control traffic is one
:class:`~repro.service.protocol.ServiceBatch` per dispatch round, and in
which all of a round's bulk transfers in one direction fuse into a single
:class:`~repro.core.plan.MovePlan` message per processor pair.

Round handling is the gateway's, exactly (:func:`repro.service.rounds.
apply_round`), because the two programs' slot tables, binding tables and
stores are *replicas coordinated only by the op stream*: as long as both
sides apply the same deterministic rules to the same ops, no state ever
needs to ride the wire.  The one precondition — configs that agree on
store sizes and reliable delivery — is checked once, against the
fingerprint the gateway's first batch carries.

The bind grant is the one extra round trip: rank 0 validates each bind
against its exports, previews the slot it will get, and answers a
:class:`~repro.service.protocol.BindAck` *before* any collective work —
so a failed export never strands the gateway in a half-started schedule
build.
"""

from __future__ import annotations

import abc

from repro.service.protocol import (
    TAG_SERVICE,
    BatchReply,
    BindAck,
    BindGrant,
    BindOp,
    CallOp,
    DisconnectOp,
    Reply,
    ServiceBatch,
    ServiceConfig,
    ShutdownOp,
)
from repro.service.rounds import (
    ProtocolError,
    ServiceState,
    SlotTable,
    apply_round,
)
from repro.vmachine.faults import RankLostError
from repro.vmachine.program import ProgramContext

__all__ = ["ParallelObject", "serve_service"]


class ParallelObject(abc.ABC):
    """Base class for server-side parallel objects.

    Subclasses hold distributed arrays and define SPMD methods (plain
    methods executed by every server rank collectively).  Every method
    name not starting with ``_`` is remotely callable.  Arrays a client
    may bind to are published by :meth:`export_array`.
    """

    @abc.abstractmethod
    def export_array(self, attr: str):
        """Return ``(library_name, array, set_of_regions)`` for ``attr``.

        Raise ``KeyError`` for unknown attributes; the error travels back
        to the client as a failed reply.
        """

    def _callable(self, method: str) -> bool:
        return not method.startswith("_") and callable(getattr(self, method, None))


def _lookup(objects: dict[str, ParallelObject], name: str) -> ParallelObject:
    try:
        return objects[name]
    except KeyError:
        raise KeyError(
            f"no object {name!r} exported; available: {sorted(objects)}"
        ) from None


def serve_service(
    ctx: ProgramContext,
    gateway: str,
    objects: dict[str, ParallelObject],
    config: ServiceConfig | None = None,
) -> dict:
    """Serve batched multi-tenant rounds until the gateway shuts down.

    Collective over the server program.  Returns a summary dict
    (rounds, ops served, cache counters) for monitoring and tests.
    Raises :class:`~repro.service.rounds.ProtocolError` (on rank 0) if
    the gateway's config fingerprint differs from this one.
    """
    state = ServiceState.open(ctx, gateway, "dst", config or ServiceConfig())
    comm = ctx.comm
    ic = ctx.peer(gateway)
    mine = state.config.fingerprint()
    ops_served = 0
    peer_lost = ""

    while True:
        msg = None
        if comm.rank == 0:
            try:
                batch = ic.recv(0, TAG_SERVICE)
            except (RankLostError, TimeoutError) as exc:
                msg = ("lost", f"{type(exc).__name__}: {exc}")
            else:
                if batch.fingerprint not in (None, mine):
                    raise ProtocolError(
                        f"gateway config fingerprint {batch.fingerprint} != "
                        f"server config fingerprint {mine}: the two stores "
                        "would not stay replicas"
                    )
                grants = ()
                if batch.has_binds:
                    grants = _grant_binds(batch, objects, state.slots)
                    ic.send(0, BindAck(batch.seq, grants), TAG_SERVICE)
                msg = ("round", batch, grants)
        msg = comm.bcast(msg, root=0)

        if msg[0] == "lost":
            state.proc.metrics.incr("svc_peer_lost")
            peer_lost = msg[1]
            break
        _, batch, grants = msg
        replies = _execute_batch(state, objects, batch, grants)
        ops_served += len(batch.ops) - (1 if batch.shutdown else 0)
        if comm.rank == 0 and batch.expects_reply:
            ic.send(0, BatchReply(batch.seq, tuple(replies)), TAG_SERVICE)
        if batch.shutdown:
            break

    summary = state.cache.snapshot()
    summary.update(state.cache.program_stats())
    summary["rounds"] = state.rounds
    summary["ops_served"] = ops_served
    summary["slot_high_water"] = state.slots.high_water
    summary["bindings_live"] = len(state.bindings)
    if peer_lost:
        summary["peer_lost"] = peer_lost
    return summary


def _grant_binds(
    batch: ServiceBatch,
    objects: dict[str, ParallelObject],
    slots: SlotTable,
) -> tuple:
    """Rank 0's bind pre-pass: validate exports, preview slots.

    Pure with respect to the slot table — every mutation waits for the
    collective phase, so the previewed ids are exactly the ones both
    programs will acquire there (in batch order, before any unbind in the
    same round frees a slot).
    """
    bind_ops = [op for op in batch.ops if isinstance(op, BindOp)]
    previewed = iter(slots.preview(len(bind_ops)))
    grants = []
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
        grants.append(BindGrant(op.tenant, ok=True, slot=next(previewed)))
    return tuple(grants)


def _execute_batch(
    state: ServiceState,
    objects: dict[str, ParallelObject],
    batch: ServiceBatch,
    grants: tuple,
) -> list[Reply]:
    """Execute one round collectively; replies in server-op order
    (oneway calls produce none)."""

    def server_op(op):
        if isinstance(op, CallOp):
            return _invoke(state, objects, op)
        if isinstance(op, (DisconnectOp, ShutdownOp)):
            return Reply(ok=True)
        return Reply(ok=False, error=f"unknown op {type(op).__name__}")

    replies = apply_round(
        state, batch.ops, grants,
        lambda op: _lookup(objects, op.obj).export_array(op.attr), server_op,
    )
    state.proc.metrics.incr("svc_ops", len(batch.ops))
    return [r for r in replies if r is not None]


def _invoke(state: ServiceState, objects, op: CallOp) -> Reply | None:
    """Run one SPMD method call.  A oneway call (CORBA 'oneway') executes
    but *never* replies, success or failure — there is no reply slot to
    fill; its failures are counted, not reported."""
    try:
        obj = _lookup(objects, op.obj)
        if not obj._callable(op.method):
            raise AttributeError(
                f"object {op.obj!r} has no remote method {op.method!r}"
            )
        reply = Reply(ok=True, value=getattr(obj, op.method)(*op.args))
    except Exception as exc:  # noqa: BLE001 - reported to the tenant
        reply = Reply(ok=False, error=f"{type(exc).__name__}: {exc}")
    if not op.oneway:
        return reply
    if not reply.ok:
        state.proc.metrics.incr("svc_oneway_errors")
    return None
