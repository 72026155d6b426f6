"""The gateway front-end: asyncio tenants multiplexed onto SPMD rounds.

:func:`run_service_gateway` is the gateway program's body.  Rank 0 runs
an asyncio event loop hosting every tenant session as a task; ranks >= 1
run :func:`~repro.service.dispatch.gateway_follower_loop`, executing the
rounds rank 0 broadcasts.  The dispatcher alternates two modes:

- **cooperative** — tenant tasks run, submitting operations into their
  session queues (bounded by admission control) for ``batch_window``
  scheduler passes;
- **collective** — the dispatcher seals a round (the head operation of
  every ready session, so every op in a round belongs to a *different*
  tenant and all are mutually independent), ships the server-visible
  slice to the server, negotiates binds, broadcasts the round to the
  gateway ranks, executes it, and resolves the tenants' futures from the
  server's batched reply.

The collective phase blocks the event loop deliberately: every tenant
with an op in flight is awaiting a future only this round can resolve,
so there is nothing useful to interleave — and keeping the loop
single-threaded keeps dispatch order deterministic.

Failure containment: a tenant task that raises is *evicted* — its queued
operations are cancelled, its admission credit returned, and a system
disconnect reclaims its binding slots on both programs — while every
other session keeps running.  A lost server peer surfaces as
:class:`~repro.vmachine.faults.PeerLostError` within the configured
deadline; the dispatcher then fails all sessions, releases the follower
ranks, and returns a report (no wedged sessions, no hung ranks).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.service.admission import AdmissionControl
from repro.service.dispatch import (
    GatewayState,
    Shutdown,
    gateway_follower_loop,
    lead_round,
)
from repro.service.protocol import (
    TAG_SERVICE,
    CallOp,
    CreateOp,
    DisconnectOp,
    GatherOp,
    Reply,
    ServiceBatch,
    ServiceConfig,
    ShutdownOp,
)
from repro.service.session import Session, TenantSpec
from repro.vmachine.faults import PeerLostError, RankLostError

__all__ = ["run_service_gateway", "ServiceReport", "TenantReport"]


@dataclass
class TenantReport:
    """Outcome of one tenant session."""

    name: str
    ok: bool
    error: str = ""
    result: Any = None
    ops_ok: int = 0
    ops_failed: int = 0
    ops_shed: int = 0
    #: wall-clock seconds from submission to resolution, per resolved op
    latencies: list = field(default_factory=list)


@dataclass
class ServiceReport:
    """What one service run did, assembled on the gateway's rank 0."""

    tenants: list[TenantReport]
    rounds: int
    cache: dict
    admission: dict
    server_counters: dict
    slot_high_water: int
    peer_lost: str = ""

    @property
    def ok(self) -> bool:
        return not self.peer_lost and all(t.ok for t in self.tenants)

    def tenant(self, name: str) -> TenantReport:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"no tenant {name!r} in this report")


def run_service_gateway(
    ctx,
    server: str,
    tenants: Sequence[TenantSpec],
    config: ServiceConfig | None = None,
) -> ServiceReport | None:
    """Gateway program body: run every tenant session against ``server``.

    Collective over the gateway program; returns the
    :class:`ServiceReport` on rank 0 and ``None`` elsewhere.
    """
    state = GatewayState.open(ctx, server, "src", config or ServiceConfig())
    if ctx.comm.rank != 0:
        gateway_follower_loop(state)
        return None
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(
            _Dispatcher(state, tenants, loop).run()
        )
    finally:
        loop.close()


class _Dispatcher:
    """Rank 0's dispatch scheduler (also the ``core`` the sessions see)."""

    def __init__(self, state: GatewayState, tenants, loop):
        self.state = state
        self.config = state.config
        self.loop = loop
        self.admission = AdmissionControl(
            state.config.max_queue_depth,
            state.config.max_inflight_per_tenant,
            metrics=state.proc.metrics,
        )
        self.tenant_specs = list(tenants)
        self.sessions: list[Session] = []
        self.tasks: list[asyncio.Task] = []
        self.seq = 0
        self.server_counters: dict = {}
        self._work = asyncio.Event()
        self._reaped: set[int] = set()
        self._tenant_errors: dict[str, str] = {}

    # -- the Session-facing core API ----------------------------------------

    def notify_work(self) -> None:
        self._work.set()

    def signature_of(self, tenant: int, array_name: str) -> tuple:
        return self.state.signature_of(tenant, array_name)

    # -- main loop -----------------------------------------------------------

    async def run(self) -> ServiceReport:
        for i, spec in enumerate(self.tenant_specs):
            session = Session(i, spec.name, self)
            self.sessions.append(session)
            self.tasks.append(self.loop.create_task(spec.fn(session)))
        peer_lost = ""
        while True:
            for _ in range(max(1, self.config.batch_window)):
                await asyncio.sleep(0)
            self._reap_finished()
            harvested = self._harvest()
            if not harvested:
                if all(t.done() for t in self.tasks) and not any(
                    s.queue for s in self.sessions
                ):
                    break
                await self._wait_for_work()
                continue
            try:
                self._run_round(harvested)
            except PeerLostError as exc:
                peer_lost = str(exc)
                self.state.proc.metrics.incr("svc_peer_lost")
                break
        if not peer_lost:
            self._shutdown_round()
        self.state.comm.bcast(Shutdown(peer_lost or "done"), root=0)
        if peer_lost:
            self._fail_everything()
        return self._report(peer_lost)

    # -- harvesting ----------------------------------------------------------

    def _harvest(self) -> list[tuple]:
        """Seal one round: the head op of every ready session, rotated
        for fairness, at most ``max_batch_ops`` total."""
        harvested: list[tuple] = []
        n = len(self.sessions)
        if n == 0:
            return harvested
        start = self.seq % n
        for i in range(n):
            session = self.sessions[(start + i) % n]
            if not session.queue:
                continue
            if len(harvested) >= self.config.max_batch_ops:
                break
            harvested.append((session, session.queue.pop(0)))
        self.admission.dispatched(len(harvested))
        return harvested

    async def _wait_for_work(self) -> None:
        self._work.clear()
        waiter = self.loop.create_task(self._work.wait())
        live = [t for t in self.tasks if not t.done()]
        await asyncio.wait([waiter, *live], return_when=asyncio.FIRST_COMPLETED)
        if not waiter.done():
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)

    # -- one round -----------------------------------------------------------

    def _run_round(self, harvested: list[tuple]) -> None:
        seq, self.seq = self.seq, self.seq + 1
        local, reply = lead_round(
            self.state, seq, tuple(pending.op for _, pending in harvested)
        )
        if reply is not None:
            self.server_counters = dict(reply.server_counters)
        self._resolve(harvested, local, reply)

    def _resolve(self, harvested, local: list, reply) -> None:
        replies = iter(reply.replies if reply is not None else ())
        for i, (session, pending) in enumerate(harvested):
            op = pending.op
            if isinstance(op, (CreateOp, GatherOp)):
                result = local[i]
            elif isinstance(op, CallOp) and op.oneway:
                # Resolved at dispatch: oneway carries no result and
                # reports no server-side failure.
                result = Reply(ok=True)
            else:
                result = next(replies)
            session.inflight -= 1
            if not pending.future.done():
                pending.future.set_result(result)

    def _shutdown_round(self) -> None:
        state = self.state
        seq, self.seq = self.seq, self.seq + 1
        ic = state.ctx.peer(state.peer)
        try:
            ic.send(0, ServiceBatch(seq, (ShutdownOp("gateway done"),)),
                    TAG_SERVICE)
            reply = ic.recv(0, TAG_SERVICE, timeout=self.config.deadline_s)
            self.server_counters = dict(reply.server_counters)
        except (RankLostError, TimeoutError):
            pass  # peer already gone; the report still assembles

    # -- tenant lifecycle ----------------------------------------------------

    def _reap_finished(self) -> None:
        for session, task in zip(self.sessions, self.tasks):
            if not task.done() or session.tenant_id in self._reaped:
                continue
            self._reaped.add(session.tenant_id)
            if task.cancelled():
                continue
            exc = task.exception()
            if exc is not None:
                self._evict(session, exc)
            elif not session.closed:
                # Clean finisher that skipped close(): reclaim its slots.
                session.closed = True
                self._system_disconnect(session)

    def _evict(self, session: Session, exc: BaseException) -> None:
        """Contain one failed tenant without touching the others."""
        session.evicted = True
        session.closed = True
        self._tenant_errors[session.name] = f"{type(exc).__name__}: {exc}"
        dropped = list(session.queue)
        session.queue.clear()
        if dropped:
            self.admission.dispatched(len(dropped))
        for pending in dropped:
            session.inflight -= 1
            pending.future.cancel()
        self.state.proc.metrics.incr("svc_tenants_evicted")
        self._system_disconnect(session)

    def _system_disconnect(self, session: Session) -> None:
        if session.bindings or session.arrays:
            session._submit(DisconnectOp(session.tenant_id), system=True)

    def _fail_everything(self) -> None:
        """Peer lost: cancel every outstanding future and task."""
        for session in self.sessions:
            session.evicted = True
            session.closed = True
            undone = list(session.queue)
            session.queue.clear()
            if undone:
                self.admission.dispatched(len(undone))
            for pending in undone:
                session.inflight -= 1
                pending.future.cancel()
        for task in self.tasks:
            if not task.done():
                task.cancel()

    # -- report --------------------------------------------------------------

    def _report(self, peer_lost: str) -> ServiceReport:
        tenants = []
        for session, task in zip(self.sessions, self.tasks):
            error = self._tenant_errors.get(session.name, "")
            if peer_lost and not error and not (
                task.done() and not task.cancelled()
            ):
                error = f"peer lost: {peer_lost}"
            result = None
            if task.done() and not task.cancelled() and task.exception() is None:
                result = task.result()
            tenants.append(
                TenantReport(
                    name=session.name,
                    ok=not error,
                    error=error,
                    result=result,
                    ops_ok=session.stats.ops_ok,
                    ops_failed=session.stats.ops_failed,
                    ops_shed=session.stats.ops_shed,
                    latencies=list(session.stats.latencies),
                )
            )
        cache = self.state.cache.snapshot()
        cache.update(self.state.cache.program_stats())
        return ServiceReport(
            tenants=tenants,
            rounds=self.state.rounds,
            cache=cache,
            admission=self.admission.snapshot(),
            server_counters=self.server_counters,
            slot_high_water=self.state.slots.high_water,
            peer_lost=peer_lost,
        )
