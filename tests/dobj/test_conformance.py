"""k = 1 conformance: the ``repro.dobj`` façade *is* a one-tenant,
one-op-per-round service client.

The same scripted scenario runs once through the synchronous façade and
once through a one-tenant asyncio :class:`~repro.service.Session`; the
server must not be able to tell them apart — same array contents, same
summary (ops served, slot high-water, store counters), same per-rank
``svc_*`` metrics.
"""

import numpy as np

from repro.blockparti import BlockPartiArray
from repro.core import SectionRegion, mc_new_set_of_regions
from repro.distrib.section import Section
from repro.dobj import RemoteError, connect
from repro.hpf import HPFArray, hpf_sum
from repro.service import (
    ArraySpec,
    ParallelObject,
    RemoteServiceError,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.service.protocol import DisconnectOp
from repro.vmachine import ProgramSpec, run_programs

N = 24
VALUES = np.arange(N, dtype=float)


class Vector(ParallelObject):
    def __init__(self, comm):
        self.v = HPFArray.distribute(comm, (N,), ("block",))

    def export_array(self, attr):
        if attr != "v":
            raise KeyError(attr)
        return (
            "hpf", self.v,
            mc_new_set_of_regions(SectionRegion(Section.full((N,)))),
        )

    def total(self):
        return hpf_sum(self.v)

    def scale(self, k):
        self.v.local *= k
        return k

    def explode(self):
        raise RuntimeError("deliberate failure")


def facade_client(ctx):
    """bind, bind -> push -> call -> pull into a *different* array ->
    unbind -> rebind (lowest slot) -> refused bind -> failing call ->
    oneway -> disconnect -> shutdown."""
    comm = ctx.comm
    sor = mc_new_set_of_regions(SectionRegion(Section.full((N,))))
    broker = connect(ctx, "server")
    vec = broker.object("vec")
    x = BlockPartiArray.from_global(comm, VALUES)
    out = BlockPartiArray.zeros(comm, (N,))
    bx = vec.bind("v", "blockparti", x, sor)
    bout = vec.bind("v", "blockparti", out, sor)
    vec.push(bx)
    scaled = vec.call("scale", 2.0)
    vec.pull(bx, out)  # bx's schedule, the other array
    bx.close()
    rebound = vec.bind("v", "blockparti", x, sor)
    errors = []
    for attempt in (lambda: vec.bind("nope", "blockparti", x, sor),
                    lambda: vec.call("explode")):
        try:
            attempt()
        except RemoteError as exc:
            errors.append(str(exc))
    vec.call_oneway("scale", 3.0)
    total = vec.call("total")
    got = out.gather_global()
    # A session ends with a disconnect; say the same thing so the two op
    # streams are equal op for op.
    broker._round(DisconnectOp(0))
    broker.shutdown()
    return (bx.binding_id, bout.binding_id, rebound.binding_id, scaled,
            tuple(errors), total, got)


async def session_tenant(session):
    """The same script in the async API (a session pulls into a different
    array through that array's own binding — same signature, so the same
    store key and plan)."""
    await session.create_array("x", ArraySpec("blockparti", N, fill=("arange",)))
    await session.create_array("out", ArraySpec("blockparti", N))
    bx = await session.bind("vec", "v", "x")
    bout = await session.bind("vec", "v", "out")
    await session.push(bx)
    scaled = await session.call("vec", "scale", 2.0)
    await session.pull(bout)
    await session.unbind(bx)
    rebound = await session.bind("vec", "v", "x")
    errors = []
    for attempt in (lambda: session.bind("vec", "nope", "x"),
                    lambda: session.call("vec", "explode")):
        try:
            await attempt()
        except RemoteServiceError as exc:
            errors.append(str(exc))
    await session.call_oneway("vec", "scale", 3.0)
    total = await session.call("vec", "total")
    got = await session.gather("out")
    await session.close()
    return (bx.slot, bout.slot, rebound.slot, scaled, tuple(errors), total, got)


def run(client_fn):
    def server(ctx):
        return serve_service(ctx, "client", {"vec": Vector(ctx.comm)})

    return run_programs(
        [ProgramSpec("client", 2, client_fn), ProgramSpec("server", 3, server)]
    )


def svc_metrics(result):
    return [
        {k: v for k, v in stats.items() if k.startswith("svc_")}
        for stats in result.stats
    ]


def test_facade_and_one_tenant_session_are_the_same_client():
    facade = run(facade_client)
    session = run(
        lambda ctx: run_service_gateway(
            ctx, "server", [TenantSpec("t0", session_tenant)]
        )
    )
    report = session["client"].values[0]
    assert report.ok

    # What the client saw: slots (0, 1) then lowest-slot reuse, replicated
    # results, the same two refusals, the same data.
    *f_scalars, f_out = facade["client"].values[0]
    *s_scalars, s_out = report.tenants[0].result
    assert f_scalars == s_scalars
    assert f_scalars[:3] == [0, 1, 0]
    assert "KeyError" in f_scalars[4][0] and "deliberate" in f_scalars[4][1]
    assert f_scalars[5] == 6.0 * VALUES.sum()
    np.testing.assert_array_equal(f_out, s_out)
    np.testing.assert_array_equal(f_out, 2.0 * VALUES)
    # ...on every façade rank, not just rank 0.
    assert facade["client"].values[1][:6] == facade["client"].values[0][:6]

    # What the server saw: indistinguishable.
    f_summary, s_summary = facade["server"].values[0], session["server"].values[0]
    assert f_summary == s_summary
    assert f_summary["ops_served"] == 12  # the shutdown is not served work
    assert f_summary["slot_high_water"] == 2
    assert (f_summary["schedule_misses"], f_summary["schedule_hits"]) == (1, 2)
    assert svc_metrics(facade["server"]) == svc_metrics(session["server"])
    assert all(m["svc_rounds"] == 13 for m in svc_metrics(facade["server"]))
    # Both clients moved the same two arrays.
    assert [m["svc_moves"] for m in svc_metrics(facade["client"])] == [
        m["svc_moves"] for m in svc_metrics(session["client"])
    ]
