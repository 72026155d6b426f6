"""Property-based tests of the multi-tenant coupling service.

The invariant: a fleet of concurrent tenant sessions multiplexed through
the batching gateway observes exactly what each tenant would observe
running *alone* against the same server — concurrency, round fusion and
the shared caches are pure optimizations.  Each tenant binds its own
server vector, so the serial oracle is well-defined (no deliberate
write-write races across tenants).

A second property drives the whole control+data stack through a lossy
transport (<=10% drop/dup/reorder/delay on data channels) with the
reliability layer enabled and requires bit-identical results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.service_demo import DemoVectors
from repro.core.policy import ExecutorPolicy
from repro.service import (
    ArraySpec,
    ServiceConfig,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.vmachine import ProgramSpec, run_programs
from repro.vmachine.faults import FaultPlan, FaultRates


def tenant_body(index, spec, iterations):
    """create -> bind v<index> -> (push, total, pull)* -> gather."""

    async def body(session):
        await session.create_array("x", spec)
        binding = await session.bind("vec", f"v{index}", "x")
        totals = []
        for _ in range(iterations):
            await session.push(binding)
            totals.append(await session.call("vec", "total", f"v{index}"))
            await session.pull(binding)
        final = await session.gather("x")
        await session.close()
        return tuple(totals), final

    return body


def run_fleet(specs, iterations, config, fault_plan=None,
              gateway_procs=2, server_procs=2):
    """Run one service topology; tenant *i* owns server vector ``v{i}``."""
    sizes = [s.n for s in specs]

    def gateway(ctx):
        fleet = [
            TenantSpec(f"t{i}", tenant_body(i, spec, iterations))
            for i, spec in enumerate(specs)
        ]
        return run_service_gateway(ctx, "server", fleet, config)

    def server(ctx):
        return serve_service(
            ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config
        )

    res = run_programs(
        [ProgramSpec("gateway", gateway_procs, gateway),
         ProgramSpec("server", server_procs, server)],
        faults=fault_plan,
    )
    return res["gateway"].values[0]


@st.composite
def fleet_case(draw):
    ntenants = draw(st.integers(2, 4))
    iterations = draw(st.integers(1, 2))
    policy = draw(st.sampled_from(["ordered", "overlap"]))
    specs = []
    for i in range(ntenants):
        lib = draw(st.sampled_from(["blockparti", "hpf", "chaos"]))
        n = draw(st.integers(6, 32))
        fill = draw(
            st.sampled_from([("value", float(i + 1)), ("arange",), ("rng", i)])
        )
        owners = draw(
            st.sampled_from([("stride", 1), ("stride", 3), ("rng", i + 7)])
        )
        specs.append(ArraySpec(lib, n, fill=fill, owners=owners))
    return specs, iterations, policy


@given(case=fleet_case())
@settings(max_examples=8, deadline=None)
def test_concurrent_fleet_matches_serial_oracle(case):
    """Multi-tenant ≡ serial: run the fleet concurrently, then each
    tenant alone (same server shape table), and compare per-tenant
    results exactly — under both executor policies."""
    specs, iterations, policy = case
    config = ServiceConfig(policy=policy)
    concurrent = run_fleet(specs, iterations, config)
    assert concurrent.ok
    # Oracle: each tenant runs in its own single-tenant service.  The
    # shape table (one vector per tenant index) is identical, so bind
    # signatures, schedules and transfers match the concurrent run's.
    for i, spec in enumerate(specs):
        def solo(ctx, i=i, spec=spec):
            fleet = [TenantSpec("solo", tenant_body(i, spec, iterations))]
            return run_service_gateway(ctx, "server", fleet, config)

        sizes = [s.n for s in specs]

        def server(ctx):
            return serve_service(
                ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config
            )

        res = run_programs(
            [ProgramSpec("gateway", 2, solo), ProgramSpec("server", 2, server)]
        )
        report = res["gateway"].values[0]
        assert report.ok
        want_totals, want_final = report.tenants[0].result
        got_totals, got_final = concurrent.tenants[i].result
        assert got_totals == want_totals
        np.testing.assert_array_equal(got_final, want_final)


@given(case=fleet_case())
@settings(max_examples=8, deadline=None)
def test_analytic_oracle_every_policy(case):
    """Cheap closed-form oracle: with per-tenant vectors, every observed
    total equals the tenant's own fill sum, and pull restores it."""
    specs, iterations, policy = case
    report = run_fleet(specs, iterations, ServiceConfig(policy=policy))
    assert report.ok
    for i, spec in enumerate(specs):
        values = spec.global_values()
        totals, final = report.tenants[i].result
        # Distributed summation order differs from numpy's pairwise sum
        # in the last ulp; the moved *elements* stay bit-exact.
        np.testing.assert_allclose(
            totals, [values.sum()] * iterations, rtol=1e-12
        )
        np.testing.assert_array_equal(final, values)
    assert isinstance(ExecutorPolicy.coerce(policy), ExecutorPolicy)


@given(
    seed=st.integers(0, 1000),
    rate=st.floats(0.02, 0.10),
    policy=st.sampled_from(["ordered", "overlap"]),
)
@settings(max_examples=6, deadline=None)
def test_chaotic_transport_with_reliability(seed, rate, policy):
    """<=10% drop/dup/reorder/delay on the data channels: the reliability
    layer must deliver bit-identical results for every tenant."""
    specs = [
        ArraySpec("blockparti", 16, fill=("value", 2.0)),
        ArraySpec("hpf", 20, fill=("arange",)),
        ArraySpec("chaos", 12, fill=("rng", seed), owners=("stride", 3)),
    ]
    config = ServiceConfig(policy=policy, reliability=True)
    plan = FaultPlan(
        seed=seed,
        rates=FaultRates(drop=rate, dup=rate, reorder=rate, delay=rate),
    )
    report = run_fleet(specs, 2, config, fault_plan=plan)
    assert report.ok
    for i, spec in enumerate(specs):
        values = spec.global_values()
        totals, final = report.tenants[i].result
        np.testing.assert_allclose(totals, [values.sum()] * 2, rtol=1e-12)
        np.testing.assert_array_equal(final, values)


def test_pinned_seed_139_overlap_fence_releases_every_channel_first():
    """Pinned falsifying example of the property above (it deadlocked).

    Under OVERLAP a server completes its receives in arrival order, so
    it needs *both* gateways' packets before it acks either.  Each
    gateway's ``Reliability.fence`` released a held packet only when it
    reached that channel — after blocking on the previous channel's ack
    — so two gateways each holding one back, each awaiting the other
    server's ack, waited out the receive timeout.  The fence now releases
    every unacked channel before its first blocking wait.
    """
    test_chaotic_transport_with_reliability.hypothesis.inner_test(
        seed=139, rate=0.0625, policy="overlap")
