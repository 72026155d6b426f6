"""End-to-end tests of the multi-tenant coupling service.

Each test runs a two-program topology (gateway + server) under the
simulated VM: tenants are asyncio tasks on the gateway's rank 0, arrays
are distributed over the gateway ranks, and the server serves
:class:`~repro.service.ParallelObject` exports through batched
rounds with shared caches.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.apps.service_demo import DemoVectors, run_service_demo
from repro.service import (
    ArraySpec,
    RemoteServiceError,
    ServiceBusyError,
    ServiceCache,
    ServiceConfig,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.service.rounds import ProtocolError
from repro.vmachine import ProgramSpec, SPMDError, run_programs
from repro.vmachine.faults import FaultPlan, FaultRates

N = 24


def run_fleet(tenants, config=None, sizes=(N,), gateway_procs=2,
              server_procs=3):
    """Run a custom tenant fleet against a DemoVectors server; returns
    (ServiceReport, server summary, CoupledResult)."""
    config = config or ServiceConfig()

    def gateway(ctx):
        return run_service_gateway(ctx, "server", tenants, config)

    def server(ctx):
        return serve_service(
            ctx, "gateway", {"vec": DemoVectors(ctx.comm, list(sizes))},
            config,
        )

    res = run_programs(
        [ProgramSpec("gateway", gateway_procs, gateway),
         ProgramSpec("server", server_procs, server)]
    )
    return res["gateway"].values[0], res["server"].values[0], res


class TestRoundtrips:
    @pytest.mark.parametrize("policy", ["ordered", "overlap"])
    def test_independent_tenants_roundtrip(self, policy):
        """Each tenant owns a distinct server vector: push, server-side
        compute, pull, gather — all values exact."""
        report, summary = run_service_demo(
            tenants=4, shapes=4, iterations=2, policy=policy, size=N,
        )[0:2]
        assert report.ok
        for i, t in enumerate(report.tenants):
            size = N + 8 * (i % 4)
            fill = float(i % 7 + 1)
            assert t.result == pytest.approx(size * fill)
        assert summary["ops_served"] > 0

    def test_push_scale_pull_gather(self):
        """Bulk data is element-exact through push -> scale -> pull."""

        async def body(session):
            await session.create_array(
                "x", ArraySpec("blockparti", N, fill=("arange",))
            )
            b = await session.bind("vec", "v0", "x")
            await session.push(b)
            await session.call("vec", "scale", "v0", 3.0)
            await session.pull(b)
            g = await session.gather("x")
            await session.close()
            return g

        report, _, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        np.testing.assert_allclose(
            report.tenants[0].result, np.arange(N, dtype=float) * 3.0
        )

    def test_reliability_roundtrip(self):
        report, _ = run_service_demo(
            tenants=3, shapes=3, iterations=1, reliability=True, size=N,
        )[0:2]
        assert report.ok


@pytest.fixture
def stores(monkeypatch):
    """Every ``ServiceCache`` the run under test creates (one per rank of
    each program), for checking the store's invariant after the run."""
    made = []
    init = ServiceCache.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ServiceCache, "__init__", recording_init)
    return made


class TestSharedCaches:
    def test_one_build_serves_every_tenant(self):
        """Tenants with identical array signatures share one collective
        schedule build — the tentpole's economics."""
        report, summary = run_service_demo(
            tenants=8, shapes=1, iterations=1, size=N,
        )[0:2]
        assert report.ok
        assert report.cache["schedule_misses"] == 1
        assert report.cache["schedule_hits"] == 7
        # The server's store is a replica: it agrees without being told.
        assert summary["schedule_misses"] == 1
        assert summary["schedule_hits"] == 7

    def test_distinct_signatures_build_separately(self):
        report, _ = run_service_demo(
            tenants=8, shapes=4, iterations=1, size=N,
        )[0:2]
        assert report.ok
        assert report.cache["schedule_misses"] == 4
        assert report.cache["schedule_hits"] == 4

    def test_fused_plans_cached_across_rounds(self):
        """Iterating tenants reuse the fused per-round plan."""
        report, _ = run_service_demo(
            tenants=4, shapes=1, iterations=3, size=N,
        )[0:2]
        assert report.ok
        assert report.cache["plan_hits"] > 0
        # Lowered move programs are shared through the cached schedule.
        assert report.cache["halves_lowered"] <= report.cache["halves"]

    def test_bounded_cache_evicts_and_still_correct(self, stores):
        report, _ = run_service_demo(
            tenants=6, shapes=3, iterations=2, size=N,
            schedule_cache_size=2, plan_cache_size=2,
        )[0:2]
        assert report.ok
        assert report.cache["schedule_evictions"] > 0
        # Bindings outlive their evicted schedules here, so rounds fuse
        # non-resident members: compiled, never cached (validate() == []
        # on both programs' stores).
        assert report.cache["plan_uncached"] > 0
        assert stores and all(c.validate() == [] for c in stores)


def _chaos_fleet():
    """The chaos + reliability fleet of the service property tests."""
    from property.test_property_service import run_fleet as property_fleet

    specs = [
        ArraySpec("blockparti", 16, fill=("value", 2.0)),
        ArraySpec("hpf", 20, fill=("arange",)),
        ArraySpec("chaos", 12, fill=("rng", 7), owners=("stride", 3)),
    ]
    rates = FaultRates(drop=0.08, dup=0.08, reorder=0.08, delay=0.08)
    report = property_fleet(
        specs, 2, ServiceConfig(policy="overlap", reliability=True),
        fault_plan=FaultPlan(seed=7, rates=rates), server_procs=3,
    )
    return report, None


REPLICA_SCENARIOS = {
    "shapes1": lambda: run_service_demo(
        tenants=8, shapes=1, iterations=1, size=N),
    "evicting": lambda: run_service_demo(
        tenants=6, shapes=3, iterations=2, size=N,
        schedule_cache_size=2, plan_cache_size=2),
    "duplicate-binds": lambda: run_service_demo(
        tenants=6, shapes=3, iterations=1, size=N, schedule_cache_size=2),
    "overlap": lambda: run_service_demo(
        tenants=6, shapes=3, iterations=2, size=N, policy="overlap",
        schedule_cache_size=3, plan_cache_size=1),
    "chaos-reliability": _chaos_fleet,
}


class TestReplicas:
    @pytest.mark.parametrize("scenario", sorted(REPLICA_SCENARIOS))
    def test_every_store_of_both_programs_is_one_replica(self, stores, scenario):
        """Binds resolve plainly on both programs and no store state rides
        the wire, yet every rank of both programs (2 gateway + 3 server)
        ends with the same counters and the same key order — so the
        gateway's own report is the server's too."""
        report, summary = REPLICA_SCENARIOS[scenario]()[0:2]
        assert report.ok
        assert len(stores) == 5

        def replica(store):
            return store.snapshot(), list(store._schedules), list(store._plans)

        first = replica(stores[0])
        assert all(replica(store) == first for store in stores[1:])
        snapshot = first[0]
        assert {k: report.cache[k] for k in snapshot} == snapshot
        if summary is not None:
            assert {k: summary[k] for k in snapshot} == snapshot
            assert summary["slot_high_water"] == report.slot_high_water
            assert summary["bindings_live"] == 0
        if scenario == "evicting":
            assert snapshot["schedule_evictions"] > 0


class TestBackpressure:
    def test_inflight_cap_sheds_and_tenant_survives(self):
        shed_seen = []

        def make(name):
            async def body(session):
                import asyncio

                async def one(i):
                    try:
                        return await session.call("vec", "total", "v0")
                    except ServiceBusyError:
                        shed_seen.append(name)
                        return None
                results = await asyncio.gather(*(one(i) for i in range(6)))
                await session.close()
                return sum(1 for r in results if r is not None)

            return TenantSpec(name, body)

        config = ServiceConfig(max_inflight_per_tenant=2)
        report, _, _ = run_fleet([make("t0"), make("t1")], config)
        assert report.ok
        total_shed = sum(t.ops_shed for t in report.tenants)
        assert total_shed > 0
        assert total_shed == len(shed_seen)
        # Every admitted op resolved: nothing wedged, nothing lost.
        for t in report.tenants:
            assert t.ops_ok == 6 - t.ops_shed

    def test_queue_watermark_bounds_depth(self):
        async def body(session):
            t = await session.call("vec", "total", "v0")
            await session.close()
            return t

        config = ServiceConfig(max_queue_depth=2)
        tenants = [TenantSpec(f"t{i}", body) for i in range(6)]
        report, _, _ = run_fleet(tenants, config)
        # Sheds raise in tenants that never retried -> those fail; the
        # watermark itself must never be exceeded.
        assert report.admission["queue_high_water"] <= 2
        shed = report.admission["shed_queue_full"]
        failed = [t for t in report.tenants if not t.ok]
        assert all("busy" in t.error for t in failed)
        assert (shed > 0) == bool(failed)
        # No tenant wedged: every task finished, every future resolved.
        assert len(report.tenants) == 6

    def test_all_admitted_when_under_limits(self):
        report, _ = run_service_demo(tenants=4, shapes=1, size=N)[0:2]
        assert report.ok
        assert report.admission["shed_queue_full"] == 0
        assert report.admission["shed_tenant_cap"] == 0


class TestLifecycle:
    def test_failing_tenant_evicted_others_unaffected(self):
        async def good(session):
            await session.create_array(
                "x", ArraySpec("blockparti", N, fill=("value", 2.0))
            )
            b = await session.bind("vec", "v0", "x")
            await session.push(b)
            t = await session.call("vec", "total", "v0")
            await session.close()
            return t

        async def bad(session):
            await session.create_array(
                "x", ArraySpec("blockparti", N, fill=("value", 9.0))
            )
            await session.bind("vec", "v0", "x")
            raise RuntimeError("tenant blew up")

        report, summary, res = run_fleet(
            [TenantSpec("good", good), TenantSpec("bad", bad)]
        )
        assert not report.ok
        assert report.tenant("good").ok
        assert report.tenant("good").result == pytest.approx(2.0 * N)
        assert "tenant blew up" in report.tenant("bad").error
        # The dead tenant's binding slot was reclaimed on the server.
        assert summary["bindings_live"] == 0
        assert res["gateway"].total_stat("svc_tenants_evicted") == 1

    def test_unbind_frees_slots_for_reuse(self):
        async def body(session):
            await session.create_array(
                "x", ArraySpec("blockparti", N)
            )
            slots = []
            for _ in range(4):
                b = await session.bind("vec", "v0", "x")
                slots.append(b.slot)
                await session.unbind(b)
            await session.close()
            return tuple(slots)

        report, summary, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        # Sequential bind/unbind cycles reuse one slot.
        assert report.tenants[0].result == (0, 0, 0, 0)
        assert summary["slot_high_water"] == 1

    def test_close_without_unbind_reclaims(self):
        async def body(session):
            await session.create_array("x", ArraySpec("blockparti", N))
            await session.bind("vec", "v0", "x")
            await session.close()  # disconnect releases the slot
            return True

        report, summary, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        assert summary["bindings_live"] == 0

    def test_forgotten_close_auto_reclaims(self):
        async def body(session):
            await session.create_array("x", ArraySpec("blockparti", N))
            await session.bind("vec", "v0", "x")
            return True  # no close(): the dispatcher cleans up

        report, summary, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        assert summary["bindings_live"] == 0

    def test_ops_after_close_raise(self):
        async def body(session):
            await session.close()
            try:
                await session.call("vec", "total", "v0")
            except Exception as exc:
                return type(exc).__name__
            return "no error"

        report, _, _ = run_fleet([TenantSpec("t0", body)])
        assert report.tenants[0].result == "SessionClosedError"


class TestErrors:
    def test_bind_unknown_attr_fails_cleanly(self):
        async def body(session):
            await session.create_array("x", ArraySpec("blockparti", N))
            try:
                await session.bind("vec", "nope", "x")
            except RemoteServiceError as exc:
                err = str(exc)
            else:
                err = "bound?!"
            # The session (and the grant channel) survive: a real
            # bind plus a transfer still work afterwards.
            b = await session.bind("vec", "v0", "x")
            await session.push(b)
            t = await session.call("vec", "total", "v0")
            await session.close()
            return (err, t)

        report, _, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        err, t = report.tenants[0].result
        assert "KeyError" in err
        assert t == pytest.approx(0.0)

    def test_call_error_propagates_oneway_does_not(self):
        async def body(session):
            try:
                await session.call("vec", "no_such_method")
            except RemoteServiceError as exc:
                err = str(exc)
            await session.call_oneway("vec", "no_such_method")  # silent
            t = await session.call("vec", "total", "v0")
            await session.close()
            return (err, t)

        report, _, res = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        err, t = report.tenants[0].result
        assert "no remote method" in err
        assert t == 0.0
        assert res["server"].total_stat("svc_oneway_errors") > 0

    def test_unknown_object_reported(self):
        async def body(session):
            try:
                await session.call("ghost", "total")
            except RemoteServiceError as exc:
                return str(exc)
            finally:
                await session.close()

        report, _, _ = run_fleet([TenantSpec("t0", body)])
        assert "no object" in report.tenants[0].result


class TestTenantIsolation:
    def test_foreign_binding_is_refused_and_left_intact(self):
        """A binding belongs to the tenant that bound it: another
        tenant's move or unbind on its slot is refused (on the server)
        and skipped (on the gateway) from the same replicated owner
        check, so A's data and slot are untouched."""
        shared = {}
        bound, attacked = asyncio.Event(), asyncio.Event()

        async def owner(session):
            await session.create_array(
                "x", ArraySpec("blockparti", N, fill=("arange",))
            )
            shared["binding"] = await session.bind("vec", "v0", "x")
            bound.set()
            await attacked.wait()
            untouched = await session.gather("x")
            await session.push(shared["binding"])  # still live, still A's
            total = await session.call("vec", "total", "v0")
            await session.unbind(shared["binding"])
            await session.close()
            return untouched, total

        async def intruder(session):
            await bound.wait()
            errors = []
            for attack in (session.pull, session.unbind):
                try:
                    # pull would overwrite A's x with the server's zeros
                    await attack(shared["binding"])
                except RemoteServiceError as exc:
                    errors.append(str(exc))
            attacked.set()
            await session.close()
            return errors

        report, summary, _ = run_fleet(
            [TenantSpec("a", owner), TenantSpec("b", intruder)]
        )
        assert report.ok
        errors = report.tenant("b").result
        assert len(errors) == 2
        assert all("belongs to another tenant" in e for e in errors)
        untouched, total = report.tenant("a").result
        np.testing.assert_array_equal(untouched, np.arange(N, dtype=float))
        assert total == pytest.approx(np.arange(N).sum())
        assert summary["bindings_live"] == 0


class TestOnewayRounds:
    def test_all_oneway_round_gets_no_batch_reply(self):
        """A round whose server-visible ops are all oneway calls is one
        message out and none back: the gateway's rank 0 receives nothing
        across it, and the next round's reply still pairs up."""

        async def body(session):
            metrics = session._core.state.proc.metrics
            await session.create_array("x", ArraySpec("blockparti", N))
            received = [metrics.get("messages_received")]
            await session.call_oneway("vec", "scale", "v0", 2.0)
            received.append(metrics.get("messages_received"))
            total = await session.call("vec", "total", "v0")
            received.append(metrics.get("messages_received"))
            await session.close()
            return received, total

        report, _, _ = run_fleet([TenantSpec("t0", body)])
        assert report.ok
        (before, after_oneway, after_call), total = report.tenants[0].result
        assert after_oneway == before
        assert after_call == before + 1
        assert total == 0.0


class TestBatching:
    def test_concurrent_tenants_batch_into_few_rounds(self):
        """8 tenants' identical op streams coalesce: far fewer rounds
        than total ops, and fused moves on the wire."""
        from repro.apps.service_demo import demo_tenant

        fleet = [
            TenantSpec(f"t{i}", demo_tenant("v0", N, 1, float(i + 1)))
            for i in range(8)
        ]
        report, _, res = run_fleet(fleet)
        assert report.ok
        total_ops = sum(t.ops_ok for t in report.tenants)
        assert report.rounds < total_ops / 2
        assert res["gateway"].total_stat("plan_fused_messages") > 0

    def test_small_cache_with_duplicate_binds_in_one_round(self, stores):
        """Regression: a duplicate bind in one round whose schedule a
        later store in the same round evicted is an ordinary miss on both
        programs — one symmetric rebuild, not a protocol error."""
        report, summary = run_service_demo(
            tenants=6, shapes=3, iterations=1, size=N,
            schedule_cache_size=2,
        )[0:2]
        assert report.ok
        assert summary["bindings_live"] == 0
        assert stores and all(c.validate() == [] for c in stores)


class TestConfigFingerprint:
    def test_different_store_sizes_fail_the_first_round(self):
        """Regression: a gateway store of one entry against an unbounded
        server store, binds A then [B, A] in one round.  The stores could
        not stay replicas, so the server refuses the gateway's first
        batch — at once, naming both fingerprints — instead of the
        gateway stranding a one-sided schedule build for the whole
        receive time-out and blaming the server as lost."""
        bound = asyncio.Event()

        def tenant(attr, first):
            async def body(session):
                await session.create_array("x", ArraySpec("blockparti", N))
                if not first:
                    await bound.wait()
                await session.bind("vec", attr, "x")
                bound.set()
                await session.close()
            return body

        # After A, the waiters' binds cycle B, A, B, A: whichever session
        # the round's fairness rotation starts at, a B precedes an A.
        fleet = [TenantSpec("a", tenant("v0", True))] + [
            TenantSpec(f"{attr}{i}", tenant(attr, False))
            for i in range(2) for attr in ("v1", "v0")]
        gateway_config = ServiceConfig(schedule_cache_size=1)
        server_config = ServiceConfig()

        def gateway(ctx):
            return run_service_gateway(ctx, "server", fleet, gateway_config)

        def server(ctx):
            return serve_service(
                ctx, "gateway", {"vec": DemoVectors(ctx.comm, [N, N])},
                server_config,
            )

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as info:
            run_programs([ProgramSpec("gateway", 2, gateway),
                          ProgramSpec("server", 3, server)],
                         recv_timeout_s=60.0)
        assert time.monotonic() - t0 < 5.0
        (cause,) = info.value.root_causes
        assert isinstance(cause.exception, ProtocolError)
        text = str(cause.exception)
        assert str(gateway_config.fingerprint()) in text
        assert str(server_config.fingerprint()) in text


class SlowVectors(DemoVectors):
    def stall(self, seconds):
        time.sleep(seconds)
        return seconds


class TestTimeouts:
    def test_a_service_time_out_names_the_budget_that_bounded_it(self):
        """The server stalls past the receive time-out: the gateway's
        peer-lost report and the server's own name the real budget (the
        process receive time-out), never an unset deadline."""

        async def body(session):
            await session.call("vec", "stall", 1.0)

        def gateway(ctx):
            return run_service_gateway(ctx, "server", [TenantSpec("t", body)])

        def server(ctx):
            return serve_service(ctx, "gateway",
                                 {"vec": SlowVectors(ctx.comm, [N])})

        # The stalled call's reply is never received: no leak check.
        res = run_programs([ProgramSpec("gateway", 1, gateway),
                            ProgramSpec("server", 1, server)],
                           recv_timeout_s=0.5, check_leaks=False)
        report, summary = res["gateway"].values[0], res["server"].values[0]
        assert not report.ok
        for text in (report.peer_lost, report.tenants[0].error,
                     summary["peer_lost"]):
            assert "timed out after 0.5s" in text
            assert "None" not in text
        assert "round reply" in report.peer_lost
