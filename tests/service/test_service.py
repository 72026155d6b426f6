"""End-to-end tests of the multi-tenant coupling service.

Each test runs a two-program topology (gateway + server) under the
simulated VM: tenants are asyncio tasks on the gateway's rank 0, arrays
are distributed over the gateway ranks, and the server serves
:class:`~repro.service.ParallelObject` exports through batched
rounds with shared caches.
"""

import asyncio

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
from repro.vmachine import ProgramSpec, run_programs

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
        # The server's mirror cache agrees (negotiated coherently).
        assert summary["schedule_misses"] == 1
        assert summary["schedule_hits"] == 7
        # The per-round piggyback is charged 16 B per entry on the logical
        # clock (BatchReply.nbytes): its size is part of the model.
        assert len(report.server_counters) == 12

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
            # The session (and the negotiation channel) survive: a real
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
        """Regression: a within-round dedup'd bind whose schedule was
        evicted by a later store in the same round must trigger the
        symmetric fallback rebuild, not a protocol error."""
        report, summary = run_service_demo(
            tenants=6, shapes=3, iterations=1, size=N,
            schedule_cache_size=2,
        )[0:2]
        assert report.ok
        assert summary["bindings_live"] == 0
        assert stores and all(c.validate() == [] for c in stores)
