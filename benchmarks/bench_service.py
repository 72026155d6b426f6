"""Benchmark: the high-throughput multi-tenant coupling service.

Measures the three claims the service makes:

``cold vs warm binds``
    One session binds K distinct permutation-region signatures twice.
    The first pass pays the collective schedule build per bind (real
    per-element index work on a 40k-element permutation); the second
    pass hits the shared schedule cache on both programs and skips the
    build entirely.  Expectation: warm p50 bind latency >=5x lower.

``throughput vs tenant count``
    Fleets of 16 / 128 / 1024 concurrent demo tenants (8 shape
    classes, so the shared cache serves all but the first binder of
    each class) against one server group.  Prints wall-clock
    throughput and p50/p99 per-op latency; records the deterministic
    logical clock, round counts, and the cache counters proving
    cross-tenant sharing.

``overload``
    256 retrying tenants against a queue-depth watermark of 64: sheds
    stay bounded, the queue never exceeds the watermark, and *every*
    session completes — zero wedged.

Wall-clock measurements are printed and feed the shape checks but are
never written: ``BENCH_service.json`` at the repo root holds logical
clocks and counts only, and ``python check.py bench`` requires a re-run
to reproduce it byte for byte.  ``--smoke`` (or ``BENCH_SMOKE=1``) runs
a reduced matrix, asserts the same invariants and writes nothing.
"""

import asyncio
import os
import sys
import time

import numpy as np

from common import check_shape, print_header, write_trajectory
from repro.apps.service_demo import DemoVectors, demo_tenant, run_service_demo
from repro.service import (
    ArraySpec,
    ServiceBusyError,
    ServiceConfig,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.vmachine import ProgramSpec, run_programs

SMOKE = "--smoke" in sys.argv or os.environ.get("BENCH_SMOKE") == "1"
TENANT_COUNTS = (8, 32) if SMOKE else (16, 128, 1024)
PROBE_N = 8_000 if SMOKE else 40_000
PROBE_K = 4 if SMOKE else 6
OVERLOAD_TENANTS = 48 if SMOKE else 256
OVERLOAD_QUEUE = 16 if SMOKE else 64


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# Cold vs warm bind latency
# ---------------------------------------------------------------------------


def run_cold_warm():
    """One session, PROBE_K permutation signatures, two bind passes."""
    sizes = [PROBE_N] * PROBE_K

    async def body(session):
        for i in range(PROBE_K):
            await session.create_array(
                f"x{i}",
                ArraySpec("chaos", PROBE_N, region=("perm", i),
                          owners=("rng", i)),
            )
        cold, warm = [], []
        for times in (cold, warm):
            for i in range(PROBE_K):
                t0 = time.perf_counter()
                binding = await session.bind("vec", f"v{i}", f"x{i}")
                times.append(time.perf_counter() - t0)
                await session.unbind(binding)
        await session.close()
        return cold, warm

    config = ServiceConfig()

    def gateway(ctx):
        return run_service_gateway(
            ctx, "server", [TenantSpec("probe", body)], config
        )

    def server(ctx):
        return serve_service(
            ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config
        )

    res = run_programs(
        [ProgramSpec("gateway", 2, gateway), ProgramSpec("server", 2, server)]
    )
    report = res["gateway"].values[0]
    assert report.ok, report.tenants[0].error
    cold, warm = report.tenants[0].result
    out = {
        "signatures": PROBE_K,
        "elements": PROBE_N,
        "schedule_hits": report.cache["schedule_hits"],
        "schedule_misses": report.cache["schedule_misses"],
    }
    cold_p50, warm_p50 = percentile(cold, 50), percentile(warm, 50)
    speedup = cold_p50 / warm_p50
    print(
        f"  cold p50 {cold_p50 * 1e3:8.2f} ms   "
        f"warm p50 {warm_p50 * 1e3:8.2f} ms   "
        f"({speedup:.1f}x)"
    )
    check_shape(
        speedup >= 5.0,
        f"warm bind p50 >=5x lower than cold ({speedup:.1f}x)",
    )
    check_shape(
        out["schedule_misses"] == PROBE_K
        and out["schedule_hits"] == PROBE_K,
        "second pass served entirely from the shared schedule cache",
    )
    return out


# ---------------------------------------------------------------------------
# Throughput vs tenant count
# ---------------------------------------------------------------------------


def run_throughput(tenants: int):
    shapes = min(8, tenants)
    t0 = time.perf_counter()
    report, summary, res = run_service_demo(
        tenants=tenants,
        shapes=shapes,
        size=64,
        iterations=1,
        max_queue_depth=max(1024, tenants),
    )
    wall_s = time.perf_counter() - t0
    assert report.ok, [t.error for t in report.tenants if not t.ok][:3]
    latencies = [lat for t in report.tenants for lat in t.latencies]
    total_ops = sum(t.ops_ok for t in report.tenants)
    out = {
        "tenants": tenants,
        "shapes": shapes,
        "ops": total_ops,
        "rounds": report.rounds,
        # deterministic logical clock
        "elapsed_ms": res["gateway"].elapsed_ms,
        "schedule_hits": report.cache["schedule_hits"],
        "schedule_misses": report.cache["schedule_misses"],
        "plan_hits": report.cache["plan_hits"],
        "shed": report.admission["shed_queue_full"]
        + report.admission["shed_tenant_cap"],
        "slot_high_water": report.slot_high_water,
        "ops_served": summary["ops_served"],
    }
    print(
        f"  {tenants:>5} tenants: {total_ops / wall_s:8.0f} ops/s  "
        f"p50 {percentile(latencies, 50) * 1e3:7.2f} ms  "
        f"p99 {percentile(latencies, 99) * 1e3:7.2f} ms  "
        f"rounds {out['rounds']:>4}  "
        f"cache {out['schedule_hits']}/{out['schedule_hits'] + out['schedule_misses']}"
    )
    check_shape(
        out["schedule_misses"] == shapes,
        f"{tenants} tenants built exactly {shapes} schedules "
        f"(got {out['schedule_misses']})",
    )
    check_shape(
        out["rounds"] < total_ops,
        f"{tenants} tenants: rounds ({out['rounds']}) fused below total "
        f"ops ({total_ops})",
    )
    return out


# ---------------------------------------------------------------------------
# Overload: bounded shed, zero wedged
# ---------------------------------------------------------------------------


def retrying_tenant(shape_attr, size, fill):
    """demo_tenant with a retry-on-busy loop around every op."""

    async def body(session):
        retries = 0

        async def retry(op, *args):
            nonlocal retries
            while True:
                try:
                    return await op(*args)
                except ServiceBusyError:
                    retries += 1
                    await asyncio.sleep(0)

        await retry(
            session.create_array, "x",
            ArraySpec("blockparti", size, fill=("value", fill)),
        )
        binding = await retry(session.bind, "vec", shape_attr, "x")
        await retry(session.push, binding)
        total = await retry(session.call, "vec", "total", shape_attr)
        await retry(session.pull, binding)
        await session.close()
        return total, retries

    return body


def run_overload():
    shapes = 4
    sizes = [64 + 8 * i for i in range(shapes)]
    config = ServiceConfig(max_queue_depth=OVERLOAD_QUEUE)

    def gateway(ctx):
        fleet = [
            TenantSpec(
                f"t{i}",
                retrying_tenant(f"v{i % shapes}", sizes[i % shapes],
                                float(i % 7 + 1)),
            )
            for i in range(OVERLOAD_TENANTS)
        ]
        return run_service_gateway(ctx, "server", fleet, config)

    def server(ctx):
        return serve_service(
            ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config
        )

    res = run_programs(
        [ProgramSpec("gateway", 2, gateway), ProgramSpec("server", 2, server)]
    )
    report = res["gateway"].values[0]
    retries = sum(t.result[1] for t in report.tenants if t.result)
    out = {
        "tenants": OVERLOAD_TENANTS,
        "queue_watermark": OVERLOAD_QUEUE,
        "completed": sum(1 for t in report.tenants if t.ok),
        "shed": report.admission["shed_queue_full"]
        + report.admission["shed_tenant_cap"],
        "retries": retries,
        "queue_high_water": report.admission["queue_high_water"],
        "rounds": report.rounds,
    }
    print(
        f"  {OVERLOAD_TENANTS} tenants / watermark {OVERLOAD_QUEUE}: "
        f"{out['completed']} completed, {out['shed']} shed, "
        f"queue high water {out['queue_high_water']}"
    )
    check_shape(
        out["completed"] == OVERLOAD_TENANTS,
        f"zero wedged sessions ({out['completed']}/{OVERLOAD_TENANTS} "
        "completed under overload)",
    )
    check_shape(
        out["shed"] > 0,
        f"backpressure engaged ({out['shed']} submissions shed)",
    )
    # Admitted ops never exceed the watermark; system lifecycle ops
    # (session closes) bypass admission by design, so one completing
    # wave can stack at most another watermark's worth on top.
    check_shape(
        out["queue_high_water"] <= 2 * OVERLOAD_QUEUE,
        f"queue depth bounded by watermark + one close wave "
        f"(high water {out['queue_high_water']} <= {2 * OVERLOAD_QUEUE})",
    )
    return out


# ---------------------------------------------------------------------------


def run_bench():
    print_header(
        "Multi-tenant coupling service: shared caches, batching, "
        f"backpressure{' (smoke)' if SMOKE else ''}"
    )
    results = {}

    print("cold vs warm bind latency "
          f"({PROBE_K} x {PROBE_N}-element permutation signatures)")
    results["cold_warm"] = run_cold_warm()

    print("throughput vs tenant count (8 shape classes, shared caches)")
    for tenants in TENANT_COUNTS:
        results[f"tenants_{tenants}"] = run_throughput(tenants)

    print("overload (retrying tenants vs queue-depth watermark)")
    results["overload"] = run_overload()

    if SMOKE:
        # Smoke runs assert the invariants but never overwrite the
        # committed full-matrix trajectory files.
        return results

    write_trajectory(
        "service",
        "multi_tenant_coupling_service",
        {
            "tenant_counts": list(TENANT_COUNTS),
            "pattern": "demo fleet: create/bind/push/total/pull per tenant, "
                       "8 shape classes sharing one schedule cache; "
                       "cold/warm probe binds permutation-region "
                       "signatures twice; overload fleet retries on busy",
        },
        results,
    )
    return results


def test_bench_service(benchmark):
    benchmark.pedantic(run_bench, rounds=1, iterations=1)


if __name__ == "__main__":
    run_bench()
