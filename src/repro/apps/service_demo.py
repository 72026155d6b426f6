"""Synthetic multi-tenant workload for the coupling service.

Shared by ``python -m repro serve`` and ``benchmarks/bench_service.py``:
a demo object server exporting one block-distributed vector per "shape
class", and a fleet of tenant sessions that each create an array, bind,
and run push/compute/pull iterations.  Tenants are assigned to shape
classes round-robin, so the number of *distinct* array signatures — and
therefore the cold/warm behaviour of the shared schedule cache — is a
direct parameter: ``shapes=1`` makes every tenant after the first a warm
cache hit, ``shapes=tenants`` makes every bind a cold collective build.
"""

from __future__ import annotations

from repro.service import (
    ArraySpec,
    ParallelObject,
    ServiceConfig,
    ServiceReport,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.vmachine import ProgramSpec, run_programs

__all__ = ["DemoVectors", "demo_tenant", "run_service_demo"]


class DemoVectors(ParallelObject):
    """Server object: one exported HPF block vector per shape class."""

    def __init__(self, comm, sizes):
        from repro.hpf import HPFArray

        self.comm = comm
        self.vectors = {
            f"v{i}": HPFArray.distribute(comm, (n,), ("block",))
            for i, n in enumerate(sizes)
        }

    def export_array(self, attr):
        from repro.core import SectionRegion, mc_new_set_of_regions
        from repro.distrib.section import Section

        v = self.vectors[attr]  # KeyError -> failed bind, reported
        return (
            "hpf", v,
            mc_new_set_of_regions(SectionRegion(Section.full(v.global_shape))),
        )

    def total(self, attr):
        from repro.hpf import hpf_sum

        return hpf_sum(self.vectors[attr])

    def scale(self, attr, k):
        self.vectors[attr].local *= k
        return k


def demo_tenant(shape_attr: str, size: int, iterations: int, fill: float):
    """One tenant's session body: create, bind, iterate push/pull."""

    async def body(session):
        await session.create_array(
            "x", ArraySpec("blockparti", size, fill=("value", fill))
        )
        binding = await session.bind("vec", shape_attr, "x")
        total = 0.0
        for _ in range(iterations):
            await session.push(binding)
            total = await session.call("vec", "total", shape_attr)
            await session.pull(binding)
        await session.unbind(binding)
        await session.close()
        return total

    return body


def run_service_demo(
    tenants: int = 16,
    gateway_procs: int = 2,
    server_procs: int = 3,
    size: int = 64,
    iterations: int = 2,
    shapes: int = 1,
    policy: str = "ordered",
    reliability: bool = False,
    max_queue_depth: int = 1024,
    max_inflight_per_tenant: int = 8,
    schedule_cache_size: int | None = None,
    plan_cache_size: int | None = None,
    fault_plan=None,
    recorder=None,
) -> tuple[ServiceReport, dict, object]:
    """Run the demo fleet; returns (gateway report, server summary,
    coupled VM result — for metrics and the deterministic logical clock).

    ``shapes`` distinct vector lengths (``size``, ``size+8``, ...) are
    served; tenant *i* uses shape class ``i % shapes``.

    ``recorder`` records the whole fleet's message provenance (see
    :mod:`repro.replay`), making a wedged tenant session inspectable
    after the fact.  Caveat: gateway ranks schedule tenant coroutines on
    wall-clock-driven asyncio batching, so they are recordable and
    diffable but not *isolation-replayable*; server ranks are.
    """
    shapes = max(1, min(shapes, tenants))
    sizes = [size + 8 * i for i in range(shapes)]
    config = ServiceConfig(
        max_queue_depth=max_queue_depth,
        max_inflight_per_tenant=max_inflight_per_tenant,
        policy=policy,
        reliability=reliability,
        schedule_cache_size=schedule_cache_size,
        plan_cache_size=plan_cache_size,
    )

    def gateway(ctx):
        fleet = [
            TenantSpec(
                f"tenant{i}",
                demo_tenant(f"v{i % shapes}", sizes[i % shapes],
                            iterations, float(i % 7 + 1)),
            )
            for i in range(tenants)
        ]
        return run_service_gateway(ctx, "server", fleet, config)

    def server(ctx):
        return serve_service(
            ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config
        )

    result = run_programs(
        [
            ProgramSpec("gateway", gateway_procs, gateway),
            ProgramSpec("server", server_procs, server),
        ],
        faults=fault_plan,
        recorder=recorder,
    )
    report = result["gateway"].values[0]
    summary = result["server"].values[0]
    return report, summary, result
