#!/usr/bin/env python3
"""Adaptive repartitioning of an irregular computation (Chaos heritage).

Chaos's companion line of work ("runtime and language support for
compiling adaptive irregular programs") repartitions data as the
computation evolves.  This example demonstrates the machinery this
repository provides for it:

1. an unstructured edge sweep starts from a deliberately *bad* (random)
   partition of the node arrays;
2. after a few time-steps the program repartitions the nodes with RCB,
   using :func:`repro.chaos.remap.remap` to redistribute both node arrays
   (one reusable remap schedule each);
3. the edge sweep's inspector is re-run against the new distribution and
   the time-step loop continues — visibly cheaper per iteration.

The modelled times printed show the trade the paper's ecosystem lived by:
a one-time redistribution + re-inspection cost buys a permanently cheaper
executor.

Run:  python examples/adaptive_remesh.py
"""

import numpy as np

from repro.apps.meshes import delaunay_mesh
from repro.chaos import (
    ChaosArray,
    EdgeSweep,
    build_remap_schedule,
    random_owners,
    rcb_owners,
    remap,
)
from repro.vmachine import VirtualMachine

NPOINTS = 4096
STEPS_BEFORE = 3
STEPS_AFTER = 3

MESH = delaunay_mesh(NPOINTS, seed=13)
X0 = np.random.default_rng(4).random(NPOINTS)


def spmd(comm):
    proc = comm.process

    # Phase 1: a careless initial partition.
    bad = random_owners(NPOINTS, comm.size, seed=5)
    x = ChaosArray.from_global(comm, X0, bad)
    y = ChaosArray.like(x)
    mine = np.flatnonzero(bad[MESH.ia] == comm.rank)
    with proc.span("inspector-bad"):
        sweep = EdgeSweep(x, MESH.ia[mine], MESH.ib[mine])
    with proc.span("executor-bad"):
        for _ in range(STEPS_BEFORE):
            y.local[:] = 0.0
            sweep.execute(x, y)
            x.local[:] = 0.5 * x.local + 0.5 * y.local

    # Phase 2: repartition with RCB and remap both node arrays.
    good = rcb_owners(MESH.coords, comm.size)
    with proc.span("remap"):
        sched, table = build_remap_schedule(x, good)
        x = remap(x, good, sched, table)
        y = remap(y, good, sched, table)
    mine = np.flatnonzero(good[MESH.ia] == comm.rank)
    with proc.span("inspector-good"):
        sweep = EdgeSweep(x, MESH.ia[mine], MESH.ib[mine])
    with proc.span("executor-good"):
        for _ in range(STEPS_AFTER):
            y.local[:] = 0.0
            sweep.execute(x, y)
            x.local[:] = 0.5 * x.local + 0.5 * y.local

    checksum = comm.allreduce(float(x.local.sum()), lambda a, b: a + b)
    return checksum


def oracle():
    x = X0.copy()
    for _ in range(STEPS_BEFORE + STEPS_AFTER):
        y = np.zeros_like(x)
        flux = (x[MESH.ia] + x[MESH.ib]) / 4.0
        np.add.at(y, MESH.ia, flux)
        np.add.at(y, MESH.ib, flux)
        x = 0.5 * x + 0.5 * y
    return x.sum()


def main():
    for nprocs in (4, 8):
        result = VirtualMachine(nprocs).run(spmd)
        assert np.isclose(result.values[0], oracle()), "remap changed the physics!"
        bad = result.span_ms("executor-bad") / STEPS_BEFORE
        good = result.span_ms("executor-good") / STEPS_AFTER
        remap_cost = result.span_ms("remap") + result.span_ms("inspector-good")
        print(f"-- {nprocs} processors --")
        print(f"   executor per step: {bad:8.2f} ms (random partition) -> "
              f"{good:8.2f} ms (RCB)   [{bad / good:.1f}x faster]")
        breakeven = remap_cost / max(bad - good, 1e-9)
        print(f"   repartition + re-inspection cost {remap_cost:8.2f} ms "
              f"-> pays for itself after {breakeven:.1f} steps")
        assert good < bad, "RCB should beat the random partition"
    print("adaptive remesh example OK (checksums match the sequential oracle)")


if __name__ == "__main__":
    main()
