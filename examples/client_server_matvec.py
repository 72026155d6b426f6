#!/usr/bin/env python3
"""Client/server computation engine (§5.4): HPF server, Parti client.

The client builds a matrix and a stream of operand vectors; the HPF
server performs the multiplies.  The client never learns how the server
distributes anything (and vice versa) — Meta-Chaos "provides an analogue
of a Unix pipe" between the two programs.  This example verifies the
numerics end-to-end and shows the amortization the paper highlights: the
schedules and the matrix transfer are paid once, every additional vector
reuses them.

Run:  python examples/client_server_matvec.py
"""

import numpy as np

from repro.blockparti import BlockPartiArray
from repro.core import (
    ScheduleMethod,
    SectionRegion,
    mc_compute_schedule,
    mc_new_set_of_regions,
)
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.distrib.section import Section
from repro.hpf import HPFArray, distributed_matvec
from repro.vmachine import ALPHA_FARM_ATM, ProgramSpec, run_programs

N = 96
NVECTORS = 5


def matrix_entry(i, j):
    return 1.0 / (1.0 + np.abs(i - j))


def client_program(ctx):
    comm = ctx.comm
    proc = comm.process
    M = BlockPartiArray.from_function(comm, (N, N), matrix_entry)
    vec = BlockPartiArray.zeros(comm, (N,))
    result = BlockPartiArray.zeros(comm, (N,))

    universe = coupled_universe(ctx, "server", "src")
    with proc.span("setup"):
        mat_sched = mc_compute_schedule(
            universe,
            "blockparti", M, mc_new_set_of_regions(SectionRegion(Section.full((N, N)))),
            "hpf", None, None,
            ScheduleMethod.COOPERATION,
        )
        vec_sched = mc_compute_schedule(
            universe,
            "blockparti", vec, mc_new_set_of_regions(SectionRegion(Section.full((N,)))),
            "hpf", None, None,
            ScheduleMethod.COOPERATION,
        )
        CoupledExchange(universe, mat_sched).push(M)
    vec_exchange = CoupledExchange(universe, vec_sched)

    errors = []
    for k in range(NVECTORS):
        # Fresh operand: v_k[i] = sin(i + k)
        (lo, hi), = vec.owned_block()
        vec.local[:] = np.sin(np.arange(lo, hi) + float(k))
        with proc.span("per_vector"):
            vec_exchange.push(vec)
            vec_exchange.pull(result)
        # Verify against a locally computed oracle.
        got = result.gather_global()
        if comm.rank == 0:
            ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
            A = matrix_entry(ii, jj)
            v = np.sin(np.arange(N) + float(k))
            errors.append(float(np.abs(got - A @ v).max()))
    if comm.rank == 0:
        worst = max(errors)
        assert worst < 1e-10, f"server result wrong by {worst}"
        print(f"  {NVECTORS} server-side multiplies verified "
              f"(max |error| = {worst:.2e})")
        spent = proc.metrics.span_seconds
        setup = spent["setup"] * 1e3
        per_vec = spent["per_vector"] * 1e3 / NVECTORS
        print(f"  one-time setup (schedules + matrix): {setup:8.2f} ms")
        print(f"  per additional vector:               {per_vec:8.2f} ms")
    return True


def server_program(ctx):
    comm = ctx.comm
    A = HPFArray.distribute(comm, (N, N), ("block", "*"))
    x = HPFArray.distribute(comm, (N,), ("block",))
    y = HPFArray.distribute(comm, (N,), ("block",))
    universe = coupled_universe(ctx, "client", "dst")
    mat_sched = mc_compute_schedule(
        universe,
        "blockparti", None, None,
        "hpf", A, mc_new_set_of_regions(SectionRegion(Section.full((N, N)))),
        ScheduleMethod.COOPERATION,
    )
    vec_sched = mc_compute_schedule(
        universe,
        "blockparti", None, None,
        "hpf", x, mc_new_set_of_regions(SectionRegion(Section.full((N,)))),
        ScheduleMethod.COOPERATION,
    )
    CoupledExchange(universe, mat_sched).push(A)
    vec_exchange = CoupledExchange(universe, vec_sched)
    for _ in range(NVECTORS):
        vec_exchange.push(x)
        distributed_matvec(A, x, y)
        vec_exchange.pull(y)
    return True


def main():
    for nclient, nserver in ((1, 4), (2, 8)):
        print(f"-- client={nclient} proc(s), server={nserver} procs "
              f"(Alpha-farm/ATM profile) --")
        run_programs(
            [
                ProgramSpec("client", nclient, client_program),
                ProgramSpec("server", nserver, server_program),
            ],
            profile=ALPHA_FARM_ATM,
        )
    print("client/server matvec example OK")


if __name__ == "__main__":
    main()
