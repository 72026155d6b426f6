"""Client/server matrix-vector computation engine (§5.4, Figures 10-15).

A (sequential or parallel) Fortran/Multiblock-Parti *client* builds a
matrix and a stream of operand vectors; an HPF *server* program holds the
distributed matrix and performs the multiplies.  Meta-Chaos provides the
direct client<->server data paths:

- one schedule to copy the matrix (client -> server), used once;
- one schedule to copy a vector (client -> server); since the matrix is
  square and Meta-Chaos schedules are symmetric, the *same* schedule in
  reverse returns the result vector (server -> client) — the paper's
  "only two schedules must be computed".

Reported phases follow the figures:

- ``sched``   — computing the two schedules (client-side);
- ``matrix``  — sending the matrix (client-side);
- ``server``  — the HPF matrix-vector multiplies (server-side);
- ``vector``  — vector send + result receive, excluding server compute
  (client-side wait minus server compute, the paper's methodology).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockparti import BlockPartiArray
from repro.core import ScheduleMethod, SectionRegion, mc_compute_schedule, mc_new_set_of_regions
from repro.core.coupling import CoupledExchange, coupled_universe, sync_programs
from repro.distrib.section import Section
from repro.hpf import HPFArray, distributed_matvec, local_matvec_time
from repro.vmachine import ALPHA_FARM_ATM, MachineProfile, ProgramSpec, run_programs

__all__ = ["MatvecTimings", "run_client_server_matvec"]


@dataclass
class MatvecTimings:
    """Phase breakdown of one client/server run, in ms."""

    sched_ms: float
    matrix_ms: float
    server_ms: float
    vector_ms: float
    nvectors: int
    #: modelled cost of doing all multiplies inside the client instead
    local_alternative_ms: float

    @property
    def total_ms(self) -> float:
        return self.sched_ms + self.matrix_ms + self.server_ms + self.vector_ms

    @property
    def speedup_vs_local(self) -> float:
        """Client-local compute time over the server-path total."""
        return self.local_alternative_ms / self.total_ms if self.total_ms else 0.0


def run_client_server_matvec(
    nclient: int,
    nserver: int,
    n: int = 512,
    nvectors: int = 1,
    profile: MachineProfile = ALPHA_FARM_ATM,
) -> MatvecTimings:
    """Run the full scenario and return the merged phase timings."""
    full_matrix = Section.full((n, n))
    full_vector = Section.full((n,))

    def client(ctx):
        comm = ctx.comm
        proc = comm.process
        M = BlockPartiArray.from_function(
            comm, (n, n), lambda i, j: 1.0 / (1.0 + i + 2.0 * j)
        )
        vec = BlockPartiArray.from_function(comm, (n,), lambda i: i + 1.0)
        result = BlockPartiArray.zeros(comm, (n,))
        universe = coupled_universe(ctx, "server", "src")
        with proc.span("sched"):
            mat_sched = mc_compute_schedule(
                universe,
                "blockparti", M, mc_new_set_of_regions(SectionRegion(full_matrix)),
                "hpf", None, None,
                ScheduleMethod.COOPERATION,
            )
            vec_sched = mc_compute_schedule(
                universe,
                "blockparti", vec, mc_new_set_of_regions(SectionRegion(full_vector)),
                "hpf", None, None,
                ScheduleMethod.COOPERATION,
            )
        mat_exchange = CoupledExchange(universe, mat_sched)
        vec_exchange = CoupledExchange(universe, vec_sched)
        with proc.span("matrix"):
            mat_exchange.push(M)
            sync_programs(ctx, "server")
        for k in range(nvectors):
            vec.local[:] = vec.local + float(k)  # a fresh operand each time
            with proc.span("client_vector"):
                vec_exchange.push(vec)
                vec_exchange.pull(result)
        return True

    def server(ctx):
        comm = ctx.comm
        proc = comm.process
        A = HPFArray.distribute(comm, (n, n), ("block", "*"))
        x = HPFArray.distribute(comm, (n,), ("block",))
        y = HPFArray.distribute(comm, (n,), ("block",))
        universe = coupled_universe(ctx, "client", "dst")
        with proc.span("sched"):
            mat_sched = mc_compute_schedule(
                universe,
                "blockparti", None, None,
                "hpf", A, mc_new_set_of_regions(SectionRegion(full_matrix)),
                ScheduleMethod.COOPERATION,
            )
            vec_sched = mc_compute_schedule(
                universe,
                "blockparti", None, None,
                "hpf", x, mc_new_set_of_regions(SectionRegion(full_vector)),
                ScheduleMethod.COOPERATION,
            )
        mat_exchange = CoupledExchange(universe, mat_sched)
        vec_exchange = CoupledExchange(universe, vec_sched)
        with proc.span("matrix"):
            mat_exchange.push(A)
            sync_programs(ctx, "client")
        for _ in range(nvectors):
            vec_exchange.push(x)
            with proc.span("server"):
                distributed_matvec(A, x, y)
            vec_exchange.pull(y)
        return True

    result = run_programs(
        [
            ProgramSpec("client", nclient, client),
            ProgramSpec("server", nserver, server),
        ],
        profile=profile,
    )
    server_ms = result.span_ms("server")
    vector_ms = max(0.0, result.span_ms("client_vector") - server_ms)
    # The client-local alternative: nvectors sequential n x n multiplies
    # spread over the client's processors.
    local_ms = local_matvec_time(n, n, profile) * nvectors / nclient * 1e3
    return MatvecTimings(
        sched_ms=result.span_ms("sched"),
        matrix_ms=result.span_ms("matrix"),
        server_ms=server_ms,
        vector_ms=vector_ms,
        nvectors=nvectors,
        local_alternative_ms=local_ms,
    )
