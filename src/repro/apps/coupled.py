"""The coupled structured+unstructured mesh application (§2, §5.1-5.2).

Implements the paper's Figure 1 time-step loop:

1. sweep over the structured mesh (Multiblock Parti, ghost-cell fill);
2. remap structured -> unstructured across the interface mapping;
3. sweep over the unstructured mesh (Chaos inspector/executor edge loop);
4. remap back.

Sweeps are handled by each mesh's own specialized library; the remap (the
inter-library copy) is handled by Meta-Chaos (cooperation or duplication)
or — the Table 2 baseline — by Chaos alone after pointwise-wrapping the
regular mesh in a translation table.

Each phase is a span (:meth:`~repro.vmachine.process.Process.span`),
named and reported as in the paper:

- ``inspector``  — intra-mesh schedule building (ghost + edge), total;
- ``executor``   — both sweeps, accumulated over time-steps;
- ``sched``      — remap schedule building, total;
- ``copy``       — both remap copies, accumulated over time-steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.meshes import UnstructuredMesh
from repro.blockparti import BlockPartiArray, build_ghost_schedule, jacobi_sweep
from repro.chaos import (
    ChaosArray,
    EdgeSweep,
    TranslationTable,
    build_chaos_copy_schedule,
    rcb_owners,
)
from repro.chaos.partition import block_owners
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.core.coupling import CoupledExchange, coupled_universe, sync_programs
from repro.distrib.section import Section
from repro.vmachine import (
    IBM_SP2,
    MachineProfile,
    ProgramSpec,
    VirtualMachine,
    run_programs,
)

__all__ = ["CoupledTimings", "run_coupled_single_program", "run_coupled_two_programs"]

#: remap backend names accepted by the runners
REMAP_BACKENDS = ("mc-coop", "mc-dup", "chaos")


@dataclass
class CoupledTimings:
    """Merged (slowest-rank) phase times of one coupled run, in ms."""

    inspector_ms: float
    executor_per_iter_ms: float
    sched_ms: float
    copy_per_iter_ms: float
    timesteps: int
    total_messages: int
    #: global checksum of the final mesh state (backend/P invariance proof)
    checksum: float = 0.0

    @classmethod
    def from_results(
        cls, result, timesteps: int, total_messages: int, checksum: float = 0.0
    ) -> "CoupledTimings":
        """From a run's result: anything with ``span_ms(name)``."""
        return cls(
            inspector_ms=result.span_ms("inspector"),
            executor_per_iter_ms=result.span_ms("executor") / timesteps,
            sched_ms=result.span_ms("sched"),
            copy_per_iter_ms=result.span_ms("copy") / timesteps,
            timesteps=timesteps,
            total_messages=total_messages,
            checksum=checksum,
        )


def _regular_sor(mapping, shape):
    """Source SetOfRegions on the regular mesh for the remap mapping."""
    irreg, reg1, reg2 = mapping
    flat = reg1 * shape[1] + reg2
    n = shape[0] * shape[1]
    if len(flat) == n and np.array_equal(flat, np.arange(n)):
        # Whole-mesh row-major mapping: one regular section (the cheap,
        # compact description a Parti/HPF program would naturally use).
        return mc_new_set_of_regions(SectionRegion(Section.full(shape)))
    return mc_new_set_of_regions(IndexRegion(flat))


def _irregular_sor(mapping):
    irreg, _, _ = mapping
    return mc_new_set_of_regions(IndexRegion(irreg))


def run_coupled_single_program(
    nprocs: int,
    mesh_shape: tuple[int, int],
    mesh: UnstructuredMesh,
    mapping: tuple[np.ndarray, np.ndarray, np.ndarray],
    timesteps: int = 2,
    remap: str = "mc-coop",
    profile: MachineProfile = IBM_SP2,
    partition: str = "rcb",
) -> CoupledTimings:
    """Both meshes in one SPMD program (paper §5.1, Tables 1-2)."""
    if remap not in REMAP_BACKENDS:
        raise ValueError(f"remap must be one of {REMAP_BACKENDS}")
    irreg, reg1, reg2 = mapping

    def spmd(comm):
        proc = comm.process
        owners = (
            rcb_owners(mesh.coords, comm.size)
            if partition == "rcb"
            else block_owners(mesh.npoints, comm.size)
        )
        a = BlockPartiArray.from_function(
            comm, mesh_shape, lambda i, j: (i + 2.0 * j) / (i + j + 1.0)
        )
        x = ChaosArray.zeros(comm, owners)
        y = ChaosArray.like(x)
        # Computation follows the data: each edge runs on the owner of
        # its first endpoint, so intra-mesh communication is bounded by
        # the partition's edge cut (the standard Chaos arrangement).
        mine = np.flatnonzero(owners[mesh.ia] == comm.rank)

        with proc.span("inspector"):
            ghost = build_ghost_schedule(a)
            sweep = EdgeSweep(x, mesh.ia[mine], mesh.ib[mine])

        with proc.span("sched"):
            if remap.startswith("mc-"):
                method = (
                    ScheduleMethod.COOPERATION
                    if remap == "mc-coop"
                    else ScheduleMethod.DUPLICATION
                )
                sched = mc_compute_schedule(
                    comm,
                    "blockparti", a, _regular_sor(mapping, mesh_shape),
                    "chaos", x, _irregular_sor(mapping),
                    method,
                )
            else:
                # Chaos alone: the regular mesh first needs a pointwise
                # translation table (the memory/time overhead §5.1 notes).
                reg_table = TranslationTable.from_distribution(
                    a.dist, a.dist.size
                )
                flat = reg1 * mesh_shape[1] + reg2
                csched = build_chaos_copy_schedule(
                    comm, reg_table, flat, x.table, irreg
                )

        for _ in range(timesteps):
            with proc.span("executor"):
                jacobi_sweep(a, ghost)
            with proc.span("copy"):
                if remap.startswith("mc-"):
                    mc_copy(comm, sched, a, x)
                else:
                    csched.execute(a.local, x.local, comm)
            with proc.span("executor"):
                sweep.execute(x, y)
            with proc.span("copy"):
                if remap.startswith("mc-"):
                    mc_copy(comm, sched.reverse(), x, a)
                else:
                    csched.reverse().execute(x.local, a.local, comm)
        return comm.allreduce(
            float(a.local.sum() + x.local.sum() + y.local.sum()),
            lambda p, q: p + q,
        )

    result = VirtualMachine(nprocs, profile).run(spmd)
    return CoupledTimings.from_results(
        result,
        timesteps,
        int(result.total_stat("messages_sent")),
        checksum=float(result.values[0]),
    )


def run_coupled_two_programs(
    nprocs_reg: int,
    nprocs_irreg: int,
    mesh_shape: tuple[int, int],
    mesh: UnstructuredMesh,
    mapping: tuple[np.ndarray, np.ndarray, np.ndarray],
    timesteps: int = 2,
    profile: MachineProfile = IBM_SP2,
) -> CoupledTimings:
    """Each mesh in its own program (paper §5.2, Tables 3-4).

    The regular program (``Preg``) runs the structured sweep; the
    irregular program (``Pirreg``) runs the unstructured sweep; the remap
    crosses the inter-communicator with a cooperation-method Meta-Chaos
    schedule (duplication would ship a data-sized translation table —
    "very expensive", §5.2).
    """
    irreg_ids, reg1, reg2 = mapping

    def prog_reg(ctx):
        comm = ctx.comm
        proc = comm.process
        a = BlockPartiArray.from_function(
            comm, mesh_shape, lambda i, j: (i + 2.0 * j) / (i + j + 1.0)
        )
        with proc.span("inspector"):
            ghost = build_ghost_schedule(a)
        universe = coupled_universe(ctx, "irreg", "src")
        sync_programs(ctx, "irreg")
        with proc.span("sched"):
            sched = mc_compute_schedule(
                universe,
                "blockparti", a, _regular_sor(mapping, mesh_shape),
                "chaos", None, None,
                ScheduleMethod.COOPERATION,
            )
        exchange = CoupledExchange(universe, sched)
        for _ in range(timesteps):
            with proc.span("executor"):
                jacobi_sweep(a, ghost)
            with proc.span("copy"):
                exchange.push(a)   # regular -> irregular
            with proc.span("copy"):
                exchange.pull(a)   # irregular -> regular
        return comm.allreduce(float(a.local.sum()), lambda p, q: p + q)

    def prog_irreg(ctx):
        comm = ctx.comm
        proc = comm.process
        owners = rcb_owners(mesh.coords, comm.size)
        x = ChaosArray.zeros(comm, owners)
        y = ChaosArray.like(x)
        mine = np.flatnonzero(owners[mesh.ia] == comm.rank)
        with proc.span("inspector"):
            sweep = EdgeSweep(x, mesh.ia[mine], mesh.ib[mine])
        universe = coupled_universe(ctx, "reg", "dst")
        sync_programs(ctx, "reg")
        with proc.span("sched"):
            sched = mc_compute_schedule(
                universe,
                "blockparti", None, None,
                "chaos", x, _irregular_sor(mapping),
                ScheduleMethod.COOPERATION,
            )
        exchange = CoupledExchange(universe, sched)
        for _ in range(timesteps):
            with proc.span("copy"):
                exchange.push(x)
            with proc.span("executor"):
                sweep.execute(x, y)
            with proc.span("copy"):
                exchange.pull(x)
        return comm.allreduce(
            float(x.local.sum() + y.local.sum()), lambda p, q: p + q
        )

    result = run_programs(
        [
            ProgramSpec("reg", nprocs_reg, prog_reg),
            ProgramSpec("irreg", nprocs_irreg, prog_irreg),
        ],
        profile=profile,
    )
    msgs = int(
        result["reg"].total_stat("messages_sent")
        + result["irreg"].total_stat("messages_sent")
    )
    checksum = float(result["reg"].values[0] + result["irreg"].values[0])
    return CoupledTimings.from_results(result, timesteps, msgs, checksum=checksum)
