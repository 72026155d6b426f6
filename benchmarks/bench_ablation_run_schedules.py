"""Ablation: run-compressed schedules vs dense offset arrays.

The paper's economy rests on schedules being cheap to build, store and
replay (§4.1.4; Multiblock Parti's strided-block descriptors are why
Table 5's regular exchanges are cheap).  This ablation quantifies what
making the run form the *actual* schedule representation buys:

- **per-rank schedule memory** — ``(start, step, count)`` runs per peer
  versus dense int64 offsets: O(runs) vs O(elements) for a regular 2-D
  section move, and no penalty for an irregular permutation (hybrid
  storage keeps those dense);
- **cheaper pack/unpack kernels** — every half of the regular move
  lowers to a slice or grid program (contiguous or strided slice copies)
  instead of a NumPy fancy gather/scatter over dense offsets, and an
  irregular half that stays an ``index`` program gathers over exactly
  its dense offsets (read off ``MoveProgram.kind``, not a host clock);
- **identical simulated physics** — the logical clock of a copy through
  run-compressed halves is *exactly* the clock through dense halves
  (this optimization changes wall-clock and memory, never the model).

Shape expectations: >=5x memory reduction on the regular move, no
``index`` program among its halves, and on the irregular move <=10% more
schedule memory and no kernel the dense form would not run.
"""

import collections
import functools

import numpy as np

from common import check_shape, print_header, record
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    RunList,
    SectionRegion,
    compile_offsets,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import VirtualMachine

P = 8
N_REG = 1024            # regular: 1024x1024 doubles, half-array section move
N_IRR = 256             # irregular: 256x256 -> 65536-point permutation
PERM = np.random.default_rng(1997).permutation(N_IRR * N_IRR)


def _regular_sors():
    return (
        mc_new_set_of_regions(
            SectionRegion(Section((0, 0), (N_REG // 2 - 1, N_REG - 1), (1, 1)))
        ),
        mc_new_set_of_regions(
            SectionRegion(Section((N_REG // 2, 0), (N_REG - 1, N_REG - 1), (1, 1)))
        ),
    )


def _irregular_sors():
    return (
        mc_new_set_of_regions(SectionRegion(Section.full((N_IRR, N_IRR)))),
        mc_new_set_of_regions(IndexRegion(PERM)),
    )


@functools.cache
def build_schedules(workload: str):
    """Per-rank (sends, recvs, src_local_n, dst_local_n, mem, dense) halves."""

    def spmd(comm):
        if workload == "regular":
            A = BlockPartiArray.zeros(comm, (N_REG, N_REG))
            B = BlockPartiArray.zeros(comm, (N_REG, N_REG))
            src, dst = _regular_sors()
            sched = mc_compute_schedule(
                comm, "blockparti", A, src, "blockparti", B, dst
            )
            nb = len(B.local)
        else:
            A = BlockPartiArray.zeros(comm, (N_IRR, N_IRR))
            B = ChaosArray.zeros(comm, PERM % comm.size)
            src, dst = _irregular_sors()
            sched = mc_compute_schedule(comm, "blockparti", A, src, "chaos", B, dst)
            nb = len(B.local)
        return (
            dict(sched.sends),
            dict(sched.recvs),
            len(A.local),
            nb,
            sched.nbytes_memory,
            sched.nbytes_dense,
        )

    return VirtualMachine(P).run(spmd).values


@functools.cache
def logical_clocks(workload: str, dense: bool):
    """Final logical clock per rank for 3 copies (run vs dense halves)."""

    def spmd(comm):
        if workload == "regular":
            A = BlockPartiArray.zeros(comm, (N_REG, N_REG))
            B = BlockPartiArray.zeros(comm, (N_REG, N_REG))
            src, dst = _regular_sors()
            sched = mc_compute_schedule(
                comm, "blockparti", A, src, "blockparti", B, dst
            )
        else:
            A = BlockPartiArray.zeros(comm, (N_IRR, N_IRR))
            B = ChaosArray.zeros(comm, PERM % comm.size)
            src, dst = _irregular_sors()
            sched = mc_compute_schedule(comm, "blockparti", A, src, "chaos", B, dst)
        if dense:
            sched = sched.dense()
        for _ in range(3):
            mc_copy(comm, sched, A, B)
        return comm.process.clock

    return VirtualMachine(P).run(spmd).values


def _lowered(offs):
    """One half as the executor holds it: ``(run program, dense program)``."""
    run = offs if isinstance(offs, RunList) else RunList.from_dense(offs)
    return compile_offsets(run), compile_offsets(np.asarray(offs))


def lowered_halves(workload: str):
    """Every rank's non-empty send and receive halves, lowered both ways:
    the run-compressed half as stored, and its dense int64 offsets."""
    return [_lowered(offs)
            for sends, recvs, *_ in build_schedules(workload)
            for offs in (*sends.values(), *recvs.values()) if len(offs)]


def run_ablation():
    print_header(
        f"Ablation: run-compressed schedules vs dense offsets (P={P}; "
        f"regular {N_REG}x{N_REG} section move, irregular {N_IRR * N_IRR}-pt "
        f"permutation)"
    )
    results = {}
    kinds = {}  # printed and shape-checked, never recorded
    for workload in ("regular", "irregular"):
        per_rank = build_schedules(workload)
        mem_run = [r[4] for r in per_rank]
        mem_dense = [r[5] for r in per_rank]
        # Ranks with traffic (dense > 0); the reduction is per rank.
        ratios = [d / m for m, d in zip(mem_run, mem_dense) if d]
        kinds[workload] = halves = lowered_halves(workload)
        results[workload] = {
            "schedule_bytes_run_per_rank": mem_run,
            "schedule_bytes_dense_per_rank": mem_dense,
            "memory_reduction_min": min(ratios),
        }
        print(f"  {workload:<10} schedule bytes/rank: "
              f"run {max(mem_run):>9} vs dense {max(mem_dense):>9} "
              f"(min reduction {min(ratios):.1f}x)")
        programs = collections.Counter(r.kind for r, _ in halves)
        print(f"  {workload:<10} run-half programs:   "
              f"{sorted(programs.items())}")

    # Identical simulated physics, run vs dense halves, both workloads.
    clocks_ok = all(
        logical_clocks(w, dense=False) == logical_clocks(w, dense=True)
        for w in ("regular", "irregular")
    )

    reg, irr = results["regular"], results["irregular"]
    check_shape(
        reg["memory_reduction_min"] >= 5,
        f"regular section move: >=5x per-rank schedule-memory reduction "
        f"({reg['memory_reduction_min']:.1f}x)",
    )
    check_shape(
        all(r.kind in ("slice", "grid") for r, _ in kinds["regular"]),
        "regular section move: every run half packs/unpacks by slice or "
        "grid, none by fancy index",
    )
    check_shape(
        max(m / d for m, d in zip(irr["schedule_bytes_run_per_rank"],
                                  irr["schedule_bytes_dense_per_rank"]) if d)
        <= 1.10,
        "irregular permutation: hybrid storage adds <=10% schedule memory",
    )
    check_shape(
        all(r.kind != "index" or (d.kind == "index"
                                  and np.array_equal(r.index(), d.index()))
            for r, d in kinds["irregular"]),
        "irregular permutation: a run half lowers to an index program only "
        "where its dense half does, over the same offsets",
    )
    check_shape(
        clocks_ok,
        "logical clocks identical through run-compressed and dense halves",
    )
    record("ablation_run_schedules", results)
    return results


if __name__ == "__main__":
    run_ablation()
