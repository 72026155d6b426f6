"""Ablation: run-compressed schedules vs dense offset arrays.

The paper's economy rests on schedules being cheap to build, store and
replay (§4.1.4; Multiblock Parti's strided-block descriptors are why
Table 5's regular exchanges are cheap).  This ablation quantifies what
making the run form the *actual* schedule representation buys:

- **per-rank schedule memory** — ``(start, step, count)`` runs per peer
  versus dense int64 offsets: O(runs) vs O(elements) for a regular 2-D
  section move, and no penalty for an irregular permutation (hybrid
  storage keeps those dense);
- **wall-clock pack/unpack** — stride-1 runs execute as contiguous slice
  copies and strided runs as strided slices, versus NumPy fancy
  gather/scatter over dense offset arrays;
- **identical simulated physics** — the logical clock of a copy through
  run-compressed halves is *exactly* the clock through dense halves
  (this optimization changes wall-clock and memory, never the model).

Shape expectations: >=5x memory reduction on the regular move, a
measurable pack/unpack speedup, and <=10% regression (memory and time)
on the irregular move.
"""

import functools
import time

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
REPS = 20


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


def _best(fn, reps=REPS):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _lowered(offs):
    """One half as the executor holds it: ``(run program, dense program)``."""
    run = offs if isinstance(offs, RunList) else RunList.from_dense(offs)
    return compile_offsets(run), compile_offsets(np.asarray(offs))


def measure_pack_unpack(workload: str):
    """Host-side wall-clock of every rank's pack+unpack, run vs dense.

    Times what the executor runs on either representation: each half's
    lowered ``MoveProgram``, resolved once outside the timer as
    ``compile_plan`` does — the run-compressed half as stored, against
    the ``index`` program over the same half's dense int64 offsets
    (NumPy fancy gather/scatter).  Identical element counts either way,
    and the same per-call dispatch on both sides, so the shape checks
    compare kernels.  (The ``RunList.gather``/``scatter`` pass-throughs
    add an import and a memo look-up per call that no move pays.)
    """
    rng = np.random.default_rng(3)
    run_halves = []
    dense_halves = []
    for sends, recvs, ns, nd, _, _ in build_schedules(workload):
        src_data = rng.random(max(ns, 1))
        dst_data = rng.random(max(nd, 1))
        for offs in sends.values():
            if len(offs):
                run, dense = _lowered(offs)
                run_halves.append((src_data, run, None))
                dense_halves.append((src_data, dense, None))
        for offs in recvs.values():
            if len(offs):
                buf = rng.random(len(offs))
                run, dense = _lowered(offs)
                run_halves.append((dst_data, run, buf))
                dense_halves.append((dst_data, dense, buf))

    def execute(halves):
        for data, program, buf in halves:
            if buf is None:
                program.gather(data)
            else:
                program.scatter(data, buf)

    return (_best(lambda: execute(run_halves)),
            _best(lambda: execute(dense_halves)))


def run_ablation():
    print_header(
        f"Ablation: run-compressed schedules vs dense offsets (P={P}; "
        f"regular {N_REG}x{N_REG} section move, irregular {N_IRR * N_IRR}-pt "
        f"permutation)"
    )
    results = {}
    wall = {}   # printed and shape-checked, never recorded
    for workload in ("regular", "irregular"):
        per_rank = build_schedules(workload)
        mem_run = [r[4] for r in per_rank]
        mem_dense = [r[5] for r in per_rank]
        # Ranks with traffic (dense > 0); the reduction is per rank.
        ratios = [d / m for m, d in zip(mem_run, mem_dense) if d]
        t_run, t_dense = measure_pack_unpack(workload)
        speedup = t_dense / t_run if t_run else float("inf")
        wall[workload] = {"run": t_run, "dense": t_dense, "speedup": speedup}
        results[workload] = {
            "schedule_bytes_run_per_rank": mem_run,
            "schedule_bytes_dense_per_rank": mem_dense,
            "memory_reduction_min": min(ratios),
        }
        print(f"  {workload:<10} schedule bytes/rank: "
              f"run {max(mem_run):>9} vs dense {max(mem_dense):>9} "
              f"(min reduction {min(ratios):.1f}x)")
        print(f"  {workload:<10} pack+unpack wall:    "
              f"run {t_run * 1e3:8.3f} ms vs dense {t_dense * 1e3:8.3f} ms "
              f"({speedup:.2f}x)")

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
        wall["regular"]["speedup"] >= 1.3,
        f"regular section move: measurable pack/unpack wall-clock speedup "
        f"({wall['regular']['speedup']:.2f}x)",
    )
    check_shape(
        max(m / d for m, d in zip(irr["schedule_bytes_run_per_rank"],
                                  irr["schedule_bytes_dense_per_rank"]) if d)
        <= 1.10,
        "irregular permutation: hybrid storage adds <=10% schedule memory",
    )
    check_shape(
        wall["irregular"]["run"] <= wall["irregular"]["dense"] * 1.10,
        f"irregular permutation: <=10% pack/unpack wall-clock regression "
        f"({wall['irregular']['speedup']:.2f}x)",
    )
    check_shape(
        clocks_ok,
        "logical clocks identical through run-compressed and dense halves",
    )
    record("ablation_run_schedules", results)
    return results


def test_ablation_run_schedules(benchmark):
    benchmark.pedantic(run_ablation, rounds=1, iterations=1)


if __name__ == "__main__":
    run_ablation()
