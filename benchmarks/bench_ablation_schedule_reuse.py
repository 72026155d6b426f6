"""Ablation: schedule reuse (the §4.1.4 amortization, quantified).

"Since the schedule can often be computed once and reused for multiple
data transfers (e.g. for an iterative computation), the cost of creating
the schedule can be amortized."  This ablation runs K regular<->irregular
remap iterations three ways:

- rebuilding the schedule every iteration (what a naive port would do);
- building once and reusing the handle (the paper's usage);
- going through the content-keyed :class:`~repro.core.cache.ScheduleCache`
  (automatic reuse; hashing overhead only).
"""

import functools

import numpy as np

from common import check_shape, print_header, record
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleCache,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import VirtualMachine

N = 96          # 9216 elements
STEPS = 10
P = 8
PERM = np.random.default_rng(50).permutation(N * N)


def _sors():
    return (
        mc_new_set_of_regions(SectionRegion(Section.full((N, N)))),
        mc_new_set_of_regions(IndexRegion(PERM)),
    )


@functools.cache
def run_one(mode: str) -> float:
    def spmd(comm):
        A = BlockPartiArray.zeros(comm, (N, N))
        A.local[:] = comm.rank + 1.0
        B = ChaosArray.zeros(comm, PERM % comm.size)
        cache = ScheduleCache(comm)
        comm.barrier()
        t0 = comm.process.clock
        sched = None
        for _ in range(STEPS):
            if mode == "rebuild":
                src, dst = _sors()
                sched = mc_compute_schedule(
                    comm, "blockparti", A, src, "chaos", B, dst
                )
            elif mode == "reuse":
                if sched is None:
                    src, dst = _sors()
                    sched = mc_compute_schedule(
                        comm, "blockparti", A, src, "chaos", B, dst
                    )
            else:  # cache
                src, dst = _sors()
                sched = cache.get_or_build(
                    "blockparti", A, src, "chaos", B, dst
                )
            mc_copy(comm, sched, A, B)
        return comm.process.clock - t0

    result = VirtualMachine(P).run(spmd)
    return max(result.values) * 1e3


def run_ablation():
    print_header(
        f"Ablation: schedule reuse over {STEPS} remap iterations "
        f"({N}x{N} regular -> {N * N}-point irregular, P={P})"
    )
    times = {mode: run_one(mode) for mode in ("rebuild", "reuse", "cache")}
    for mode, t in times.items():
        print(f"  {mode:<10} {t:10.1f} ms total "
              f"({t / STEPS:8.2f} ms/iteration)")
    speedup = times["rebuild"] / times["reuse"]
    print(f"  reuse is {speedup:.1f}x cheaper than rebuilding every step")

    check_shape(
        times["reuse"] < times["rebuild"] / 4,
        f"reusing the schedule amortizes the build ({speedup:.1f}x)",
    )
    check_shape(
        times["cache"] < times["rebuild"] / 3,
        "the content-keyed cache captures most of the saving automatically",
    )
    check_shape(
        times["cache"] < times["reuse"] * 1.25,
        "cache-key hashing overhead stays small vs explicit reuse",
    )
    record("ablation_schedule_reuse", {
        "steps": STEPS,
        "total_ms": times,
    })
    return times


if __name__ == "__main__":
    run_ablation()
