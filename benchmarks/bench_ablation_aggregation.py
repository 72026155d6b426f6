"""Ablation: message aggregation in the data move (§4.1.4).

Meta-Chaos sends *at most one message per processor pair* per move.  This
ablation executes the same copy with aggregation disabled (one message per
element, the naive schedule-free alternative) and reports the logical-time
ratio — the justification for step 5 of the paper's five-step recipe.
"""

import functools

import numpy as np

from common import check_shape, print_header
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.core.registry import get_adapter
from repro.core.universe import SingleProgramUniverse
from repro.distrib.section import Section
from repro.vmachine import VirtualMachine

N = 64  # 4096 elements
PERM = np.random.default_rng(40).permutation(N * N)
_TAG = 1 << 22


def _unaggregated_move(schedule, src_array, dst_array, comm):
    """The same transfer, one message per element."""
    universe = SingleProgramUniverse(comm)
    src_ad = get_adapter(schedule.src_lib)
    dst_ad = get_adapter(schedule.dst_lib)
    for d in sorted(schedule.sends):
        offs = schedule.sends[d]
        if d == comm.rank:
            dst_ad.local_data(dst_array)[schedule.recvs[d]] = src_ad.local_data(
                src_array
            )[offs]
            comm.process.charge_pack(len(offs))
            continue
        for off in offs:
            comm.send(d, src_array.local[off : off + 1].copy(), _TAG)
            comm.process.charge_pack(1)
    for s in sorted(schedule.recvs):
        offs = schedule.recvs[s]
        if s == comm.rank:
            continue
        for off in offs:
            dst_array.local[off : off + 1] = comm.recv(s, _TAG)
            comm.process.charge_pack(1)


@functools.cache
def run_one(nprocs: int, aggregated: bool):
    def spmd(comm):
        A = BlockPartiArray.zeros(comm, (N, N))
        A.local[:] = np.arange(A.local.size, dtype=float)
        B = ChaosArray.zeros(comm, PERM % comm.size)
        sched = mc_compute_schedule(
            comm,
            "blockparti", A,
            mc_new_set_of_regions(SectionRegion(Section.full((N, N)))),
            "chaos", B, mc_new_set_of_regions(IndexRegion(PERM)),
        )
        comm.barrier()
        t0 = comm.process.clock
        m0 = comm.process.stats["messages_sent"]
        if aggregated:
            mc_copy(comm, sched, A, B)
        else:
            _unaggregated_move(sched, A, B, comm)
        return (
            comm.process.clock - t0,
            comm.process.stats["messages_sent"] - m0,
        )

    res = VirtualMachine(nprocs).run(spmd)
    time_ms = max(v[0] for v in res.values) * 1e3
    messages = int(sum(v[1] for v in res.values))
    return time_ms, messages


def run_ablation():
    print_header("Ablation: aggregated vs per-element messages (4096-element copy)")
    print(f"{'P':>4}{'aggregated ms':>16}{'naive ms':>12}{'ratio':>8}"
          f"{'agg msgs':>10}{'naive msgs':>12}")
    for p in (2, 4, 8):
        agg_t, agg_m = run_one(p, True)
        nav_t, nav_m = run_one(p, False)
        ratio = nav_t / agg_t
        print(f"{p:>4}{agg_t:>16.1f}{nav_t:>12.1f}{ratio:>8.1f}"
              f"{agg_m:>10}{nav_m:>12}")
        check_shape(ratio > 5, f"P={p}: aggregation wins by >5x (got {ratio:.1f}x)")
        check_shape(
            agg_m <= p * (p - 1),
            f"P={p}: aggregated move sends at most P(P-1) messages ({agg_m})",
        )
        check_shape(
            nav_m > 50 * agg_m,
            f"P={p}: the naive move floods the network ({nav_m} messages)",
        )


if __name__ == "__main__":
    run_ablation()
