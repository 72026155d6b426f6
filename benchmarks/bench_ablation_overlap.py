"""Ablation: latency-hiding executor (OVERLAP) vs paper-faithful (ORDERED).

The paper's executor aggregates traffic into "at most one message ...
between each source and each destination processor" (§4.1.4) but fixes no
order; the reproduction historically drained sends and receives in
ascending rank order.  ``ExecutorPolicy.OVERLAP`` staggers injection
(each sender starts at ``(rank + 1) % P``) and completes receives in
*arrival* order via wait-any, unpacking one message while later ones are
still in flight.

Workload — a skewed multi-peer move where ordered draining hurts most:
even ranks own the source rows (pure senders), odd ranks own the
destination elements (pure receivers, idle until data arrives), and every
sender scatters its block across *all* receivers (``IndexRegion``
permutation).  Under ORDERED every sender injects toward the lowest
receiver first, so the highest receiver gets all its messages late and
then unpacks serially; under OVERLAP the rotated injection staggers
arrivals one message apart per receiver and arrival-order completion
pipelines each unpack under the next message's flight time.

Shape expectations: >=10% logical-elapsed-time reduction at P=16 on the
IBM SP2 profile, measurable reductions elsewhere, *identical* destination
data and message/byte counts under both policies.  Results land in
``BENCH_overlap.json`` at the repo root (logical numbers only; ``python
check.py bench`` requires a re-run to reproduce it byte for byte).
"""

import functools

import numpy as np

from common import check_shape, grid_sweep, print_header, write_trajectory
from repro.blockparti import BlockPartiArray
from repro.core import (
    ExecutorPolicy,
    IndexRegion,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import ALPHA_FARM_ATM, IBM_SP2, VirtualMachine

N = 256                      # global array is N x N doubles
PROC_COUNTS = (8, 16)
PROFILES = (IBM_SP2, ALPHA_FARM_ATM)


def _skewed_sors(n: int, nprocs: int):
    """Even-rank row blocks scattered across all odd-rank blocks."""
    nsend = nprocs // 2          # senders = even ranks, receivers = odd
    rows = n // nprocs           # rows per rank block
    block = n * n // nprocs      # elements per rank block
    chunk = block // nsend       # elements per (sender, receiver) message
    src = mc_new_set_of_regions(*[
        SectionRegion(
            Section((2 * t * rows, 0), ((2 * t + 1) * rows, n), (1, 1))
        )
        for t in range(nsend)
    ])
    j = np.arange(nsend * block)
    t = j // block               # source block index (sender 2t)
    r = j % block
    c = r // chunk               # chunk index -> receiver 2((t+c) % nsend)+1
    i = r % chunk
    rho = 2 * ((t + c) % nsend) + 1
    dst = mc_new_set_of_regions(IndexRegion(rho * block + c * chunk + i))
    return src, dst


@functools.cache
def run_copy(nprocs: int, profile, policy: ExecutorPolicy):
    """(max per-rank clock delta of the copy, per-rank dest arrays, stats)."""

    def spmd(comm):
        A = BlockPartiArray.zeros(comm, (N, N), nprocs_grid=(comm.size, 1))
        B = BlockPartiArray.zeros(comm, (N, N), nprocs_grid=(comm.size, 1))
        A.local[:] = np.arange(len(A.local), dtype=np.float64) + 1e5 * comm.rank
        src, dst = _skewed_sors(N, comm.size)
        sched = mc_compute_schedule(
            comm, "blockparti", A, src, "blockparti", B, dst, policy=policy
        )
        comm.barrier()
        t0 = comm.process.clock
        mc_copy(comm, sched, A, B, policy=policy)
        return comm.process.clock - t0, B.local.copy()

    result = VirtualMachine(nprocs, profile=profile).run(spmd)
    elapsed = max(v[0] for v in result.values)
    dest = [v[1] for v in result.values]
    stats = {
        "messages": result.total_stat("messages_sent"),
        "bytes": result.total_stat("bytes_sent"),
    }
    return elapsed, dest, stats


def run_ablation():
    print_header(
        f"Ablation: latency-hiding executor — rotated injection + wait-any "
        f"completion ({N}x{N} doubles, even->odd skewed scatter)"
    )
    def cell(profile, nprocs):
        t_ord, d_ord, s_ord = run_copy(nprocs, profile, ExecutorPolicy.ORDERED)
        t_ovl, d_ovl, s_ovl = run_copy(nprocs, profile, ExecutorPolicy.OVERLAP)
        identical = all(
            np.array_equal(a, b) for a, b in zip(d_ord, d_ovl)
        )
        improvement = 1.0 - t_ovl / t_ord
        key = f"{profile.name}/P{nprocs}"
        print(
            f"  {profile.name:<20} P={nprocs:<3} "
            f"ordered {t_ord * 1e3:8.3f} ms   overlap {t_ovl * 1e3:8.3f} ms   "
            f"({improvement * 100:5.1f}% faster)"
        )
        check_shape(
            identical,
            f"{key}: destination data identical under both policies",
        )
        check_shape(
            s_ord == s_ovl,
            f"{key}: identical message and byte counts "
            f"({int(s_ord['messages'])} msgs, {int(s_ord['bytes'])} bytes)",
        )
        check_shape(
            improvement > 0,
            f"{key}: overlap reduces logical elapsed time "
            f"({improvement * 100:.1f}%)",
        )
        return {
            "ordered_ms": t_ord * 1e3,
            "overlap_ms": t_ovl * 1e3,
            "improvement_pct": improvement * 100.0,
            "identical_destination": bool(identical),
            "messages": {"ordered": s_ord["messages"], "overlap": s_ovl["messages"]},
            "bytes": {"ordered": s_ord["bytes"], "overlap": s_ovl["bytes"]},
        }

    results = grid_sweep(cell, PROFILES, PROC_COUNTS)

    sp2_16 = results[f"{IBM_SP2.name}/P16"]
    check_shape(
        sp2_16["improvement_pct"] >= 10.0,
        f"IBM SP2 P=16: >=10% elapsed-time reduction "
        f"({sp2_16['improvement_pct']:.1f}%)",
    )

    write_trajectory(
        "overlap",
        "overlap_executor_ablation",
        {
            "array": [N, N],
            "pattern": "even-rank row blocks scattered across all odd-rank "
                       "blocks (IndexRegion permutation)",
        },
        results,
    )
    return results


def test_ablation_overlap(benchmark):
    benchmark.pedantic(run_ablation, rounds=1, iterations=1)


if __name__ == "__main__":
    run_ablation()
