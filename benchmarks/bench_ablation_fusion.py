"""Ablation: fused multi-array moves (MovePlan) vs k sequential copies.

The paper's executor already aggregates one schedule's traffic into "at
most one message ... between each source and each destination processor"
(§4.1.4), but a program moving k arrays per timestep — the coupled codes
of §5.1 exchange several physical quantities over one mesh mapping —
still pays k·P·(P−1) message latencies.  The :mod:`repro.core.plan`
compiler extends the aggregation *across schedules*: k schedules compile
into one :class:`~repro.core.plan.MovePlan` whose execution sends one
fused message per processor pair, saving k−1 α's per pair and per
execution.

Workload — the latency-bound regime where fusion matters most: k small
fields (one 32×32 double array each) moved from block-distributed Parti
sources onto permutation-scattered Chaos destinations, all k fields sharing one
scatter permutation (§5.1: several physical quantities exchanged over a
single mesh mapping).  Per-pair payloads are tens of bytes, so the
per-message α dominates β·m and the k-fold message reduction translates
nearly k-fold into logical elapsed time.

Shape expectations, per profile and P ∈ {4, 8, 16}:

- fused and sequential executions produce byte-identical destinations;
- the data plane sends exactly ``unfused/k`` fused messages — the
  message-count reduction is ``(k−1)·pairs``, matching the executors'
  ``plan_alpha_saved`` counter;
- fused logical elapsed time improves monotonically-ish with k and by
  >=40% at k=8 on the IBM SP2 profile at P=16;
- at k=1 the plan *is* the plain copy: a one-schedule plan travels the
  bare, header-less wire, so its elapsed time equals the sequential
  copy's to the last bit.

Results land in ``BENCH_fusion.json`` at the repo root (logical numbers
only, guarded by ``python check.py bench``).
"""

import functools

import numpy as np

from common import check_shape, print_header, write_trajectory
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    SectionRegion,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import ALPHA_FARM_ATM, IBM_SP2, VirtualMachine

N = 32                       # each field is N x N doubles (small: latency-bound)
K_VALUES = (1, 2, 4, 8)
PROC_COUNTS = (4, 8, 16)
PROFILES = (IBM_SP2, ALPHA_FARM_ATM)


#: the one mesh mapping all k fields share (paper §5.1: several physical
#: quantities exchanged over a single regular<->irregular correspondence)
PERM = np.random.default_rng(100).permutation(N * N)


@functools.cache
def run_move(nprocs: int, profile, k: int, fused: bool):
    """(max clock delta of the copy phase, dests, data-plane messages)."""

    def spmd(comm):
        sor_src = mc_new_set_of_regions(SectionRegion(Section.full((N, N))))
        srcs, dsts, scheds = [], [], []
        for j in range(k):
            perm = PERM
            A = BlockPartiArray.from_function(
                comm, (N, N), lambda i, jj, j=j: (j + 1.0) * (i * N + jj)
            )
            B = ChaosArray.zeros(comm, perm % comm.size)
            scheds.append(
                mc_compute_schedule(
                    comm, "blockparti", A, sor_src,
                    "chaos", B, mc_new_set_of_regions(IndexRegion(perm)),
                )
            )
            srcs.append(A)
            dsts.append(B)
        plan = mc_compute_plan(scheds) if fused else None
        comm.barrier()
        t0 = comm.process.clock
        m0 = comm.process.stats.get("messages_sent", 0)
        if fused:
            mc_copy_many(comm, plan, srcs, dsts)
        else:
            for sched, A, B in zip(scheds, srcs, dsts):
                mc_copy(comm, sched, A, B)
        dt = comm.process.clock - t0
        dm = comm.process.stats.get("messages_sent", 0) - m0
        gathered = [B.gather_global() for B in dsts]
        return dt, dm, gathered if comm.rank == 0 else None

    result = VirtualMachine(nprocs, profile=profile).run(spmd)
    elapsed = max(v[0] for v in result.values)
    messages = sum(v[1] for v in result.values)
    dests = result.values[0][2]
    return elapsed, messages, dests


def run_ablation():
    print_header(
        f"Ablation: fused multi-array moves — one message per pair across "
        f"k schedules ({N}x{N} doubles per field, Parti -> permuted Chaos)"
    )
    results = {}
    for profile in PROFILES:
        for nprocs in PROC_COUNTS:
            for k in K_VALUES:
                t_seq, m_seq, d_seq = run_move(nprocs, profile, k, fused=False)
                t_fus, m_fus, d_fus = run_move(nprocs, profile, k, fused=True)
                identical = all(
                    np.array_equal(a, b) for a, b in zip(d_seq, d_fus)
                )
                improvement = 1.0 - t_fus / t_seq
                key = f"{profile.name}/P{nprocs}/k{k}"
                results[key] = {
                    "profile": profile.name,
                    "nprocs": nprocs,
                    "k": k,
                    "sequential_ms": t_seq * 1e3,
                    "fused_ms": t_fus * 1e3,
                    "improvement_pct": improvement * 100.0,
                    "identical_destination": bool(identical),
                    "messages": {"sequential": m_seq, "fused": m_fus},
                    "alpha_saved": m_seq - m_fus,
                }
                print(
                    f"  {profile.name:<20} P={nprocs:<3} k={k:<2} "
                    f"sequential {t_seq * 1e3:8.3f} ms   "
                    f"fused {t_fus * 1e3:8.3f} ms   "
                    f"({improvement * 100:5.1f}% faster, "
                    f"{m_seq}->{m_fus} msgs)"
                )
                check_shape(
                    identical,
                    f"{key}: destinations byte-identical fused vs sequential",
                )
                check_shape(
                    m_fus * k == m_seq,
                    f"{key}: data plane fuses k={k} messages per pair into "
                    f"one ({m_seq} -> {m_fus})",
                )
                if k == 1:
                    # A one-schedule plan travels the bare wire: it is the
                    # plain copy, clock tick for clock tick.
                    check_shape(
                        t_fus == t_seq,
                        f"{key}: k=1 plan equals the plain copy "
                        f"({improvement * 100:+.2f}%)",
                    )
                else:
                    check_shape(
                        improvement > 0,
                        f"{key}: fusion reduces logical elapsed time "
                        f"({improvement * 100:.1f}%)",
                    )

    sp2_16_k8 = results[f"{IBM_SP2.name}/P16/k8"]
    check_shape(
        sp2_16_k8["improvement_pct"] >= 40.0,
        f"IBM SP2 P=16 k=8: >=40% elapsed-time reduction "
        f"({sp2_16_k8['improvement_pct']:.1f}%)",
    )

    write_trajectory(
        "fusion",
        "fused_move_plan_ablation",
        {
            "field": [N, N],
            "pattern": "k Parti row-block fields scattered onto k permuted "
                       "Chaos destinations; fused = one MovePlan execution",
            "k_values": list(K_VALUES),
        },
        results,
    )
    return results


def test_ablation_fusion(benchmark):
    benchmark.pedantic(run_ablation, rounds=1, iterations=1)


if __name__ == "__main__":
    run_ablation()
