"""Ablation: reliable-delivery protocol overhead on the data plane.

The historical transport is perfectly reliable, so the paper's executor
sends raw data envelopes.  The opt-in ``Reliability`` layer
(``repro.vmachine.reliability``) adds per-channel sequence numbers,
cumulative acks, duplicate suppression and bounded retransmission — the
robustness needed to survive a faulty channel, paid for in extra control
messages and (under loss) charged RTO backoff.

Three configurations of the same permutation move, at P in {4, 8, 16} on
both machine profiles:

- **raw** — the historical zero-overhead transport (baseline);
- **reliable/clean** — protocol enabled on a perfect channel: the
  overhead is the ack traffic plus the closing fence;
- **reliable/lossy** — protocol on a seeded faulty channel (10% each of
  drop/dup/reorder/delay on the data class): adds retransmissions and
  RTO waits charged to the logical clock.

Shape expectations: the destination array is byte-identical across all
three configurations (that is the point of the protocol); reliable/clean
costs more than raw; reliable/lossy costs more than reliable/clean and
records retransmissions.  Results land in ``BENCH_reliability.json`` at
the repo root (logical numbers only, guarded by ``python check.py bench``).
"""

import functools

import numpy as np

from common import check_shape, print_header, write_trajectory
from repro.blockparti import BlockPartiArray
from repro.core import (
    IndexRegion,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.core.universe import SingleProgramUniverse
from repro.distrib.section import Section
from repro.vmachine import ALPHA_FARM_ATM, IBM_SP2, VirtualMachine
from repro.vmachine.faults import FaultPlan, FaultRates

N = 128                      # global array is N x N doubles
PROC_COUNTS = (4, 8, 16)
PROFILES = (IBM_SP2, ALPHA_FARM_ATM)
SEED = 1997

PERM = np.random.default_rng(SEED).permutation(N * N)


def _lossy_plan():
    return FaultPlan(
        seed=SEED,
        rates=FaultRates(drop=0.1, dup=0.1, reorder=0.1, delay=0.1),
    )


@functools.cache
def run_copy(nprocs: int, profile, mode: str):
    """(max per-rank copy clock delta, per-rank dest arrays, stats)."""

    def spmd(comm):
        A = BlockPartiArray.zeros(comm, (N, N), nprocs_grid=(comm.size, 1))
        B = BlockPartiArray.zeros(comm, (N, N), nprocs_grid=(comm.size, 1))
        A.local[:] = np.arange(len(A.local), dtype=np.float64) + 1e5 * comm.rank
        src = mc_new_set_of_regions(
            SectionRegion(Section((0, 0), (N, N), (1, 1)))
        )
        dst = mc_new_set_of_regions(IndexRegion(PERM))
        sched = mc_compute_schedule(
            comm, "blockparti", A, src, "blockparti", B, dst
        )
        universe = SingleProgramUniverse(comm)
        if mode != "raw":
            universe.enable_reliability()
        comm.barrier()
        t0 = comm.process.clock
        mc_copy(universe, sched, A, B)
        return comm.process.clock - t0, B.local.copy()

    faults = _lossy_plan() if mode == "lossy" else None
    vm = VirtualMachine(nprocs, profile=profile, faults=faults,
                        recv_timeout_s=120.0)
    result = vm.run(spmd)
    elapsed = max(v[0] for v in result.values)
    dest = [v[1] for v in result.values]
    stats = {
        "rel_acks_sent": result.total_stat("rel_acks_sent"),
        "rel_retransmits": result.total_stat("rel_retransmits"),
        "rel_rto_wait_s": result.total_stat("rel_rto_wait_s"),
        "faults_drop": result.total_stat("faults_drop"),
    }
    return elapsed, dest, stats


def run_ablation():
    print_header(
        f"Ablation: reliable-delivery protocol overhead "
        f"({N}x{N} doubles, global permutation move)"
    )
    results = {}
    for profile in PROFILES:
        for nprocs in PROC_COUNTS:
            t_raw, d_raw, _ = run_copy(nprocs, profile, "raw")
            t_rel, d_rel, s_rel = run_copy(nprocs, profile, "reliable")
            t_loss, d_loss, s_loss = run_copy(nprocs, profile, "lossy")
            identical = all(
                np.array_equal(a, b) and np.array_equal(a, c)
                for a, b, c in zip(d_raw, d_rel, d_loss)
            )
            over_clean = t_rel / t_raw - 1.0
            over_lossy = t_loss / t_raw - 1.0
            key = f"{profile.name}/P{nprocs}"
            results[key] = {
                "profile": profile.name,
                "nprocs": nprocs,
                "raw_ms": t_raw * 1e3,
                "reliable_clean_ms": t_rel * 1e3,
                "reliable_lossy_ms": t_loss * 1e3,
                "overhead_clean_pct": over_clean * 100.0,
                "overhead_lossy_pct": over_lossy * 100.0,
                "acks_clean": s_rel["rel_acks_sent"],
                "retransmits_lossy": s_loss["rel_retransmits"],
                "rto_wait_lossy_ms": s_loss["rel_rto_wait_s"] * 1e3,
                "drops_lossy": s_loss["faults_drop"],
                "identical_destination": bool(identical),
            }
            print(
                f"  {profile.name:<20} P={nprocs:<3} "
                f"raw {t_raw * 1e3:8.3f} ms   "
                f"rel {t_rel * 1e3:8.3f} ms (+{over_clean * 100:5.1f}%)   "
                f"lossy {t_loss * 1e3:8.3f} ms (+{over_lossy * 100:5.1f}%)"
            )
            check_shape(
                identical,
                f"{key}: destination identical across raw/reliable/lossy",
            )
            check_shape(
                t_rel > t_raw,
                f"{key}: the protocol is not free "
                f"(+{over_clean * 100:.1f}% on a clean channel)",
            )
            check_shape(
                t_loss >= t_rel and s_loss["rel_retransmits"] > 0,
                f"{key}: loss costs retransmissions "
                f"({int(s_loss['rel_retransmits'])} retransmits, "
                f"{int(s_loss['faults_drop'])} drops)",
            )

    write_trajectory(
        "reliability",
        "reliability_protocol_ablation",
        {
            "array": [N, N],
            "pattern": "full-array global permutation (IndexRegion)",
            "lossy_rates": {"drop": 0.1, "dup": 0.1, "reorder": 0.1,
                            "delay": 0.1},
            "seed": SEED,
        },
        results,
    )
    return results


if __name__ == "__main__":
    run_ablation()
