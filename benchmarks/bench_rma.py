"""Benchmark: one-sided windows driving sparse CP-ALS through containers.

The coupling pattern the two-sided schedules cannot express cheaply:
data-dependent assembly (duplicate COO entries summed into a
:class:`~repro.containers.DistHashMap`) followed by an iterative solve
whose every remote access is one-sided — factor rows fetched with window
``get``, MTTKRP partials scattered with window ``accumulate`` (or pushed
through a :class:`~repro.containers.DistQueue` in the ``queue`` variant).
The receiver never posts a matching receive; an epoch's operations cross
the wire as one batch per processor pair at the fence and are charged on
the logical clock like that one send, so the numbers below are
deterministic trajectories.

Configurations: P in {4, 8, 16} on the SP2 profile, both scatter
variants.  Every cell cross-checks the gathered factors against the
serial NumPy oracle (rtol 1e-10) and records the window operation and
byte counts, and the messages the run really sent for them, next to the
clock times.  Results land in
``BENCH_rma.json`` at the repo root, guarded by ``python check.py bench``.
"""

import functools

import numpy as np

from common import check_shape, print_header, write_trajectory
from repro.apps.cp_als import cp_als_serial, cp_als_spmd
from repro.vmachine import IBM_SP2, VirtualMachine

SHAPE = (12, 11, 10)
RANK_R = 3
NNZ = 200
ITERS = 3
SEED = 7
PROC_COUNTS = (4, 8, 16)
VARIANTS = ("accumulate", "queue")

RMA_COUNTERS = (
    "rma_puts", "rma_gets", "rma_accs", "rma_fetch_ops",
    "rma_bytes_put", "rma_bytes_got", "rma_fences",
    "hashmap_writes", "hashmap_write_rounds", "queue_pushes",
)


@functools.cache
def oracle():
    return cp_als_serial(SHAPE, RANK_R, NNZ, ITERS, SEED)


@functools.cache
def run_cp_als(nprocs: int, variant: str):
    def spmd(comm):
        t0 = comm.process.clock
        out = cp_als_spmd(comm, shape=SHAPE, R=RANK_R, nnz=NNZ,
                          iters=ITERS, seed=SEED,
                          use_queue=(variant == "queue"))
        return comm.process.clock - t0, out

    vm = VirtualMachine(nprocs, profile=IBM_SP2, recv_timeout_s=120.0)
    result = vm.run(spmd)
    elapsed = max(v[0] for v in result.values)
    outs = [v[1] for v in result.values]
    counters = {
        k: sum(o.stats.get(k, 0) for o in outs) for k in RMA_COUNTERS
    }
    counters["messages_sent"] = result.total_stat("messages_sent")
    match = all(
        np.allclose(o.factors[m], oracle()[m], rtol=1e-10, atol=1e-12)
        for o in outs for m in range(3)
    )
    return elapsed, outs, counters, match


def run_bench():
    print_header(
        f"One-sided windows: sparse CP-ALS {SHAPE} rank {RANK_R}, "
        f"{NNZ} raw nonzeros, {ITERS} sweeps"
    )
    results = {}
    for nprocs in PROC_COUNTS:
        for variant in VARIANTS:
            elapsed, outs, counters, match = run_cp_als(nprocs, variant)
            window_ops = int(
                counters["rma_puts"] + counters["rma_gets"]
                + counters["rma_accs"] + counters["rma_fetch_ops"])
            messages_sent = int(counters["messages_sent"])
            one_sided_bytes = int(
                counters["rma_bytes_put"] + counters["rma_bytes_got"])
            key = f"IBM_SP2/P{nprocs}/{variant}"
            results[key] = {
                "profile": "IBM_SP2",
                "nprocs": nprocs,
                "variant": variant,
                "cp_als_ms": elapsed * 1e3,
                "window_ops": window_ops,
                "messages_sent": messages_sent,
                "one_sided_bytes": one_sided_bytes,
                "fences": int(counters["rma_fences"]),
                "hashmap_write_rounds": int(
                    counters["hashmap_write_rounds"]),
                "queue_pushes": int(counters["queue_pushes"]),
                "dedup_nnz": int(sum(o.local_nnz for o in outs)),
                "oracle_match": bool(match),
            }
            print(
                f"  P={nprocs:<3} {variant:<11} "
                f"{elapsed * 1e3:9.3f} ms   "
                f"{window_ops:6d} window ops -> "
                f"{messages_sent:6d} messages   "
                f"{one_sided_bytes:8d} bytes   oracle "
                f"{'OK' if match else 'MISMATCH'}"
            )
            check_shape(match, f"{key}: factors match the serial oracle "
                               f"(rtol 1e-10)")
            check_shape(window_ops > 0,
                        f"{key}: traffic is one-sided "
                        f"({window_ops} window ops)")
    for nprocs in PROC_COUNTS:
        acc = results[f"IBM_SP2/P{nprocs}/accumulate"]
        que = results[f"IBM_SP2/P{nprocs}/queue"]
        check_shape(
            que["one_sided_bytes"] > acc["one_sided_bytes"],
            f"P{nprocs}: the queue detour moves extra bytes — records "
            f"carry their row index ({que['one_sided_bytes']} vs "
            f"{acc['one_sided_bytes']})",
        )

    write_trajectory(
        "rma",
        "one_sided_cp_als",
        {
            "tensor": list(SHAPE),
            "cp_rank": RANK_R,
            "raw_nnz": NNZ,
            "sweeps": ITERS,
            "seed": SEED,
        },
        results,
    )
    return results


if __name__ == "__main__":
    run_bench()
