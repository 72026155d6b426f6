"""Benchmark: sparse CP-ALS, hash-map assembly then a scheduled sweep.

Data-dependent assembly (duplicate COO entries summed into a
:class:`~repro.containers.DistHashMap` in one buffered window epoch) followed
by an iterative solve whose access pattern is fixed: an inspector run
once per solve tells each owner which of its factor rows each reader
reads, and every fetch and scatter is then one message per communicating
(owner, reader) pair.  The only fence is the assembly's write.  Every
message is charged on the logical clock, so the numbers below are
deterministic trajectories.

Configurations: P in {4, 8, 16} on the SP2 profile.  Every cell
cross-checks the gathered factors against the serial NumPy oracle (rtol
1e-10), records their sha256 (a change of summation order moves it), and
records the window operation and byte counts and the messages the run
really sent next to the clock times, the solve's split into the slowest
rank's assembly and sweep spans among them.  Results land in
``BENCH_rma.json`` at the repo root, guarded by ``python check.py bench``.
"""

import functools
import hashlib

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

RMA_COUNTERS = (
    "rma_puts", "rma_gets", "rma_accs", "rma_fetch_ops",
    "rma_bytes_put", "rma_bytes_got", "rma_fences",
    "hashmap_writes",
)


@functools.cache
def oracle():
    return cp_als_serial(SHAPE, RANK_R, NNZ, ITERS, SEED)


@functools.cache
def run_cp_als(nprocs: int):
    def spmd(comm):
        t0 = comm.process.clock
        out = cp_als_spmd(comm, shape=SHAPE, R=RANK_R, nnz=NNZ,
                          iters=ITERS, seed=SEED)
        return comm.process.clock - t0, out

    vm = VirtualMachine(nprocs, profile=IBM_SP2, recv_timeout_s=120.0)
    result = vm.run(spmd)
    elapsed = max(v[0] for v in result.values)
    outs = [v[1] for v in result.values]
    counters = {
        k: sum(o.stats.get(k, 0) for o in outs) for k in RMA_COUNTERS
    }
    counters["messages_sent"] = result.total_stat("messages_sent")
    spans = {"assembly_ms": result.span_ms("cp_als:assembly"),
             "sweep_ms": result.span_ms("cp_als:iterate")}
    match = all(
        np.allclose(o.factors[m], oracle()[m], rtol=1e-10, atol=1e-12)
        for o in outs for m in range(3)
    )
    return elapsed, outs, counters, spans, match


def run_bench():
    print_header(
        f"Sparse CP-ALS {SHAPE} rank {RANK_R}, {NNZ} raw nonzeros, "
        f"{ITERS} sweeps: hash-map assembly, scheduled sweep"
    )
    results = {}
    for nprocs in PROC_COUNTS:
        elapsed, outs, counters, spans, match = run_cp_als(nprocs)
        window_ops = int(
            counters["rma_puts"] + counters["rma_gets"]
            + counters["rma_accs"] + counters["rma_fetch_ops"])
        messages_sent = int(counters["messages_sent"])
        one_sided_bytes = int(
            counters["rma_bytes_put"] + counters["rma_bytes_got"])
        digests = {hashlib.sha256(b"".join(f.tobytes() for f in o.factors))
                   .hexdigest() for o in outs}
        key = f"IBM_SP2/P{nprocs}"
        results[key] = {
            "profile": "IBM_SP2",
            "nprocs": nprocs,
            "cp_als_ms": elapsed * 1e3,
            **spans,
            "window_ops": window_ops,
            "messages_sent": messages_sent,
            "one_sided_bytes": one_sided_bytes,
            "fences": int(counters["rma_fences"]),
            "dedup_nnz": int(sum(o.local_nnz for o in outs)),
            "oracle_match": bool(match),
            "factors_sha256": min(digests),
        }
        print(
            f"  P={nprocs:<3} {elapsed * 1e3:9.3f} ms   "
            f"{window_ops:6d} window ops   {messages_sent:6d} messages   "
            f"{one_sided_bytes:8d} bytes   oracle "
            f"{'OK' if match else 'MISMATCH'}"
        )
        check_shape(match, f"{key}: factors match the serial oracle "
                           f"(rtol 1e-10)")
        check_shape(len(digests) == 1,
                    f"{key}: every rank gathers the same factor bytes")
        per_rank = [int(o.stats.get("rma_fences", 0)) for o in outs]
        check_shape(per_rank == [1] * nprocs,
                    f"{key}: every rank fences exactly once per solve, "
                    f"the assembly's write ({per_rank})")

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
