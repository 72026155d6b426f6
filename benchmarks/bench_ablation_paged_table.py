"""Ablation: replicated vs paged (distributed) translation tables.

The replicated table dereferences locally but costs O(N) memory *per
rank* — the very property that makes the duplication method "not
practical" across programs (§5.1).  The paged table stores O(N/P) per
rank but pays a request/reply communication round per dereference batch.
This ablation quantifies the trade-off the paper's design discussion
rests on.
"""

import functools

import numpy as np

from common import check_shape, print_header
from repro.chaos import PagedTranslationTable, TranslationTable
from repro.vmachine import VirtualMachine

N = 65536
OWNERS = np.random.default_rng(41).integers(0, 16, N)


@functools.cache
def run_one(nprocs: int, paged: bool):
    queries = np.random.default_rng(42).integers(0, N, N // 4)

    def spmd(comm):
        owners = OWNERS % comm.size
        if paged:
            table = PagedTranslationTable(comm, owners)
        else:
            table = TranslationTable.from_owners(owners, comm.size)
        mine = queries[comm.rank :: comm.size]
        comm.barrier()
        t0 = comm.process.clock
        if paged:
            table.dereference(mine)
        else:
            table.dereference(mine)
        return (comm.process.clock - t0, table.nbytes)

    res = VirtualMachine(nprocs).run(spmd)
    time_ms = max(v[0] for v in res.values) * 1e3
    mem = max(v[1] for v in res.values)
    return time_ms, mem


def run_ablation():
    print_header("Ablation: replicated vs paged translation table "
                 f"({N}-entry table, {N // 4} lookups)")
    print(f"{'P':>4}{'replicated ms':>16}{'paged ms':>12}"
          f"{'repl mem/rank':>16}{'paged mem/rank':>16}")
    for p in (2, 4, 8, 16):
        r_t, r_m = run_one(p, False)
        p_t, p_m = run_one(p, True)
        print(f"{p:>4}{r_t:>16.1f}{p_t:>12.1f}{r_m:>16,}{p_m:>16,}")
        check_shape(
            p_m <= r_m / p + 64,
            f"P={p}: paged table memory scales down ~1/P",
        )
        check_shape(
            p_t >= r_t,
            f"P={p}: paged dereference is never faster (pays a comm round)",
        )
    r16_t, _ = run_one(16, False)
    p16_t, _ = run_one(16, True)
    check_shape(
        p16_t < 4 * r16_t,
        "the paged penalty stays bounded (batched request/reply)",
    )


if __name__ == "__main__":
    run_ablation()
