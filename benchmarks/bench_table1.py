"""Paper Table 1: inspector/executor time for the coupled meshes (§5.1).

"Inspector time (total) and executor time (per iteration) for regular and
irregular meshes in one program on IBM SP2, in msec."

Workload: 256x256 regular mesh (Multiblock Parti) + 65536-point irregular
mesh (Chaos), intra-mesh schedules and sweeps only.
"""

from common import record, PROC_COUNTS, check_shape, coupled_single, print_header, print_series

PAPER_INSPECTOR = {2: 1533, 4: 1340, 8: 667, 16: 684}
PAPER_EXECUTOR = {2: 91, 4: 66, 8: 65, 16: 53}


def run_table1():
    results = {p: coupled_single(p, "mc-coop") for p in PROC_COUNTS}
    print_header("Table 1: inspector (total) / executor (per iteration)")
    print_series(
        "inspector", PROC_COUNTS,
        [results[p].inspector_ms for p in PROC_COUNTS],
        [PAPER_INSPECTOR[p] for p in PROC_COUNTS],
    )
    print_series(
        "executor", PROC_COUNTS,
        [results[p].executor_per_iter_ms for p in PROC_COUNTS],
        [PAPER_EXECUTOR[p] for p in PROC_COUNTS],
    )
    insp = [results[p].inspector_ms for p in PROC_COUNTS]
    execu = [results[p].executor_per_iter_ms for p in PROC_COUNTS]
    check_shape(insp[0] > insp[-1] * 2, "inspector time scales down with P")
    check_shape(execu[0] > execu[-1], "executor time scales down with P")
    check_shape(
        500 < insp[0] < 5000, "inspector at P=2 lands in the paper's regime"
    )
    check_shape(
        insp[0] > 10 * execu[0],
        "one-time inspector >> per-iteration executor (amortization story)",
    )
    # Partition sensitivity: the paper does not state its partitioner; a
    # locality-free (block-on-random-ids) partition reproduces the paper's
    # executor magnitude, while RCB (our default) runs leaner.
    from common import MESH_SHAPE, paper_mapping, paper_mesh
    from repro.apps.coupled import run_coupled_single_program

    blockpart = run_coupled_single_program(
        2, MESH_SHAPE, paper_mesh(), paper_mapping(),
        timesteps=1, remap="mc-coop", partition="block",
    )
    print(f"  (block partition @P=2: executor "
          f"{blockpart.executor_per_iter_ms:.0f} ms vs paper's 91 ms — the "
          "executor gap to the paper is partition locality, not the model)")
    check_shape(
        0.5 * PAPER_EXECUTOR[2] < blockpart.executor_per_iter_ms
        < 2.0 * PAPER_EXECUTOR[2],
        "a locality-free partition reproduces the paper's executor magnitude",
    )
    record("table1", {
        "block_partition_executor_ms_p2": blockpart.executor_per_iter_ms,
        "procs": list(PROC_COUNTS),
        "inspector_ms": insp,
        "executor_per_iter_ms": execu,
        "paper_inspector_ms": [PAPER_INSPECTOR[p] for p in PROC_COUNTS],
        "paper_executor_ms": [PAPER_EXECUTOR[p] for p in PROC_COUNTS],
    })
    return results


if __name__ == "__main__":
    run_table1()
