"""Paper Table 2: remap schedule build + copy, Chaos vs Meta-Chaos (§5.1).

"Schedule build time (total) and data copy time (per iteration) for
regular and irregular meshes in one program on IBM SP2, in msec."

Three implementations of the regular<->irregular whole-mesh remap:

- Chaos alone (regular mesh wrapped in a pointwise translation table);
- Meta-Chaos, cooperation method;
- Meta-Chaos, duplication method.
"""

from common import record, PROC_COUNTS, check_shape, coupled_single, print_header, print_series

PAPER = {
    "chaos": {"sched": {2: 1099, 4: 830, 8: 437, 16: 215},
              "copy": {2: 64, 4: 52, 8: 38, 16: 33}},
    "mc-coop": {"sched": {2: 1509, 4: 832, 8: 436, 16: 215},
                "copy": {2: 71, 4: 50, 8: 32, 16: 21}},
    "mc-dup": {"sched": {2: 2768, 4: 1645, 8: 1025, 16: 745},
               "copy": {2: 70, 4: 50, 8: 33, 16: 21}},
}
LABELS = {"chaos": "Chaos", "mc-coop": "MC cooperation", "mc-dup": "MC duplication"}


def run_table2():
    results = {
        backend: {p: coupled_single(p, backend) for p in PROC_COUNTS}
        for backend in ("chaos", "mc-coop", "mc-dup")
    }
    print_header("Table 2: remap schedule build (total) / copy (per iteration)")
    for backend in ("chaos", "mc-coop", "mc-dup"):
        print_series(
            f"{LABELS[backend]} sched", PROC_COUNTS,
            [results[backend][p].sched_ms for p in PROC_COUNTS],
            [PAPER[backend]["sched"][p] for p in PROC_COUNTS],
        )
        print_series(
            f"{LABELS[backend]} copy", PROC_COUNTS,
            [results[backend][p].copy_per_iter_ms for p in PROC_COUNTS],
            [PAPER[backend]["copy"][p] for p in PROC_COUNTS],
        )

    coop = results["mc-coop"]
    dup = results["mc-dup"]
    chaos = results["chaos"]
    for p in PROC_COUNTS:
        ratio = dup[p].sched_ms / coop[p].sched_ms
        check_shape(
            1.4 < ratio < 3.6,
            f"P={p}: duplication ~2x cooperation (ratio {ratio:.2f})",
        )
        rel = coop[p].sched_ms / chaos[p].sched_ms
        check_shape(
            0.5 < rel < 2.0,
            f"P={p}: MC cooperation within 2x of native Chaos ({rel:.2f})",
        )
        check_shape(
            coop[p].copy_per_iter_ms <= chaos[p].copy_per_iter_ms * 1.15,
            f"P={p}: MC copy not slower than Chaos copy "
            f"({coop[p].copy_per_iter_ms:.0f} vs {chaos[p].copy_per_iter_ms:.0f})",
        )
    check_shape(
        coop[2].sched_ms > 3.5 * coop[16].sched_ms,
        "cooperation schedule build scales down with P",
    )
    record("table2", {
        "procs": list(PROC_COUNTS),
        **{
            f"{b}_{what}": [
                getattr(results[b][p], attr) for p in PROC_COUNTS
            ]
            for b in ("chaos", "mc-coop", "mc-dup")
            for what, attr in (("sched_ms", "sched_ms"),
                               ("copy_ms", "copy_per_iter_ms"))
        },
        "paper": PAPER,
    })
    return results


if __name__ == "__main__":
    run_table2()
