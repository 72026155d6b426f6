"""Auto-mapper validation: analytical search vs exhaustive measurement.

For each of three workloads shaped like the paper's evaluation tables —
the §5.2 regular→irregular mesh remap (table 3), the reverse direction
with the irregular side pinned (table 4), and the §5.3 multiblock
boundary-section update with four fused fields (table 5) — and each
P ∈ {4, 8, 16, 64}:

1. ``search_mapping`` ranks the pruned candidate space analytically
   (host-side arithmetic, zero virtual-machine runs), after calibrating
   the build-tier coefficients once per workload at the smallest P;
2. every candidate is then *measured* under ``observe=True`` — the
   exhaustive grid the searcher is supposed to replace;
3. the gate: the auto-chosen mapping's measured total is within 5% of
   the exhaustive measured optimum; the search accounts for every
   candidate (evaluated + pruned = the measured grid) and runs no
   virtual machine (a spy on ``VirtualMachine.run`` counts 0 calls).

Results land in ``BENCH_autotune.json`` at the repo root: the
auto-mapper's decisions and their measured logical costs, guarded byte
for byte by ``python check.py bench-autotune``.

``--smoke`` shrinks to one workload at P ∈ {4, 8} and 4096 elements
(structure identical, minutes → seconds) and writes nothing.
"""

import sys

from common import check_shape, grid_sweep, print_header, write_trajectory
from repro.autotune import (
    CostModel,
    DistSpec,
    WorkloadSpec,
    calibrate,
    mapping_space,
    measure_mapping,
    search_mapping,
)
from repro.vmachine import IBM_SP2, VirtualMachine

SMOKE = "--smoke" in sys.argv

NELEMS = 4096 if SMOKE else 65536
PROC_COUNTS = (4, 8) if SMOKE else (4, 8, 16, 64)
TOLERANCE = 0.05

#: per-side distribution menu (regular kinds + the seeded partitioner
#: standing in for the application's)
MENU = (DistSpec("block"), DistSpec("cyclic"), DistSpec("irregular", seed=11))

#: the three table-shaped workloads: name -> (WorkloadSpec kwargs,
#: mapping_space kwargs pinning the side the application already owns)
WORKLOADS = {
    "table3_remap": (
        dict(pattern="permute", seed=3, reuse=10),
        dict(fixed_src=DistSpec("block"), dist_menu=MENU),
    ),
    "table4_reverse": (
        dict(pattern="permute", seed=4, reuse=10),
        dict(fixed_dst=DistSpec("irregular", seed=13), dist_menu=MENU),
    ),
    "table5_multiblock": (
        dict(pattern="section", seed=5, reuse=50, narrays=4),
        dict(fixed_src=DistSpec("block"),
             dist_menu=(DistSpec("block"), DistSpec("cyclic"))),
    ),
}
if SMOKE:
    WORKLOADS = {"table3_remap": WORKLOADS["table3_remap"]}


def _calibrated_model(name, wl_kwargs, space_kwargs) -> CostModel:
    """Fit the build-tier coefficients once per workload at the smallest
    P; the machine profile doesn't change with P, so the fit carries."""
    wl = WorkloadSpec(name, nelems=NELEMS, nprocs=PROC_COUNTS[0], **wl_kwargs)
    first = search_mapping(wl, **space_kwargs)
    return calibrate(wl, [p.mapping for p in first.ranked[:4]])


def vm_runs(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), how many times it called VirtualMachine.run)``."""
    real = VirtualMachine.run
    runs = 0

    def spy(self, *a, **kw):
        nonlocal runs
        runs += 1
        return real(self, *a, **kw)

    VirtualMachine.run = spy
    try:
        return fn(*args, **kwargs), runs
    finally:
        VirtualMachine.run = real


def run_autotune():
    print_header(
        f"Auto-mapper: analytical search vs exhaustive measurement "
        f"(n={NELEMS}, P={PROC_COUNTS}"
        + (", smoke)" if SMOKE else ")")
    )
    models = {
        name: _calibrated_model(name, wl_kwargs, space_kwargs)
        for name, (wl_kwargs, space_kwargs) in WORKLOADS.items()
    }
    all_results = {}
    for name, (wl_kwargs, space_kwargs) in WORKLOADS.items():

        def cell(profile, nprocs, name=name, wl_kwargs=wl_kwargs,
                 space_kwargs=space_kwargs):
            wl = WorkloadSpec(name, nelems=NELEMS, nprocs=nprocs, **wl_kwargs)
            search, search_runs = vm_runs(
                search_mapping, wl, model=models[name], **space_kwargs)

            # The exhaustive measured grid the searcher replaces: run
            # every structurally admissible candidate, including the
            # ones branch-and-bound pruned (the measurement must not
            # trust the model it is validating).
            measured = {mapping: measure_mapping(wl, mapping)
                        for mapping in mapping_space(wl, **space_kwargs)}

            chosen = search.best.mapping
            chosen_ms = measured[chosen].total_s * 1e3
            best_mapping = min(measured, key=lambda m: measured[m].total_s)
            best_ms = measured[best_mapping].total_s * 1e3
            worst_mapping = max(measured, key=lambda m: measured[m].total_s)
            worst_ms = measured[worst_mapping].total_s * 1e3
            gap = (chosen_ms - best_ms) / best_ms

            key = f"{name}/P{nprocs}"
            print(
                f"  {key:<28} chose {chosen.label():<44} "
                f"{chosen_ms:9.3f} ms (best {best_ms:9.3f} ms, "
                f"gap {gap * 100:4.1f}%, worst {worst_ms:9.3f} ms)"
            )
            print(
                f"  {'':<28} search: {search.evaluated} evaluated + "
                f"{search.pruned} pruned of {len(measured)} candidates, "
                f"{search_runs} machine runs"
            )
            check_shape(
                gap <= TOLERANCE,
                f"{key}: auto-chosen mapping within "
                f"{TOLERANCE:.0%} of measured optimum ({gap:.2%})",
            )
            check_shape(
                search.evaluated + search.pruned == len(measured),
                f"{key}: search accounts for every candidate "
                f"({search.evaluated} evaluated + {search.pruned} pruned "
                f"== {len(measured)})",
            )
            check_shape(
                search_runs == 0,
                f"{key}: analytical search ran no virtual machine "
                f"({search_runs} VirtualMachine.run calls)",
            )
            return {
                "workload": name,
                "chosen_mapping": chosen.label(),
                "chosen_measured_ms": chosen_ms,
                "best_mapping": best_mapping.label(),
                "best_measured_ms": best_ms,
                "worst_mapping": worst_mapping.label(),
                "worst_measured_ms": worst_ms,
                "optimality_gap_pct": gap * 100.0,
                "candidates": len(measured),
                "pruned_in_search": search.pruned,
                "mismap_penalty_ms": worst_ms - best_ms,
            }

        results = grid_sweep(cell, (IBM_SP2,), PROC_COUNTS)
        for key, row in results.items():
            all_results[f"{name}/{key.split('/')[-1]}"] = row

    if not SMOKE:
        write_trajectory(
            "autotune",
            "cost_model_auto_mapper",
            {
                "nelems": NELEMS,
                "proc_counts": list(PROC_COUNTS),
                "workloads": {
                    name: kw for name, (kw, _) in WORKLOADS.items()
                },
                "tolerance_pct": TOLERANCE * 100.0,
            },
            all_results,
        )
    return all_results


if __name__ == "__main__":
    run_autotune()
