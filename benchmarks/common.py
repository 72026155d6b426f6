"""Shared machinery for the reproduction benchmarks.

Every module in this directory regenerates one table or figure of the
paper's evaluation (section 5).  Experiments run at the paper's full
scale on the virtual machine; the numbers printed are logical-clock
milliseconds next to the paper's measured 1996 values.  Expectation:
*shape* agreement (who wins, scaling, crossovers), not absolute equality.

Run with output visible::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.apps.coupled import (
    CoupledTimings,
    run_coupled_single_program,
    run_coupled_two_programs,
)
from repro.apps.matvec_cs import MatvecTimings, run_client_server_matvec
from repro.apps.meshes import delaunay_mesh, full_remap_mapping

# ---------------------------------------------------------------------------
# Paper workload scales (section 5.1): 256x256 regular mesh, 65536-point
# irregular mesh, whole-mesh remap.
# ---------------------------------------------------------------------------

MESH_SHAPE = (256, 256)
NPOINTS = MESH_SHAPE[0] * MESH_SHAPE[1]
PROC_COUNTS = (2, 4, 8, 16)


@functools.cache
def paper_mesh():
    """The 65536-point unstructured mesh (Delaunay substitute)."""
    return delaunay_mesh(NPOINTS, seed=1997)


@functools.cache
def paper_mapping():
    """Whole-mesh regular<->irregular correspondence (permuted)."""
    return full_remap_mapping(MESH_SHAPE, NPOINTS, seed=7)


@functools.cache
def coupled_single(nprocs: int, remap: str) -> CoupledTimings:
    """Cached section-5.1 run (Tables 1 and 2 share these)."""
    return run_coupled_single_program(
        nprocs, MESH_SHAPE, paper_mesh(), paper_mapping(),
        timesteps=1, remap=remap,
    )


@functools.cache
def coupled_two(preg: int, pirreg: int) -> CoupledTimings:
    """Cached section-5.2 run (Tables 3 and 4 share these)."""
    return run_coupled_two_programs(
        preg, pirreg, MESH_SHAPE, paper_mesh(), paper_mapping(), timesteps=1
    )


@functools.cache
def matvec(nclient: int, nserver: int, nvectors: int) -> MatvecTimings:
    """Cached section-5.4 run (Figures 10-15 share these)."""
    return run_client_server_matvec(nclient, nserver, n=512, nvectors=nvectors)


# ---------------------------------------------------------------------------
# Printing helpers
# ---------------------------------------------------------------------------


RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

_current_experiment: list = []


# ---------------------------------------------------------------------------
# Exhaustive-grid machinery (shared by the ablation benches and
# bench_autotune): sweep a cell function over profiles x processor counts
# and persist the machine-readable trajectory at the repo root.
# ---------------------------------------------------------------------------


def grid_sweep(cell, profiles, proc_counts) -> dict:
    """Run ``cell(profile, nprocs)`` over the full grid.

    ``cell`` returns a dict of JSON-friendly numbers for one grid point;
    the sweep keys it as ``"<profile>/P<nprocs>"`` and stamps
    ``profile``/``nprocs`` in if the cell didn't.
    """
    results = {}
    for profile in profiles:
        for nprocs in proc_counts:
            row = cell(profile, nprocs)
            row.setdefault("profile", profile.name)
            row.setdefault("nprocs", nprocs)
            results[f"{profile.name}/P{nprocs}"] = row
    return results


def write_trajectory(name: str, benchmark: str, workload, results) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root.

    The committed trajectory files share one shape — ``{"benchmark",
    "workload", "results"}`` — and hold logical numbers only (model
    clocks, counts, flags): regenerating one must reproduce it byte for
    byte, which is how ``python check.py bench`` guards it.  Wall-clock
    measurements are printed and shape-checked, never passed here.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(
            {"benchmark": benchmark, "workload": workload, "results": results},
            indent=2,
            default=_jsonify,
        )
        + "\n"
    )
    return path


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    # Start a fresh record for this experiment.
    _current_experiment.clear()
    _current_experiment.append(title)


def record(name: str, payload) -> None:
    """Persist one experiment's data under benchmarks/results/<name>.json.

    For the paper's tables and figures and the record-only ablations;
    numbers (and lists/dicts of numbers) only, deterministic ones —
    ``report.py`` renders the records into EXPERIMENTS.md tables and
    ``python check.py`` requires re-runs to reproduce them byte for byte.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    out = {
        "experiment": name,
        "title": _current_experiment[0] if _current_experiment else name,
        "data": payload,
    }
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(out, indent=2, default=_jsonify) + "\n")


def _jsonify(obj):
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def print_series(label: str, procs, ours, paper=None, unit="ms") -> None:
    cols = "".join(f"{p:>10}" for p in procs)
    print(f"{'':28}{cols}")
    row = "".join(f"{v:>10.0f}" for v in ours)
    print(f"{label + ' (ours, ' + unit + ')':<28}{row}")
    if paper is not None:
        prow = "".join(f"{v:>10.0f}" for v in paper)
        print(f"{label + ' (paper)':<28}{prow}")


def check_shape(condition: bool, message: str) -> None:
    """Record a shape expectation; fail the benchmark if violated."""
    status = "OK " if condition else "FAIL"
    print(f"  [{status}] {message}")
    assert condition, f"shape expectation violated: {message}"
