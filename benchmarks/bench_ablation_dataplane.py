"""Ablation: the compiled data plane replays a run table in a few calls.

Before the data plane, every pack/unpack/local-copy walked its schedule
half run-by-run in Python (``RunList.gather``/``scatter``/``copy_runs``),
with a single-grid fast path that bailed to the loop the moment a run
table had more than one pitch.  The compiled plane lowers each half
*once* into a cached :class:`~repro.core.dataplane.MoveProgram` — one
``as_strided`` block copy per uniform stretch, or one fancy-index
operation over a cached dense index vector — so steady-state replays are
a handful of batched NumPy calls regardless of run count.

Two workload shapes the paper's section 5 moves at scale (65536
elements, the irregular-mesh size):

``regular``
    A piecewise-uniform section: two same-sized blocks whose row pitches
    differ, defeating the old single-grid fast path (8 191 runs).  The
    compiled plane runs it as a ``grid`` program of strided-view copies.
``irregular``
    Run-stored shuffled blocks (8-16 contiguous elements each, block
    order permuted): 10 929 short runs, the Chaos-style mesh remap shape.
    The compiled plane replays it as one ``index`` program, a
    fancy-index operation over the cached dense index vector.

Shape expectations, all logical: pack, unpack and direct copy are
byte-identical to the NumPy oracle (``data[idx]``, ``sink[idx] =
values``); the regular profile lowers to ``grid`` with at most 4 blocks
and the irregular one to ``index``; one warm pack makes at most 32
Python calls (measured: 22 regular, 4 irregular), where the per-run loop
it replaced made one iteration per run.

The end-to-end ``elapsed_ms`` fields are deterministic logical-clock
values, guarded byte for byte by ``python check.py bench``.  Results
land in ``BENCH_dataplane.json`` at the repo root.
"""

import numpy as np

from common import check_shape, print_header, python_calls, write_trajectory
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.core.dataplane import compile_offsets, copy_compiled
from repro.core.runs import RunList
from repro.vmachine import IBM_SP2, VirtualMachine

N = 65536                    # paper scale: the 65536-point irregular mesh


# ---------------------------------------------------------------------------
# Workload profiles.
# ---------------------------------------------------------------------------


def regular_offsets() -> np.ndarray:
    """Piecewise-uniform: two 2048-row blocks, count 16, pitches 24 / 20.

    One pitch change was enough to defeat the old single-grid fast
    path, so the per-run executor walked all 4096 rows in Python.
    """
    rows, count = 2048, 16
    a = (24 * np.arange(rows)[:, None] + np.arange(count)[None, :]).ravel()
    b = a.max() + 8 + (
        20 * np.arange(rows)[:, None] + np.arange(count)[None, :]
    ).ravel()
    return np.concatenate([a, b])


def irregular_offsets() -> np.ndarray:
    """Shuffled contiguous blocks of 8-16 elements covering [0, N).

    Small enough to stay genuinely irregular, large enough that the
    run form stays below the hybrid dense-storage threshold - the
    per-run executor walked every run in Python.
    """
    rng = np.random.default_rng(42)
    blocks = []
    pos = 0
    while pos < N:
        size = int(rng.integers(8, 17))
        blocks.append(np.arange(pos, min(pos + size, N)))
        pos += size
    rng.shuffle(blocks)
    return np.concatenate(blocks)


PROFILES = {
    "regular": regular_offsets,
    "irregular": irregular_offsets,
}
#: the program kind each profile lowers to
LOWERS_TO = {"regular": "grid", "irregular": "index"}


def elapsed_end_to_end(profile_name: str) -> float:
    """Deterministic logical elapsed time (ms) of an end-to-end copy of
    the profile's offsets on the IBM SP2 at P=4 — the guarded anchor
    proving the compiled plane charges exactly the old costs."""
    n = 4096  # smaller end-to-end instance; clock identity is scale-free
    if profile_name == "regular":
        idx = regular_offsets()
        idx = idx[idx < n]
    else:
        idx = irregular_offsets()[:n]

    m = len(idx)

    def spmd(comm):
        side = int(np.sqrt(n))
        A = BlockPartiArray.from_function(
            comm, (side, side), lambda i, j: i * side + j * 1.0
        )
        B = ChaosArray.zeros(comm, np.arange(m) % comm.size)
        sched = mc_compute_schedule(
            comm,
            "blockparti", A,
            mc_new_set_of_regions(IndexRegion(np.arange(m))),
            "chaos", B,
            mc_new_set_of_regions(IndexRegion(np.argsort(np.argsort(idx)))),
        )
        mc_copy(comm, sched, A, B)
        return None

    return VirtualMachine(4, profile=IBM_SP2).run(spmd).elapsed_ms


def run_ablation():
    print_header(
        "Ablation: compiled data plane (cached MovePrograms) — "
        f"{N} elements, steady state"
    )
    results = {}
    for name, make in PROFILES.items():
        idx = make()
        n = len(idx)
        rl = RunList.from_dense(idx)
        prog = compile_offsets(rl)
        data = np.random.default_rng(7).random(idx.max() + 1)
        values = np.random.default_rng(8).random(n)

        # -- pack (gather), unpack (scatter), direct copy vs the oracle -------
        out = np.empty(n)
        prog.gather(data, out=out)
        check_shape(np.array_equal(out, data[idx]),
                    f"{name}: compiled gather byte-identical to data[idx]")
        sink = np.zeros_like(data)
        oracle = np.zeros_like(data)
        prog.scatter(sink, values)
        oracle[idx] = values
        check_shape(np.array_equal(sink, oracle),
                    f"{name}: compiled scatter byte-identical to sink[idx] = values")
        dst = np.zeros(n)
        dst_prog = compile_offsets(RunList.from_dense(np.arange(n)))
        copy_compiled(prog, data, dst_prog, dst)
        check_shape(np.array_equal(dst, data[idx]),
                    f"{name}: compiled direct copy byte-identical to data[idx]")

        blocks = len(prog.grids) if prog.kind == "grid" else 0
        check_shape(prog.kind == LOWERS_TO[name] and blocks <= 4,
                    f"{name}: {rl.nruns} runs lower to {prog.kind} "
                    f"({blocks} blocks), want {LOWERS_TO[name]} (<=4 blocks)")
        calls = python_calls(prog.gather, data, out)
        check_shape(calls <= 32,
                    f"{name}: one warm pack makes <=32 Python calls ({calls}), "
                    f"not one per run ({rl.nruns})")
        results[name] = {
            "profile": name,
            "nprocs": 1,
            "nelements": n,
            "nruns": rl.nruns,
            "program_kind": prog.kind,
            # deterministic logical clock of an end-to-end copy — the
            # guarded proof the compiled plane is clock-neutral
            "elapsed_ms": elapsed_end_to_end(name),
        }

    write_trajectory(
        "dataplane",
        "compiled_dataplane_ablation",
        {
            "nelements": N,
            # the committed record's wording, kept so the file stays byte-identical
            "pattern": "piecewise-uniform two-pitch section (regular) and "
                       "shuffled 8-16 element blocks (irregular); loop "
                       "reference is the pre-dataplane per-run executor",
            "operations": ["pack", "unpack", "copy"],
        },
        results,
    )
    return results


if __name__ == "__main__":
    run_ablation()
