"""Ablation: compiled data plane vs the per-run Python loop executors.

Before the data plane, every pack/unpack/local-copy walked its schedule
half run-by-run in Python (``RunList.gather``/``scatter``/``copy_runs``),
with a single-grid fast path that bailed to the loop the moment a run
table had more than one pitch.  The compiled plane lowers each half
*once* into a cached :class:`~repro.core.dataplane.MoveProgram` — one
``as_strided`` block copy per uniform stretch, or one fancy-index
operation over a cached dense index vector — so steady-state replays are
a handful of batched NumPy calls regardless of run count.

This ablation measures the *wall-clock* cost of the three data-plane
operations (pack / unpack / direct copy) under both executions, on the
two workload shapes the paper's section 5 moves at scale (65536
elements, the irregular-mesh size):

``regular``
    A piecewise-uniform section: two same-sized blocks whose row pitches
    differ, defeating the old single-grid fast path — the pre-PR
    executor loops over all ~4k rows.  The compiled plane runs it as two
    strided-view copies.
``irregular``
    Run-stored shuffled blocks (8-16 contiguous elements each, block
    order permuted): ~9k short runs, the Chaos-style mesh remap shape.
    The compiled plane replays it as one fancy-index operation over the
    cached dense index vector.

The loop reference below is the pre-PR executor code, kept verbatim so
the comparison stays honest as the library evolves.  Timings are
steady-state (programs compiled, index vectors built) — exactly the
regime of a timestep loop replaying one schedule.

Logical clocks are byte-identical under both executions by construction;
the end-to-end ``elapsed_ms`` fields recorded here are deterministic
logical-clock values, guarded byte for byte by ``python check.py bench``;
the wall-clock timings and speedups are printed and shape-checked, never
written.

Shape expectations: compiled pack is >=10x the loop on the regular
profile and >=3x on the irregular one; all three operations produce
byte-identical results under both executions.

Results land in ``BENCH_dataplane.json`` at the repo root.
"""

import time

import numpy as np

from common import check_shape, print_header, write_trajectory
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.core.dataplane import compile_offsets, copy_compiled
from repro.core.runs import RunList, _run_slice
from repro.distrib.section import Section
from repro.vmachine import IBM_SP2, VirtualMachine

N = 65536                    # paper scale: the 65536-point irregular mesh
REPEATS = 7                  # best-of timing repetitions


# ---------------------------------------------------------------------------
# The pre-PR executors, verbatim (RunList.gather/scatter loop bodies and
# the aligned-segment copy), as free functions over a RunList.
# ---------------------------------------------------------------------------


def _uniform_grid_ref(runs):
    if runs is None or len(runs) < 2:
        return None
    step = int(runs[0, 1])
    count = int(runs[0, 2])
    if step <= 0 or not (runs[:, 1] == step).all() or not (runs[:, 2] == count).all():
        return None
    starts = runs[:, 0]
    rowstep = int(starts[1] - starts[0])
    if rowstep <= 0 or not (np.diff(starts) == rowstep).all():
        return None
    return int(starts[0]), rowstep, step, len(runs), count


def loop_gather(rl: RunList, data: np.ndarray, out=None) -> np.ndarray:
    """Pre-PR ``RunList.gather``: single-grid fast path, else per-run loop."""
    if not rl.is_compressed:
        if out is None:
            return data[rl.dense()]
        out[...] = data[rl.dense()]
        return out
    grid = _uniform_grid_ref(rl._exec_runs())
    if grid is not None:
        start0, rowstep, step, nrows, count = grid
        st = data.strides[0]
        view = np.lib.stride_tricks.as_strided(
            data[start0:], shape=(nrows, count), strides=(rowstep * st, step * st)
        )
        if out is None:
            out = np.empty(nrows * count, dtype=data.dtype)
        out.reshape(nrows, count)[...] = view
        return out
    if out is None:
        out = np.empty(len(rl), dtype=data.dtype)
    pos = 0
    for start, step, count in rl._exec_runs().tolist():
        if step == 0:
            out[pos : pos + count] = data[start]
        elif step == 1:
            out[pos : pos + count] = data[start : start + count]
        else:
            out[pos : pos + count] = data[_run_slice(start, step, count)]
        pos += count
    return out


def loop_scatter(rl: RunList, data: np.ndarray, values: np.ndarray) -> None:
    """Pre-PR ``RunList.scatter``: per-run slice stores."""
    if not rl.is_compressed:
        data[rl.dense()] = values
        return
    pos = 0
    for start, step, count in rl._exec_runs().tolist():
        chunk = values[pos : pos + count]
        if step == 0:
            data[start] = chunk[-1]
        elif step == 1:
            data[start : start + count] = chunk
        else:
            data[_run_slice(start, step, count)] = chunk
        pos += count


def _aligned_segments_ref(a: RunList, b: RunList):
    a_runs = a.runs.tolist()
    b_runs = b.runs.tolist()
    ia = ib = 0
    oa = ob = 0
    while ia < len(a_runs) and ib < len(b_runs):
        a_start, a_step, a_count = a_runs[ia]
        b_start, b_step, b_count = b_runs[ib]
        take = min(a_count - oa, b_count - ob)
        yield (a_start + a_step * oa, a_step, b_start + b_step * ob, b_step, take)
        oa += take
        ob += take
        if oa == a_count:
            ia += 1
            oa = 0
        if ob == b_count:
            ib += 1
            ob = 0


def loop_copy(src_data, src_rl: RunList, dst_data, dst_rl: RunList) -> None:
    """Pre-PR ``copy_runs``: aligned slice pairs over the run refinement."""
    if not (src_rl.is_compressed and dst_rl.is_compressed):
        dst_data[dst_rl.dense()] = src_data[src_rl.dense()]
        return
    for s0, sstep, d0, dstep, count in _aligned_segments_ref(src_rl, dst_rl):
        if sstep == 0:
            chunk = src_data[s0]
            if dstep == 0 or count == 1:
                dst_data[d0] = chunk
            else:
                dst_data[_run_slice(d0, dstep, count) if dstep != 1
                         else slice(d0, d0 + count)] = chunk
            continue
        src_sl = slice(s0, s0 + count) if sstep == 1 else _run_slice(s0, sstep, count)
        if dstep == 0:
            dst_data[d0] = src_data[s0 + sstep * (count - 1)]
        elif dstep == 1:
            dst_data[d0 : d0 + count] = src_data[src_sl]
        else:
            dst_data[_run_slice(d0, dstep, count)] = src_data[src_sl]


# ---------------------------------------------------------------------------
# Workload profiles.
# ---------------------------------------------------------------------------


def regular_offsets() -> np.ndarray:
    """Piecewise-uniform: two 2048-row blocks, count 16, pitches 24 / 20.

    One pitch change is enough to defeat the pre-PR single-grid fast
    path, so the old executor walks all 4096 rows in Python.
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
    pre-PR executor walks every run in Python.
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


def best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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
        "Ablation: compiled data plane (cached MovePrograms) vs per-run "
        f"Python loop executors — {N} elements, steady state"
    )
    results = {}
    speedups = {}
    for name, make in PROFILES.items():
        idx = make()
        n = len(idx)
        rl_loop = RunList.from_dense(idx)       # reference side
        rl_comp = RunList.from_dense(idx)       # compiled side (own cache)
        prog = compile_offsets(rl_comp)
        data = np.random.default_rng(7).random(idx.max() + 1)
        values = np.random.default_rng(8).random(n)
        out_a = np.empty(n)
        out_b = np.empty(n)

        # -- pack (gather) ---------------------------------------------------
        loop_gather(rl_loop, data, out_a)       # warm caches on both sides
        prog.gather(data, out=out_b)
        check_shape(
            bool((out_a == out_b).all()),
            f"{name}: compiled gather byte-identical to the loop",
        )
        t_loop_g = best_of(loop_gather, rl_loop, data, out_a)
        t_comp_g = best_of(prog.gather, data, out_b)

        # -- unpack (scatter) ------------------------------------------------
        sink_a = np.zeros_like(data)
        sink_b = np.zeros_like(data)
        loop_scatter(rl_loop, sink_a, values)
        prog.scatter(sink_b, values)
        check_shape(
            bool((sink_a == sink_b).all()),
            f"{name}: compiled scatter byte-identical to the loop",
        )
        t_loop_s = best_of(loop_scatter, rl_loop, sink_a, values)
        t_comp_s = best_of(prog.scatter, sink_b, values)

        # -- direct copy (aligned halves) -------------------------------------
        dst_rl_loop = RunList.from_dense(np.arange(n))
        dst_rl_comp = RunList.from_dense(np.arange(n))
        dst_prog = compile_offsets(dst_rl_comp)
        copy_a = np.zeros(n)
        copy_b = np.zeros(n)
        loop_copy(data, rl_loop, copy_a, dst_rl_loop)
        copy_compiled(prog, data, dst_prog, copy_b)
        check_shape(
            bool((copy_a == copy_b).all()),
            f"{name}: compiled direct copy byte-identical to the loop",
        )
        t_loop_c = best_of(loop_copy, data, rl_loop, copy_a, dst_rl_loop)
        t_comp_c = best_of(copy_compiled, prog, data, dst_prog, copy_b)

        wall = {
            "pack": (t_loop_g, t_comp_g),
            "unpack": (t_loop_s, t_comp_s),
            "copy": (t_loop_c, t_comp_c),
        }
        speedups[name] = {op: loop / comp for op, (loop, comp) in wall.items()}
        results[name] = {
            "profile": name,
            "nprocs": 1,
            "nelements": n,
            "nruns": rl_loop.nruns,
            "program_kind": prog.kind,
            # deterministic logical clock of an end-to-end copy — the
            # guarded proof the compiled plane is clock-neutral
            "elapsed_ms": elapsed_end_to_end(name),
        }
        print(
            f"  {name:<10} ({n} elements, {rl_loop.nruns} runs -> "
            f"{prog.kind} program)"
        )
        for op, (loop, comp) in wall.items():
            print(
                f"    {op:<7} loop {loop * 1e3:8.3f} ms   "
                f"compiled {comp * 1e3:8.3f} ms   "
                f"({speedups[name][op]:6.1f}x)"
            )

    check_shape(
        speedups["regular"]["pack"] >= 10.0,
        f"regular pack >=10x the per-run loop "
        f"({speedups['regular']['pack']:.1f}x)",
    )
    check_shape(
        speedups["irregular"]["pack"] >= 3.0,
        f"irregular pack >=3x the per-run loop "
        f"({speedups['irregular']['pack']:.1f}x)",
    )

    write_trajectory(
        "dataplane",
        "compiled_dataplane_ablation",
        {
            "nelements": N,
            "pattern": "piecewise-uniform two-pitch section (regular) and "
                       "shuffled 8-16 element blocks (irregular); loop "
                       "reference is the pre-dataplane per-run executor",
            "operations": ["pack", "unpack", "copy"],
        },
        results,
    )
    return results


def test_ablation_dataplane(benchmark):
    benchmark.pedantic(run_ablation, rounds=1, iterations=1)


if __name__ == "__main__":
    run_ablation()
