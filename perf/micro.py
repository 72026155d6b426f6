"""Substrate micro-probes, timed from outside through public callables.

Each probe reports the median of its samples; microsecond-scale probes
take ``SAMPLES`` (>= 200) samples, millisecond-scale ones as many as fit
a small time box (the count is returned beside the value).  The probes
do not depend on the workload being measured, so every traced run
carries the same rows and a ledger can always be read against the
primitive costs of the run that produced it.

Only ``numpy`` and the stable surface (``VirtualMachine``, ``SPMDError``)
are imported up here.  Every probe imports what it measures inside its
own body, so a refactor that deletes or reshapes an internal
(``Mailbox``, ``FusedBuffer``, ``PackArena``, ``ScheduleCache``...) loses
that probe's rows -- they read 0 and the probe is counted in
``trace.unresolved_targets`` -- not the traced run.

``probes(seed, smoke)`` returns ``({metric name: (value, samples)},
[probes that could not run])``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.vmachine import SPMDError, VirtualMachine

SAMPLES = 200
now = time.perf_counter

#: what a probe raises when the internal it measures was deleted, renamed
#: or given another signature (inside a rank thread: wrapped in SPMDError)
GONE = (ImportError, AttributeError, TypeError)


def _median_call(fn, n, batch=1) -> tuple[float, int]:
    """Median seconds per ``fn()`` over ``n`` samples of ``batch`` calls."""
    out = []
    for _ in range(n):
        t0 = now()
        for _ in range(batch):
            fn()
        out.append((now() - t0) / batch)
    return statistics.median(out), n


def _boxed(fn, box_s: float, at_least: int = 5) -> tuple[float, int]:
    """Median seconds per call, sampling until ``box_s`` is spent."""
    out = []
    end = now() + box_s
    while len(out) < at_least or (now() < end and len(out) < SAMPLES):
        t0 = now()
        fn()
        out.append(now() - t0)
    return statistics.median(out), len(out)


def _on_rank0(nprocs: int, body):
    """Run ``body(comm)`` on a fresh machine; rank 0's return value."""
    return VirtualMachine(nprocs).run(body).values[0]


def _us(samples) -> tuple[float, int]:
    return 1e6 * statistics.median(samples), len(samples)


# ---------------------------------------------------------------------------
# host-side probes (no virtual machine)
# ---------------------------------------------------------------------------


def _gather_scatter_index(out, seed, n, smoke):
    from repro.core import compile_offsets

    size = 4096 if smoke else 65536
    perm = np.random.default_rng(seed).permutation(size)
    data = np.arange(size, dtype=np.float64)
    buf = np.empty(size)
    prog = compile_offsets(perm)
    gbytes = size * 8 / 1e9
    t, k = _median_call(lambda: prog.gather(data, out=buf), n)
    out["core.dataplane.gather_gbps.index"] = (gbytes / t, k)
    t, k = _median_call(lambda: prog.scatter(data, buf), n)
    out["core.dataplane.scatter_gbps.index"] = (gbytes / t, k)


def _grid_rows(smoke):
    """Table-5 shape: half of a side x side block, one run per row."""
    from repro.core import RunList

    side = 256 if smoke else 1024
    return side, RunList.from_runs([(r * side, 1, side // 2) for r in range(side)])


def _gather_scatter_grid(out, seed, n, smoke):
    from repro.core import compile_offsets

    side, rows = _grid_rows(smoke)
    data = np.arange(side * side, dtype=np.float64)
    buf = np.empty(side * side // 2)
    prog = compile_offsets(rows)
    gbytes = buf.nbytes / 1e9  # computed bytes, one side of the move
    t, k = _median_call(lambda: prog.gather(data, out=buf), n // 4)
    out["core.dataplane.gather_gbps.grid"] = (gbytes / t, k)
    t, k = _median_call(lambda: prog.scatter(data, buf), n // 4)
    out["core.dataplane.scatter_gbps.grid"] = (gbytes / t, k)


def _compile_memo(out, seed, n, smoke):
    from repro.core import RunList, compile_offsets

    def fresh():
        return RunList.from_runs([(0, 1, 64), (256, 2, 64)])

    t_new, _ = _median_call(fresh, n)
    t, k = _median_call(lambda: compile_offsets(fresh()), n)
    out["core.dataplane.compile_miss_us"] = (1e6 * max(0.0, t - t_new), k)
    _, rows = _grid_rows(smoke)
    compile_offsets(rows)
    t, k = _median_call(lambda: compile_offsets(rows), n, batch=10)
    out["core.dataplane.compile_hit_us"] = (1e6 * t, k)


def _payload_nbytes(out, seed, n, smoke):
    from repro.vmachine import payload_nbytes

    payloads = {"ndarray": np.zeros(4096),
                "tuple": tuple(np.zeros(64) for _ in range(8))}
    for label, payload in payloads.items():
        t, k = _median_call(lambda p=payload: payload_nbytes(p), n, batch=20)
        out[f"vmachine.payload_nbytes_us.{label}"] = (1e6 * t, k)


def _payload_nbytes_fused(out, seed, n, smoke):
    from repro.core import FusedBuffer, SegmentHeader
    from repro.vmachine import payload_nbytes

    fused = FusedBuffer(
        [SegmentHeader(i, "float64", 64) for i in range(8)],
        np.zeros(8 * 64 * 8, dtype=np.uint8),
    )
    t, k = _median_call(lambda: payload_nbytes(fused), n, batch=20)
    out["vmachine.payload_nbytes_us.fused"] = (1e6 * t, k)


def _arena(out, seed, n, smoke):
    from repro.vmachine.message import PackArena

    arena = PackArena()
    arena.checkout(4096).release()
    t, k = _median_call(lambda: arena.checkout(4096).release(), n, batch=20)
    out["vmachine.arena_checkout_us"] = (1e6 * t, k)


def _mailbox(out, seed, n, smoke):
    from repro.vmachine import Mailbox, Message

    for depth in (1, 256):
        box = Mailbox(0)

        def match(box=box, depth=depth):
            box.deliver(Message(1, 0, depth - 1, None, 0.0))
            box.receive(1, depth - 1)

        for tag in range(depth - 1):  # unmatched envelopes queued ahead
            box.deliver(Message(1, 0, tag, None, 0.0))
        t, k = _median_call(match, n, batch=5)
        out[f"vmachine.mailbox_match_us.depth{depth}"] = (1e6 * t, k)


def _autotune(out, seed, n, smoke):
    from repro.autotune import DistSpec, WorkloadSpec, search_mapping

    nprocs = 4 if smoke else 16
    spec = WorkloadSpec("probe", nelems=4096 if smoke else 65536, nprocs=nprocs,
                        pattern="permute", seed=3, reuse=10)
    menu = (DistSpec("block"), DistSpec("cyclic"), DistSpec("irregular", seed=11))

    def search():
        search_mapping(spec, fixed_src=DistSpec("block"), dist_menu=menu)

    t, k = _boxed(search, 0.05 if smoke else 1.5, at_least=2)
    out["autotune.search_ms.P16"] = (1e3 * t, k)


# ---------------------------------------------------------------------------
# probes that need rank threads
# ---------------------------------------------------------------------------

_PAYLOAD = np.zeros(8)  # 64 bytes


def _sendrecv(out, seed, n, smoke):
    for nprocs in (4, 16):
        def alltoall(comm, nprocs=nprocs):
            # machine-wide cost of one 64-byte send+recv: every rank sends
            # to and receives from every other; barrier-to-barrier wall /
            # messages (the closing barrier's own cost is included)
            peers = [r for r in range(nprocs) if r != comm.rank]
            rounds = 5 if nprocs <= 4 else 2
            samples = []
            for _ in range(n):
                comm.barrier()
                t0 = now()
                for _ in range(rounds):
                    for r in peers:
                        comm.send(r, _PAYLOAD, 7)
                    for r in peers:
                        comm.recv(r, 7)
                comm.barrier()  # every rank's share of the work is done
                samples.append((now() - t0) / (rounds * nprocs * len(peers)))
            return samples

        out[f"vmachine.sendrecv_us.P{nprocs}"] = _us(_on_rank0(nprocs, alltoall))


def _pingpong(out, seed, n, smoke):
    def pingpong(comm):
        samples = []
        for _ in range(n):
            t0 = now()
            if comm.rank == 0:
                comm.send(1, _PAYLOAD, 3)
                comm.recv(1, 3)
            else:
                comm.recv(0, 3)
                comm.send(0, _PAYLOAD, 3)
            samples.append(now() - t0)
        return samples

    out["vmachine.pingpong_rtt_us"] = _us(_on_rank0(2, pingpong))


def _waitany(out, seed, n, smoke):
    from repro.vmachine import waitany

    def wait8(comm):
        samples = []
        for _ in range(n):
            comm.barrier()
            if comm.rank == 0:
                reqs = [comm.irecv(r, 5) for r in range(1, 9)]
                comm.barrier()  # every message is in the mailbox
                t0 = now()
                for _ in reqs:
                    waitany(reqs)
                samples.append((now() - t0) / len(reqs))
            else:
                comm.send(0, _PAYLOAD, 5)
                comm.barrier()
        return samples

    out["vmachine.waitany_us.n8"] = _us(_on_rank0(9, wait8))


def _collectives(out, seed, n, smoke):
    def collectives(comm):
        res = {}
        ops = {
            "barrier": comm.barrier,
            "allreduce": lambda: comm.allreduce(1.0, lambda p, q: p + q),
            "alltoall": lambda: comm.alltoall([_PAYLOAD] * comm.size),
        }
        for name, op in ops.items():
            samples = []
            for _ in range(n):
                t0 = now()
                op()
                samples.append(now() - t0)
            res[name] = samples
        return res

    for name, samples in _on_rank0(8, collectives).items():
        out[f"vmachine.{name}_us.P8"] = _us(samples)


def _spawn(out, seed, n, smoke):
    t, k = _boxed(lambda: VirtualMachine(8).run(lambda comm: None),
                  0.05 if smoke else 0.5)
    out["vmachine.spawn_ms.P8"] = (1e3 * t, k)


def _schedule_and_cache(out, seed, n, smoke):
    """Cold builds, reverse and cache costs on the remap shape."""
    from repro.blockparti import BlockPartiArray
    from repro.chaos import ChaosArray
    from repro.core import (
        IndexRegion,
        ScheduleCache,
        ScheduleMethod,
        SectionRegion,
        mc_compute_schedule,
        mc_new_set_of_regions,
    )
    from repro.distrib.section import Section
    from workloads import field_value, mesh_fixture

    fx = mesh_fixture(seed, 32 if smoke else 256, 4)
    shape, irreg = fx["shape"], fx["irreg"]
    reps = max(3, n // 20)

    def body(comm):
        a = BlockPartiArray.from_function(comm, shape, field_value)
        x = ChaosArray.zeros(comm, fx["owners"])
        ssor = mc_new_set_of_regions(SectionRegion(Section.full(shape)))
        dsor = mc_new_set_of_regions(IndexRegion(irreg))
        req = ("blockparti", a, ssor, "chaos", x, dsor)
        res = {"build_coop": [], "build_dup": [], "cache_miss": []}
        for _ in range(reps):
            # bare builds and a cache miss side by side, so the difference
            # (the cache's own overhead) sees the same host conditions
            for label, method in (("coop", ScheduleMethod.COOPERATION),
                                  ("dup", ScheduleMethod.DUPLICATION)):
                comm.barrier()
                t0 = now()
                sched = mc_compute_schedule(comm, *req, method)
                res[f"build_{label}"].append(now() - t0)
            cache = ScheduleCache(comm)
            comm.barrier()
            t0 = now()
            cache.get_or_build(*req)
            res["cache_miss"].append(now() - t0)
        res["overhead"] = [m - b for m, b in zip(res["cache_miss"], res["build_coop"])]
        res["reverse"] = [_median_call(sched.reverse, n)[0]]
        res["cache_hit"] = [_median_call(lambda: cache.get_or_build(*req), n // 4)[0]]
        cache.get_or_build_plan([req])
        res["plan_hit"] = [_median_call(lambda: cache.get_or_build_plan([req]), n // 4)[0]]
        return res

    res = _on_rank0(4, body)
    med = {k: statistics.median(v) for k, v in res.items()}
    out["core.schedule.build_ms.coop"] = (1e3 * med["build_coop"], reps)
    out["core.schedule.build_ms.dup"] = (1e3 * med["build_dup"], reps)
    out["core.schedule.reverse_us"] = (1e6 * med["reverse"], n)
    out["core.cache.hit_us"] = (1e6 * med["cache_hit"], n // 4)
    out["core.cache.plan_hit_us"] = (1e6 * med["plan_hit"], n // 4)
    out["core.cache.miss_overhead_ms"] = (1e3 * med["overhead"], reps)


def _plan_compile(out, seed, n, smoke):
    from repro.core import mc_compute_plan
    from workloads import fields_fixture, fields_setup

    fx = fields_fixture(seed, 16 if smoke else 32, 8, 8)
    reps = max(3, n // 20)

    def body(comm):
        _, _, scheds, _ = fields_setup(comm, fx)
        return _median_call(lambda: mc_compute_plan(scheds), reps)[0]

    out["core.plan.compile_ms.k8"] = (1e3 * _on_rank0(8, body), reps)


PROBES = (
    _gather_scatter_index, _gather_scatter_grid, _compile_memo, _payload_nbytes,
    _payload_nbytes_fused, _arena, _mailbox, _sendrecv, _pingpong, _waitany,
    _collectives, _spawn, _schedule_and_cache, _plan_compile, _autotune,
)


def _is_gone(exc: BaseException) -> bool:
    if isinstance(exc, SPMDError):  # the other ranks fail in reaction
        return any(isinstance(e.exception, GONE) for e in exc.errors)
    return isinstance(exc, GONE)


def probes(seed: int, smoke: bool = False, which=PROBES):
    n = 20 if smoke else SAMPLES
    out: dict[str, tuple[float, int]] = {}
    unresolved: list[str] = []
    for probe in which:
        rows: dict[str, tuple[float, int]] = {}
        try:
            probe(rows, seed, n, smoke)
        except (SPMDError, *GONE) as exc:
            if not _is_gone(exc):
                raise
            unresolved.append(f"micro:{probe.__name__.lstrip('_')}")
            continue
        out.update(rows)
    return out, unresolved
