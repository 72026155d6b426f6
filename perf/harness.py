"""Measurement plumbing shared by every workload: CPU pinning, the timed
block that rank threads fill in, the host loop that runs blocks until
the time budget is spent, and the order statistics metrics are built from.

Nothing here knows about a particular workload; nothing here reaches
into the program under test beyond ``proc.clock`` and ``proc.stats``
(both public on :class:`repro.vmachine.Process`).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: thread-local op identity read by the tracer's wrappers; the harness
#: sets it whether or not a tracer is installed (one attribute store).
TLS = threading.local()


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    src = REPO / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perf: no program to measure ({src}/repro is missing)")
    sys.path.insert(0, str(src))


def benchmark_json() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metric names and units."""
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perf: {path} is missing")
    return json.loads(path.read_text())


def pin() -> list[int]:
    """Pin the calling thread (and every thread it later starts) to the
    highest-numbered allowed CPU (CPU 0 takes most interrupts).  Returns
    the CPUs in use."""
    chosen = sorted(os.sched_getaffinity(0))[-1:]
    os.sched_setaffinity(0, chosen)
    return chosen


#: what the host-speed probe reads on the reference sandbox at full speed;
#: an arbitrary fixed scale, so normalised times stay in familiar units
HOST_REF_MS = 2.25


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python + NumPy loop: the host-speed
    probe.  The median of five repeats, so one preempted repeat does not
    count.  Says how fast the host ran, not how fast the program is."""
    import numpy as np

    a = np.arange(4096, dtype=np.float64)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(30000):
            s += i * i
        b = a
        for _ in range(60):
            b = np.sqrt(b * b + 1.0)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance check computes them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def high_percentile(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 20 samples that is
    the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 50.0, 0.0
    if n < 20:
        return 50.0, float(statistics.median(xs))
    k = n - 11  # ten samples lie strictly beyond index k
    return 100.0 * (k + 1) / n, float(xs[k])


# ---------------------------------------------------------------------------
# the timed block
# ---------------------------------------------------------------------------


class Block:
    """One timed block: ``nops`` closed-loop ops after ``warm`` untimed ones.

    Created on the host thread, filled in by the rank threads of one
    virtual-machine run through :meth:`timed`.  The lead rank owns the
    wall and CPU clocks; every rank contributes its logical-clock delta
    and its message counters.
    """

    COUNTERS = ("messages_sent", "bytes_sent", "cache_program_hits",
                "cache_program_misses", "arena_hits", "arena_misses")

    def __init__(self, index: int, nops: int, warm: int = 2, parts: int = 1):
        self.index = index
        self.nops = nops
        self.warm = warm
        #: wall latency samples per op part (seconds, lead rank)
        self.lat_s: list[list[float]] = [[] for _ in range(parts)]
        #: thread CPU seconds inside each part, summed over ranks and ops
        self.part_cpu_s = [0.0] * parts
        self.t_first = 0.0      # perf_counter at the start of the timed region
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.threads = 0
        self.clock_s: dict[int, float] = {}
        self.counters: dict[str, float] = dict.fromkeys(self.COUNTERS, 0.0)
        #: ops attempted / failed (raised, shed, or rejected by the oracle)
        self.attempted = 0
        self.failed = 0
        #: workload-specific exact counts for the ledger, and extra wall
        #: timings in ms (host-normalised with the rest in ``summary``)
        self.extra: dict[str, float] = {}
        self.extra_ms: dict[str, float] = {}
        #: host-speed probe (ms) right before and right after the block
        self.calib_ms = [0.0, 0.0]
        #: ``sys.setprofile`` callback active on every rank thread inside
        #: the timed region only (the profiled block of a traced run)
        self.profile = None
        self._lock = threading.Lock()

    def timed(self, proc, sync, parts, lead: bool) -> None:
        """Run the block on the calling rank thread (collective).

        ``parts`` is the op as a sequence of callables ``part(i)``; the
        lead rank times each part, so a workload can report the halves
        of a compound op.  ``sync`` aligns every participating rank
        (all programs) before and after the timed region.
        """
        nops, index = self.nops, self.index
        TLS.op = None  # warm-up, barriers and checks stay out of the ledger
        for i in range(self.warm):
            for part in parts:
                part(i)
        sync()
        stats = proc.stats
        before = {k: stats.get(k, 0.0) for k in self.COUNTERS}
        clock0 = proc.clock
        cpu = time.thread_time
        part_cpu = [0.0] * len(parts)
        sys.setprofile(self.profile)
        lat = self.lat_s
        now = time.perf_counter
        if lead:
            cpu0 = time.process_time()
            t0 = self.t_first = now()
        for i in range(nops):
            TLS.op = (index, i)
            a, c = now(), cpu()
            for j, part in enumerate(parts):
                part(i)
                b, d = now(), cpu()
                if lead:
                    lat[j].append(b - a)
                part_cpu[j] += d - c
                a, c = b, d
        sys.setprofile(None)
        dclock = proc.clock - clock0
        after = {k: stats.get(k, 0.0) for k in self.COUNTERS}
        TLS.op = None
        sync()
        if lead:
            self.wall_s = time.perf_counter() - t0
            self.cpu_s = time.process_time() - cpu0
            self.attempted = nops
        with self._lock:
            self.threads += 1
            self.clock_s[proc.rank] = dclock
            for j, seconds in enumerate(part_cpu):
                self.part_cpu_s[j] += seconds
            for k in self.COUNTERS:
                self.counters[k] += after[k] - before[k]

    def fail(self, n: int | None = None) -> None:
        """Count ``n`` ops (default: the whole block) as failed."""
        with self._lock:
            self.failed = min(
                self.attempted or self.nops,
                self.failed + (self.nops if n is None else n),
            )

    def note(self, **values: float) -> None:
        with self._lock:
            self.extra.update(values)

    def note_ms(self, **values: float) -> None:
        with self._lock:
            self.extra_ms.update(values)

    # -- per-block figures ---------------------------------------------------

    @property
    def op_ms(self) -> list[float]:
        """Whole-op wall latencies (parts summed), milliseconds."""
        return [1e3 * sum(parts) for parts in zip(*self.lat_s)]

    def summary(self) -> dict:
        """The block as one row of numbers.

        Timings are host-normalised — what the block would have measured
        had the probe read HOST_REF_MS (see README, "Noise") — with the raw
        end-to-end three kept beside them.
        """
        n = self.attempted
        calib = max(self.calib_ms)
        speed = calib / HOST_REF_MS  # > 1: the host ran slower than reference
        raw = {
            "ops_per_s": n / self.wall_s,
            "op_p50_ms": median(self.op_ms),
            "cpu_ms_per_op": 1e3 * self.cpu_s / n,
        }
        out = {
            "ops": n,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "threads": self.threads,
            "calib_ms": calib,
            "ops_per_s": raw["ops_per_s"] * speed,
            "op_p50_ms": raw["op_p50_ms"] / speed,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] / speed,
            "model_ms_per_op": 1e3 * max(self.clock_s.values()) / n,
        }
        out.update({k + ".raw": v for k, v in raw.items()})
        out.update({k + "_per_op": v / n for k, v in self.counters.items()})
        out.update({k: v / speed for k, v in self.extra_ms.items()})
        out.update(self.extra)
        return out


def run_block(workload, fx, index: int, options=None, probe: float | None = None,
              profile=None):
    """One block of ``workload`` with the host-speed probe on either side.

    ``probe`` is the reading just taken by the caller (the previous
    block's closing probe), if any.  A block whose virtual machine raises
    is returned with every op it attempted counted as failed and no
    timing; the error text comes back beside it.
    """
    from repro.vmachine import SPMDError

    block = workload.new_block(fx, index)
    block.profile = profile
    block.calib_ms[0] = calibrate() if probe is None else probe
    error = None
    try:
        workload.run_block(fx, block, options)
    except SPMDError as exc:
        block.attempted = block.attempted or block.nops
        block.wall_s = 0.0
        block.fail()
        error = str(exc)[-2000:]
    block.calib_ms[1] = calibrate()
    return block, error


def run_blocks(workload, fx, seconds: float, min_blocks: int, options=None,
               first_index: int = 0):
    """Run blocks of ``workload`` back to back for ``seconds``.

    The measuring window opens when the first block's timed region
    starts and closes with the block that crosses the deadline (at least
    ``min_blocks`` are run; three failed blocks end the run).
    """
    blocks: list[Block] = []
    errors: list[str] = []
    deadline = None
    probe = None
    while True:
        block, error = run_block(workload, fx, first_index + len(blocks), options,
                                 probe)
        probe = block.calib_ms[1]
        blocks.append(block)
        if error:
            errors.append(error)
        now = time.perf_counter()
        if deadline is None:
            deadline = (block.t_first or now) + seconds
        if (len(blocks) >= min_blocks and now >= deadline) or len(errors) >= 3:
            break
    return blocks, errors
