"""One workload in one fresh process: set-up, warm-up, timed blocks, and —
with ``trace`` — the traced pass, the profiled block, the unpinned
blocks, the micro-probes and the per-hook toggles.

``run(args)`` returns a JSON-friendly dict; ``run.py`` merges the dicts
of a run's processes into the reported metrics.
"""

from __future__ import annotations

import os
import resource
import threading
import time

import harness
from harness import high_percentile, median, run_blocks, spread


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summaries(blocks) -> list[dict]:
    return [b.summary() for b in blocks if b.wall_s > 0 and b.attempted]


def _med(rows, key) -> float:
    return median([r[key] for r in rows if key in r])


def run(args) -> dict:
    allowed = sorted(os.sched_getaffinity(0))
    cpus = harness.pin()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    size = w.SIZES["smoke" if args.smoke else "normal"]
    fx = w.fixtures(args.seed, size)
    min_blocks = 2 if args.smoke else 3

    # warm-up: first machine, process-wide caches, lazy imports
    run_blocks(w, w.warm_fixtures(fx), 0.0, 1, first_index=-1)

    options = "ledger" if args.trace else None
    budget = args.seconds * (0.25 if args.trace else 1.0)
    blocks, errors = run_blocks(w, fx, budget, min_blocks, options)
    # CLOCK_MONOTONIC backs both clocks on Linux; the offset is ~0
    skew = time.monotonic() - time.perf_counter()
    setup_s = blocks[0].t_first + skew - args.spawned
    rows = _summaries(blocks)
    if not rows:
        raise SystemExit(f"perf: every block of {w.name} failed:\n" + "\n".join(errors))
    calib = [ms for b in blocks for ms in b.calib_ms]
    out = {
        "workload": w.name,
        "seed": args.seed,
        "cpus": cpus,
        "setup_s": setup_s,
        "attempted": sum(b.attempted or b.nops for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "errors": errors,
        "blocks": rows,
        "calib_ms": calib,
        "nops": fx["nops"],
    }
    if args.trace:
        ledger = out["ledger"] = _ledger(args, w, fx, rows, cpus, allowed, min_blocks)
        m = ledger["metrics"]
        lat = sorted(ms for b in blocks for ms in b.op_ms)
        ledger["op_phi_percentile"], m["op_phi_ms"] = high_percentile(lat)
        m["service.op_p99_ms"] = (
            lat[int(0.99 * len(lat))] if w.name == "service_fleet" else 0.0)
        m["host.calib_ms"] = median(calib)
        m["host.calib_spread"] = spread(calib)
    out["peak_rss_mb"] = _rss_mb()
    return out


# ---------------------------------------------------------------------------
# the traced pass and everything else only a --trace run measures
# ---------------------------------------------------------------------------


def _ledger(args, w, fx, ref_rows, cpus, allowed, min_blocks) -> dict:
    import micro
    import workloads
    from trace import Tracer

    # a metric of a layer this workload does not exercise, or of a probe
    # whose target no longer exists, stays 0
    m: dict[str, float] = dict.fromkeys(
        (layer["name"] for layer in harness.benchmark_json()["per_layer"]), 0.0)
    samples: dict[str, int] = {}
    phase_s: dict[str, float] = {}
    ref_rate = _med(ref_rows, "ops_per_s")
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phase_s[name] = now - mark
        mark = now

    # -- traced blocks (half-length: wrappers slow the op down) -------------------
    half = dict(fx, nops=max(1, fx["nops"] // 2)) if w.name != "service_fleet" else fx
    tracer = Tracer().install()
    try:
        blocks, _ = run_blocks(w, half, args.seconds * 0.3, min_blocks, "ledger",
                               first_index=1000)
    finally:
        tracer.uninstall()
    phase("traced")
    rows = _summaries(blocks)
    ops = sum(r["ops"] for r in rows)
    thread_s = sum(r["threads"] * r["wall_s"] for r in rows)
    harness.OUT.mkdir(exist_ok=True)
    tracer.chrome_trace(
        harness.OUT / f"trace-{w.name}.json",
        {"workload": w.name, "seed": args.seed, "ops": ops,
         "unresolved": tracer.unresolved},
    )
    m["trace.overhead_ratio"] = ref_rate / _med(rows, "ops_per_s")
    m["trace.coverage"] = tracer.covered_s() / thread_s
    _from_spans(m, tracer, ops, thread_s)
    _from_blocks(m, ref_rows)
    phase("ledger")

    # -- one profiled block: Python-level calls per op ---------------------------
    m["host.py_calls_per_op"] = _py_calls_per_op(w, fx)
    phase("profiled")

    # -- the same blocks with every allowed CPU -------------------------------------
    os.sched_setaffinity(0, allowed)
    try:
        free, _ = run_blocks(w, fx, args.seconds * 0.1, 2, first_index=2000)
    finally:
        os.sched_setaffinity(0, cpus)
    m["host.unpinned_ratio"] = _med(_summaries(free), "ops_per_s") / ref_rate
    phase("unpinned")

    # -- substrate probes and per-hook toggles ---------------------------------------
    probed, unprobed = micro.probes(args.seed, args.smoke)
    for name, (value, n) in probed.items():
        m[name] = value
        samples[name] = n
    phase("micro")
    _hook_toggles(m, workloads, args)
    phase("toggles")
    unresolved = tracer.unresolved + unprobed
    m["trace.unresolved_targets"] = float(len(unresolved))
    return {"metrics": m, "samples": samples, "traced_ops": ops,
            "traced_blocks": len(rows), "unresolved": unresolved,
            "phase_s": phase_s}


def _from_spans(m, tracer, ops, thread_s) -> None:
    """Per-layer figures out of the span ledger (ms or us per op)."""
    edges = tracer.edges()
    names = tracer.by_name()
    layers = tracer.by_layer()
    layer_of = dict(zip(tracer.names, tracer.layers))
    CALLS, TOTAL, SELF, WAIT = range(4)
    zero = [0, 0.0, 0.0, 0.0]

    def name(n, col):
        return names.get(n, zero)[col]

    def per_op_ms(seconds):
        return 1e3 * seconds / ops if ops else 0.0

    def layer_self(layer):
        return layers.get(layer, zero)[SELF]

    def lib(libname, methods, col=SELF):
        return sum(name(f"{libname}.{meth}", col) for meth in methods)

    comm_layers = ("vmachine.comm", "vmachine.collective")
    libs = sorted({layer for layer in layer_of.values() if "." not in layer
                   and layer not in ("containers", "service")})
    deref = ("deref_lin", "deref_range", "local_elements")

    m["core.schedule.self_ms_per_op"] = per_op_ms(name("build_schedule", SELF))
    m["core.schedule.comm_ms_per_op"] = per_op_ms(sum(
        row[TOTAL] for (n, parent), row in edges.items()
        if parent == "build_schedule" and layer_of[n] in comm_layers))
    m["core.linearization.self_ms_per_op"] = per_op_ms(layer_self("core.linearization"))
    for libname in ("chaos", "blockparti", "hpf"):
        m[f"{libname}.deref_ms_per_op"] = per_op_ms(lib(libname, deref))
    m["adapters.pack_ms_per_op"] = per_op_ms(
        sum(lib(l, ("pack", "pack_into")) for l in libs))
    m["adapters.unpack_ms_per_op"] = per_op_ms(sum(lib(l, ("unpack",)) for l in libs))
    m["adapters.copy_local_ms_per_op"] = per_op_ms(
        sum(lib(l, ("copy_local",)) for l in libs))
    m["core.dataplane.gather_ms_per_op"] = per_op_ms(name("MoveProgram.gather", SELF))
    m["core.dataplane.scatter_ms_per_op"] = per_op_ms(name("MoveProgram.scatter", SELF))
    m["core.dataplane.copy_ms_per_op"] = per_op_ms(name("copy_compiled", SELF))
    m["core.datamove.send_self_ms_per_op"] = per_op_ms(name("data_move_send", SELF))
    m["core.datamove.recv_self_ms_per_op"] = per_op_ms(name("data_move_recv", SELF))
    m["core.plan.send_self_ms_per_op"] = per_op_ms(name("plan_move_send", SELF))
    m["core.plan.recv_self_ms_per_op"] = per_op_ms(name("plan_move_recv", SELF))
    m["core.wire.self_ms_per_op"] = per_op_ms(layer_self("core.wire"))

    sends = ("Communicator.send", "InterComm.send", "Communicator.isend")
    nsend = sum(name(n, CALLS) for n in sends)
    m["vmachine.send_us_per_msg"] = (
        1e6 * sum(name(n, SELF) for n in sends) / nsend if nsend else 0.0)
    box = layers.get("vmachine.mailbox", zero)
    recv_busy = (box[TOTAL] - box[WAIT]) + sum(
        name(n, SELF) for n in ("Communicator.recv", "InterComm.recv",
                                "Communicator.recv_any", "InterComm.recv_any",
                                "Request.wait", "Request.waitany"))
    m["vmachine.recv_us_per_msg"] = 1e6 * recv_busy / box[CALLS] if box[CALLS] else 0.0
    m["vmachine.recv_wait_share"] = box[WAIT] / thread_s if thread_s else 0.0
    m["vmachine.collective_ms_per_op"] = per_op_ms(sum(
        row[TOTAL] for (n, parent), row in edges.items()
        if layer_of[n] == "vmachine.collective"
        and layer_of.get(parent) != "vmachine.collective"))

    issue = ("Window.put", "Window.get", "Window.accumulate", "Window.fetch_add",
             "Window.compare_and_swap")
    nissue = sum(name(n, CALLS) for n in issue)
    m["vmachine.window.issue_us_per_rmaop"] = (
        1e6 * sum(name(n, TOTAL) for n in issue) / nissue if nissue else 0.0)
    fence = names.get("Window.fence", zero)
    m["vmachine.window.fence_ms"] = 1e3 * fence[TOTAL] / fence[CALLS] if fence[CALLS] else 0.0
    m["vmachine.window.fence_wait_share"] = fence[WAIT] / fence[TOTAL] if fence[TOTAL] else 0.0
    m["containers.hashmap_ms_per_op"] = per_op_ms(sum(
        row[TOTAL] for (n, parent), row in edges.items()
        if n.startswith("DistHashMap.") and not parent.startswith("DistHashMap.")))
    rel = names.get("Reliability.fence", zero)
    m["vmachine.reliability.fence_ms"] = 1e3 * rel[TOTAL] / rel[CALLS] if rel[CALLS] else 0.0
    for metric, target in (("service.gateway_round_ms", "execute_round"),
                           ("service.server_round_ms", "_execute_batch")):
        row = names.get(target, zero)
        m[metric] = 1e3 * row[TOTAL] / row[CALLS] if row[CALLS] else 0.0


def _from_blocks(m, rows) -> None:
    """Exact counts and part timings out of the untraced blocks: whatever
    the workload noted under a per-layer name, the median over blocks."""
    for name in m:
        if any(name in r for r in rows):
            m[name] = _med(rows, name)
    m["vmachine.msgs_per_op"] = _med(rows, "messages_sent_per_op")
    m["vmachine.bytes_per_op"] = _med(rows, "bytes_sent_per_op")
    for metric, counter in (("core.dataplane.program_hit_ratio", "cache_program"),
                            ("vmachine.arena_hit_ratio", "arena")):
        hits = _med(rows, counter + "_hits_per_op")
        lookups = hits + _med(rows, counter + "_misses_per_op")
        m[metric] = hits / lookups if lookups else 0.0


def _py_calls_per_op(w, fx) -> float:
    """Python-level function calls per op, from one small profiled block
    (the callback is active inside the timed region only)."""
    counts: dict[int, int] = {}
    ident = threading.get_ident

    def profiler(frame, event, arg):
        if event == "call":
            me = ident()
            counts[me] = counts.get(me, 0) + 1

    block, _ = harness.run_block(w, w.warm_fixtures(fx), 3000, profile=profiler)
    return sum(counts.values()) / block.attempted if block.attempted else 0.0


def _hook_toggles(m, workloads, args) -> None:
    """The fused push with one hook on at a time, against all off.

    Variants are interleaved over three rounds and each rate is the
    median of its rounds, so a slow second on the host does not land on
    one variant only.
    """
    w = workloads.WORKLOADS["hooks_on"]
    Hooks = workloads.Hooks
    size = dict(w.SIZES["smoke" if args.smoke else "normal"])
    size["nops"] = max(3, size["nops"] // 3)
    if args.smoke:
        size["k"] = 2  # set-up (k schedule builds per block) dominates a smoke block
    fx = w.fixtures(args.seed, size)
    variants = {"off": Hooks(), "all": Hooks.all_on()}
    for hook in ("faults_idle", "trace", "observe", "record", "reliability",
                 "copy_on_send"):
        variants[hook] = Hooks(**{hook: True})
    rates: dict[str, list[float]] = {k: [] for k in variants}
    for rnd in range(1 if args.smoke else 3):
        for key, hooks in variants.items():
            block, _ = harness.run_block(w, fx, 4000 + rnd, hooks)
            rates[key].append(block.summary()["ops_per_s"])
    off = median(rates["off"])
    m["hooks.off.ops_per_s"] = off
    for key in variants:
        if key != "off":
            m[f"hooks.{key}.overhead_ratio"] = off / median(rates[key])
