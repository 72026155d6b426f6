#!/usr/bin/env python3
"""The repo's benchmark: six pinned workloads, two clocks, one command.

Driver form (one workload per invocation; the last stdout line is the
result object the contract in BENCHMARK.json describes)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Human forms::

    python3 perf/run.py [--seed N] [--workload NAME] [--trace]   # all six
    python3 perf/run.py --smoke          # tiny sizes, everything, < 20 s
    python3 perf/run.py --check-repeat   # two sets, agree/differ/noisy

Every workload runs in fresh subprocesses pinned to one CPU (see
README.md for why); a run of a workload is ``ROUNDS`` such processes,
each with its own set-up, and every reported timing is a median over
the timed blocks of all of them.  Without ``--workload`` the processes
of the different workloads are interleaved round-robin, so each
workload samples the whole session.  Results go to
``perf/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import median, quartiles, spread  # noqa: E402

#: processes per untraced run of a workload (each repeats the set-up)
ROUNDS = 3
#: a run whose host-speed probe spread (IQR / median) by more than this is
#: reported noisy and decides nothing in --check-repeat
NOISY_CALIB_SPREAD = 0.10
#: the metrics read off the host's clocks, which a noisy host disturbs
HOST_CLOCK = ("setup_s", "ops_per_s", "op_p50_ms", "cpu_ms_per_op")
#: the logical clock is deterministic per seed: two sets at one seed must
#: agree this closely, whatever the host did
MODEL_REPEAT_BOUND = 1e-9
#: what a traced process reports beside its per-layer metrics
LEDGER_KEYS = ("samples", "unresolved", "phase_s", "op_phi_percentile",
               "traced_ops", "traced_blocks")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--spawned", repr(time.monotonic())]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perf: {workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# merging the processes of one run into metrics
# ---------------------------------------------------------------------------


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def merge(children: list[dict], units: dict[str, str]) -> dict:
    """One workload's result from the dicts of its processes; ``units``
    maps every metric name of BENCHMARK.json to its unit."""
    blocks = [b for c in children for b in c["blocks"]]
    e2e = {}
    for name in ("ops_per_s", "op_p50_ms", "cpu_ms_per_op", "model_ms_per_op"):
        values = [b[name] for b in blocks]
        q1, q2, q3 = quartiles(values)
        e2e[name] = _metric(q2, units[name], q1=q1, iqr=q3 - q1,
                            samples=len(values))
        if name + ".raw" in blocks[0]:
            e2e[name]["raw"] = median([b[name + ".raw"] for b in blocks])
    setup = [c["setup_s"] * harness.HOST_REF_MS / median(c["calib_ms"])
             for c in children]
    e2e["setup_s"] = _metric(median(setup), units["setup_s"], samples=len(setup),
                             raw=median([c["setup_s"] for c in children]))
    rss = [c["peak_rss_mb"] for c in children]
    e2e["peak_rss_mb"] = _metric(median(rss), units["peak_rss_mb"], samples=len(rss))
    calib = [ms for c in children for ms in c["calib_ms"]]
    result = {
        "workload": children[0]["workload"],
        "seed": children[0]["seed"],
        "cpus_used": children[0]["cpus"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "errors": [e for c in children for e in c["errors"]],
        "blocks": len(blocks),
        "ops_per_block": children[0]["nops"],
        "calib_ms": median(calib),
        "calib_spread": spread(calib),
        "block_rows": [
            {k: b[k] for k in ("ops_per_s", "ops_per_s.raw", "op_p50_ms",
                               "op_p50_ms.raw", "cpu_ms_per_op", "calib_ms")}
            for b in blocks
        ],
        "end_to_end": e2e,
    }
    result["correct"] = result["failed"] == 0 and not result["errors"]
    result["noisy"] = result["calib_spread"] > NOISY_CALIB_SPREAD
    ledger = children[0].get("ledger")  # a traced run is one process
    if ledger:
        result["per_layer"] = {
            name: _metric(value, units[name])
            for name, value in ledger["metrics"].items()
        }
        for key in LEDGER_KEYS:
            result[key] = ledger[key]
    return result


def measure(names, seed, seconds, trace, smoke) -> dict[str, dict]:
    """Run the named workloads; their processes interleave round-robin."""
    doc = harness.benchmark_json()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    rounds = 1 if trace else ROUNDS
    children: dict[str, list[dict]] = {n: [] for n in names}
    for _ in range(rounds):
        for name in names:
            children[name].append(
                _spawn(name, seed, seconds / rounds, trace, smoke))
    return {name: merge(kids, units) for name, kids in children.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def contract_line(result: dict, trace: bool) -> str:
    """The one-line result object of the driver contract."""
    section = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in section.items()},
    })


def environment(seed, seconds, smoke) -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.REPO, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        ).stdout.strip() or commit
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "allowed_cpus": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "rounds": ROUNDS,
    }


def print_results(results: dict[str, dict]) -> None:
    for name, r in results.items():
        flag = "" if r["correct"] else "  ** INCORRECT **"
        noisy = "  (noisy host)" if r["noisy"] else ""
        print(f"\n== {name}: {r['attempted']} ops attempted, {r['failed']} failed, "
              f"{r['blocks']} blocks{flag}{noisy}")
        for metric, v in r["end_to_end"].items():
            extra = ""
            if "iqr" in v and v["value"]:
                extra = f"   q1 {v['q1']:.6g}  iqr {100 * v['iqr'] / v['value']:.1f}%"
            if "raw" in v:
                extra += f"   raw {v['raw']:.6g}"
            print(f"  {metric:<42} {v['value']:>14.6g} {v['unit']:<6}"
                  f" n={v['samples']}{extra}")
        for metric, v in r.get("per_layer", {}).items():
            print(f"  {metric:<42} {v['value']:>14.6g} {v['unit']}")


def write_results(results, env, path=None) -> Path:
    harness.OUT.mkdir(exist_ok=True)
    path = path or harness.OUT / "results.json"
    path.write_text(json.dumps({"environment": env, "workloads": results}, indent=1))
    return path


# ---------------------------------------------------------------------------
# --check-repeat
# ---------------------------------------------------------------------------


def verdicts(first: dict, second: dict, metrics: list[dict]) -> list[tuple]:
    """Per (workload, metric): agree / differ / noisy.

    ``differ``: the two sets are further apart, in either direction, than
    the metric's bound (a second set much *faster* than the first proves
    as little about repeatability as a slower one).  ``noisy``: the
    host-speed probe of either set spread by more than a tenth, so no
    timing of that workload decides anything.  Memory and the logical
    clock do not depend on host speed and are never excused as noisy;
    the logical clock must repeat to 1e-9.
    """
    out = []
    for name in first:
        a, b = first[name], second[name]
        noisy = a["noisy"] or b["noisy"]
        for m in metrics:
            metric = m["name"]
            va, vb = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            shift = (vb - va) / va
            bound = MODEL_REPEAT_BOUND if metric == "model_ms_per_op" else m["bound"]
            if noisy and metric in HOST_CLOCK:
                verdict = "noisy"
            else:
                verdict = "agree" if abs(shift) <= bound else "differ"
            out.append((name, metric, va, vb, shift, verdict))
        if a["failed"] or b["failed"]:
            out.append((name, "failed", a["failed"], b["failed"], 1.0, "differ"))
    return out


def check_repeat(names, seed, seconds) -> int:
    first = measure(names, seed, seconds, False, False)
    second = measure(names, seed, seconds, False, False)
    rows = verdicts(first, second, harness.benchmark_json()["end_to_end"])
    for name, metric, va, vb, shift, verdict in rows:
        print(f"{name:<14} {metric:<16} {va:>12.6g} {vb:>12.6g} "
              f"{100 * shift:>+7.2f}%  {verdict}")
    write_results({"first": first, "second": second}, environment(seed, seconds, False),
                  harness.OUT / "check-repeat.json")
    return 1 if any(v == "differ" for *_, v in rows) else 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    doc = harness.benchmark_json()
    workloads = [w["name"] for w in doc["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1997)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    harness.add_src_to_path()

    if args.child:
        import child

        print(json.dumps(child.run(args)))
        return 0

    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(doc["run_seconds"])
    names = [args.workload] if args.workload else workloads
    if args.check_repeat:
        return check_repeat(names, args.seed, seconds)

    driver_form = bool(args.workload) and args.seconds is not None and not args.smoke
    if driver_form or args.smoke:
        # one pass: a traced process also reports the end-to-end set, from
        # the untraced reference blocks it runs before installing the tracer
        trace = bool(args.trace) or args.smoke
        results = measure(names, args.seed, seconds, trace, args.smoke)
    else:
        results = measure(names, args.seed, seconds, False, False)
        if args.trace:
            traced = measure(names, args.seed, seconds, True, False)
            for name in names:
                for key in ("per_layer", *LEDGER_KEYS):
                    results[name][key] = traced[name][key]
                results[name]["correct"] &= traced[name]["correct"]
    print_results(results)
    write_results(results, environment(args.seed, seconds, args.smoke))
    if driver_form:
        print(contract_line(results[args.workload], bool(args.trace)))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
