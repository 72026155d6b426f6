"""Tests of the benchmark's own machinery (not collected by tier-1, whose
``testpaths`` is ``tests/``).  Run with::

    python3 -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
REPO = PERF.parent
sys.path.insert(0, str(PERF))

import harness  # noqa: E402

harness.add_src_to_path()

import micro  # noqa: E402
import run as runner  # noqa: E402
from trace import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture
def op_open():
    """Spans are accounted only while the harness has an op open."""
    harness.TLS.op = (0, 0)
    yield
    harness.TLS.op = None


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _spin(seconds):
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children(op_open):
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _spin(0.02), "low", "leaf")

    def parent_body():
        _spin(0.01)
        leaf()
        leaf()

    parent = tracer.wrap(parent_body, "high", "parent")
    parent()
    edges = tracer.edges()
    calls, total, self_s, _ = edges[("parent", "")]
    lcalls, ltotal, lself, _ = edges[("leaf", "parent")]
    assert (calls, lcalls) == (1, 2)
    assert ltotal == pytest.approx(lself)            # a leaf has no children
    assert self_s == pytest.approx(total - ltotal)   # parent self excludes them
    assert 0.009 < self_s < 0.02 and 0.039 < ltotal < 0.06
    # coverage counts top-level spans once, nested time is not added again
    assert tracer.covered_s() == pytest.approx(total)
    assert tracer.by_layer()["low"][0] == 2


def test_spans_outside_an_op_are_not_accounted():
    tracer = Tracer()
    fn = tracer.wrap(lambda: 7, "x", "fn")
    harness.TLS.op = None
    assert fn() == 7
    assert tracer.edges() == {}


def test_waiting_is_wall_minus_thread_cpu_and_propagates_up(op_open):
    import time

    tracer = Tracer()
    blocked = tracer.wrap(lambda: time.sleep(0.03), "box", "blocked", blocking=True)
    outer = tracer.wrap(blocked, "api", "outer")
    outer()
    edges = tracer.edges()
    assert edges[("blocked", "outer")][3] > 0.025
    assert edges[("outer", "")][3] == pytest.approx(edges[("blocked", "outer")][3])


def test_raw_spans_keep_parent_and_op_id(op_open, tmp_path):
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "l", "inner")
    outer = tracer.wrap(inner, "l", "outer")
    outer()
    n = tracer.chrome_trace(tmp_path / "t.json", {"k": 1})
    events = [e for e in json.loads((tmp_path / "t.json").read_text())["traceEvents"]
              if e["ph"] == "X"]
    assert n == len(events) + 1  # plus the thread-name record
    by_name = {e["name"]: e for e in events}
    assert by_name["inner"]["args"]["parent"] == by_name["outer"]["args"]["span"]
    assert by_name["inner"]["args"]["block"] == 0 and by_name["inner"]["args"]["op"] == 0


# ---------------------------------------------------------------------------
# installing into a program that may have changed
# ---------------------------------------------------------------------------


def test_missing_targets_are_skipped_and_counted():
    tracer = Tracer().install(
        targets=[
            ("core.api", "repro.core.api", "mc_copy", False),
            ("gone", "repro.core.api", "no_such_function", False),
            ("gone", "repro.no_such_module", "f", False),
            ("gone", "repro.core.plan", "MovePlan.no_such_method", False),
        ],
        adapters=False,
    )
    try:
        assert len(tracer.unresolved) == 3
        import repro.core
        import repro.core.api

        # the re-exported binding was rebound to the same wrapper
        assert repro.core.mc_copy is repro.core.api.mc_copy
        assert hasattr(repro.core.api.mc_copy, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(repro.core.api.mc_copy, "__wrapped__")
    assert repro.core.mc_copy is repro.core.api.mc_copy


def test_install_restores_staticmethods_and_inherited_adapter_methods():
    import repro.chaos  # noqa: F401  (registers the adapter)
    from repro.core.registry import get_adapter
    from repro.vmachine.comm import Request

    cls = type(get_adapter("chaos"))
    had_own = "deref_range" in cls.__dict__
    tracer = Tracer().install()
    try:
        assert tracer.unresolved == []
        assert isinstance(Request.__dict__["waitany"], staticmethod)
        assert hasattr(cls.deref_range, "__wrapped__")
    finally:
        tracer.uninstall()
    assert isinstance(Request.__dict__["waitany"], staticmethod)
    assert not hasattr(Request.waitany, "__wrapped__")
    assert ("deref_range" in cls.__dict__) == had_own


def test_a_probe_whose_internal_is_gone_is_skipped_and_counted():
    from repro.vmachine import VirtualMachine

    def gone_import(out, seed, n, smoke):
        out["partial"] = (1.0, 1)  # rows of a probe that dies are dropped
        from repro.vmachine import NoSuchInternal  # noqa: F401

    def gone_signature(out, seed, n, smoke):
        micro._us(1, 2, 3)

    def gone_on_a_rank(out, seed, n, smoke):
        VirtualMachine(2).run(lambda comm: comm.no_such_method())

    def alive(out, seed, n, smoke):
        out["alive"] = (2.0, n)

    rows, unresolved = micro.probes(
        1, True, which=(gone_import, gone_signature, gone_on_a_rank, alive))
    assert rows == {"alive": (2.0, 20)}
    assert unresolved == ["micro:gone_import", "micro:gone_signature",
                          "micro:gone_on_a_rank"]

    def broken(out, seed, n, smoke):
        raise ValueError("a bug in the probe itself is not tolerated")

    with pytest.raises(ValueError):
        micro.probes(1, True, which=(broken,))


# ---------------------------------------------------------------------------
# statistics and verdicts
# ---------------------------------------------------------------------------


def test_high_percentile_leaves_ten_samples_beyond():
    pct, value = harness.high_percentile(range(1000))
    assert value == 989 and pct == pytest.approx(99.0)
    assert harness.high_percentile(range(15))[0] == 50.0


def test_verdicts_agree_differ_noisy():
    metrics = [{"name": n, "bound": 0.1}
               for n in ("ops_per_s", "op_p50_ms", "model_ms_per_op", "peak_rss_mb")]

    def result(rate, noisy=False, failed=0, model=1.0, rss=50.0):
        e2e = {"ops_per_s": {"value": rate}, "op_p50_ms": {"value": 1.0},
               "model_ms_per_op": {"value": model}, "peak_rss_mb": {"value": rss}}
        return {"w": {"end_to_end": e2e, "failed": failed, "noisy": noisy}}

    def verdict(rows, metric="ops_per_s"):
        return next(r[-1] for r in rows if r[1] == metric)

    assert verdict(runner.verdicts(result(100), result(95), metrics)) == "agree"
    assert verdict(runner.verdicts(result(100), result(80), metrics)) == "differ"
    # a second set that is much faster repeats as badly as a slower one
    assert verdict(runner.verdicts(result(100), result(130), metrics)) == "differ"
    # a noisy probe in either set excuses every timing of the workload ...
    for a, b in ((result(100, noisy=True), result(80)),
                 (result(100), result(100, noisy=True))):
        rows = runner.verdicts(a, b, metrics)
        assert verdict(rows) == verdict(rows, "op_p50_ms") == "noisy"
        assert verdict(rows, "model_ms_per_op") == "agree"
    # ... but neither memory nor the logical clock, which must repeat exactly
    rows = runner.verdicts(result(100, noisy=True),
                           result(100, model=1.001, rss=60.0), metrics)
    assert verdict(rows, "model_ms_per_op") == "differ"
    assert verdict(rows, "peak_rss_mb") == "differ"
    rows = runner.verdicts(result(100), result(100, failed=1), metrics)
    assert rows[-1][1] == "failed" and rows[-1][-1] == "differ"


# ---------------------------------------------------------------------------
# the contract file and the smoke run
# ---------------------------------------------------------------------------


def test_benchmark_json_keeps_to_the_contract():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"] and doc["command"] == ["python3", "perf/run.py"]
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [x["name"] for x in doc["workloads"] + metrics]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    # the driver runs 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 6) < 3420


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "7"],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads((PERF / "out" / "results.json").read_text())


def test_smoke_emits_every_declared_metric_and_no_other(smoke_results):
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in doc["end_to_end"]}
    want_layers = {m["name"] for m in doc["per_layer"]}
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    assert set(smoke_results["workloads"]) == {w["name"] for w in doc["workloads"]}
    for name, r in smoke_results["workloads"].items():
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, name
        assert set(r["end_to_end"]) == want_e2e, name
        assert set(r["per_layer"]) == want_layers, name
        for metric, v in {**r["end_to_end"], **r["per_layer"]}.items():
            assert v["unit"] == units[metric]
            assert isinstance(v["value"], (int, float)) and v["value"] == v["value"]
        assert all(v["value"] > 0 for v in r["end_to_end"].values()), name
        assert r["per_layer"]["trace.unresolved_targets"]["value"] == 0


def test_smoke_ledger_reaches_the_layers_each_workload_exercises(smoke_results):
    w = smoke_results["workloads"]

    def layer(workload, metric):
        return w[workload]["per_layer"][metric]["value"]

    assert layer("remap_build", "core.schedule.self_ms_per_op") > 0
    assert layer("remap_build", "chaos.deref_ms_per_op") > 0
    assert layer("remap_build", "core.plan.send_self_ms_per_op") == 0  # bypassed
    assert layer("coupled_copy", "core.coupling.push_ms") > 0
    assert layer("coupled_copy", "core.schedule.self_ms_per_op") == 0  # bypassed
    assert layer("fields_small", "core.plan.push_half_ms") > 0
    assert layer("fields_small", "core.datamove.us_per_msg.small") > 0
    assert layer("service_fleet", "service.gateway_round_ms") > 0
    assert layer("service_fleet", "service.schedule_hit_ratio") > 0
    assert layer("rma_sweep", "vmachine.window.fence_ms") > 0
    assert layer("rma_sweep", "containers.hashmap_ms_per_op") > 0
    assert layer("hooks_on", "vmachine.reliability.retransmits_per_op") > 0
    assert layer("hooks_on", "replay.artifact_kib") > 0
    for name in w:
        assert 0 < layer(name, "trace.coverage") <= 1.05
        assert layer(name, "vmachine.msgs_per_op") > 0
    env = smoke_results["environment"]
    assert {"python", "numpy", "nproc", "commit", "seed"} <= set(env)


def test_contract_line_has_exactly_the_contract_keys(smoke_results):
    r = smoke_results["workloads"]["coupled_copy"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(runner.contract_line(r, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(r[section])
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    import shutil

    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "coupled_copy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
