"""Benchmark-regression detector tests (observe.regression +
benchmarks/check_regression.py CLI)."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observe import compare_benchmarks, iter_ms_fields

REPO = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO / "benchmarks" / "check_regression.py"

BASELINE = {
    "benchmark": "overlap",
    "workload": "remap",
    "results": {
        "P4": {
            "nprocs": 4,
            "ordered_ms": 10.0,
            "overlap_ms": 8.0,
            "improvement_pct": 20.0,
            "identical_destination": True,
            "messages": {"ordered": 48, "overlap": 48},
            "nested": {"fence_ms": 1.0},
        },
        "P8": {"nprocs": 8, "ordered_ms": 20.0, "overlap_ms": 15.0},
    },
}


class TestIterMsFields:
    def test_finds_nested_ms_leaves(self):
        fields = dict(iter_ms_fields(BASELINE["results"]["P4"]))
        assert fields == {
            "ordered_ms": 10.0,
            "overlap_ms": 8.0,
            "nested.fence_ms": 1.0,
        }

    def test_skips_bools_and_non_ms(self):
        fields = dict(iter_ms_fields({"x_ms": True, "y": 3, "z_pct": 1.0}))
        assert fields == {}


    def test_wall_clock_leaves_are_not_model_time(self):
        """``*wall*_ms`` leaves are host time: not yielded, so neither
        their growth nor their absence can fail the logical-clock guard."""
        node = {"elapsed_ms": 2.0, "search_wall_ms": 300.0, "wall_ms": 5.0,
                "nested": {"exhaustive_wall_ms": 1e3, "fence_ms": 1.0}}
        assert dict(iter_ms_fields(node)) == {
            "elapsed_ms": 2.0, "nested.fence_ms": 1.0,
        }
        base = {"results": {"c": node}}
        cur = copy.deepcopy(base)
        cur["results"]["c"]["search_wall_ms"] *= 10
        del cur["results"]["c"]["nested"]["exhaustive_wall_ms"]
        assert compare_benchmarks(base, cur) == ([], [])

    def test_host_time_leaves_are_not_compared_exactly_either(self):
        """``*_s``, ``*_per_s`` and ``*wall*`` leaves (``BENCH_service`` /
        ``BENCH_dataplane``) differ on every regeneration: no drift; the
        logical leaves beside them are still held exactly."""
        node = {"wall_s": 1.5, "throughput_ops_per_s": 4e3, "tenants": 64,
                "pack": {"loop_s": 2e-3, "compiled_s": 1e-4, "messages": 12},
                "rounds": [{"wall_s": 0.1, "ops": 8}], "elapsed_ms": 3.0}
        base = {"results": {"c": node}}
        cur = copy.deepcopy(base)
        cur["results"]["c"]["wall_s"] = 1.7
        cur["results"]["c"]["throughput_ops_per_s"] = 3.5e3
        cur["results"]["c"]["pack"].update(loop_s=3e-3, compiled_s=2e-4)
        cur["results"]["c"]["rounds"][0]["wall_s"] = 0.2
        assert compare_benchmarks(base, cur) == ([], [])
        cur["results"]["c"]["pack"]["messages"] = 13
        cur["results"]["c"]["rounds"][0]["ops"] = 9
        _, drifts = compare_benchmarks(base, cur)
        assert [d.field for d in drifts] == ["pack.messages", "rounds[0].ops"]


class TestCompare:
    def test_identical_is_clean(self):
        regs, drifts = compare_benchmarks(BASELINE, BASELINE)
        assert regs == [] and drifts == []

    def test_ten_percent_regression_flagged(self):
        cur = copy.deepcopy(BASELINE)
        cur["results"]["P4"]["ordered_ms"] *= 1.10
        regs, _ = compare_benchmarks(BASELINE, cur, threshold_pct=5.0)
        (r,) = regs
        assert r.config == "P4" and r.field == "ordered_ms"
        assert r.pct == pytest.approx(10.0)
        assert "ordered_ms" in str(r)

    def test_within_threshold_passes(self):
        cur = copy.deepcopy(BASELINE)
        cur["results"]["P4"]["ordered_ms"] *= 1.04
        regs, _ = compare_benchmarks(BASELINE, cur, threshold_pct=5.0)
        assert regs == []

    def test_improvement_never_flags(self):
        cur = copy.deepcopy(BASELINE)
        cur["results"]["P4"]["ordered_ms"] *= 0.5
        regs, _ = compare_benchmarks(BASELINE, cur, threshold_pct=5.0)
        assert regs == []

    def test_non_timing_change_is_drift(self):
        cur = copy.deepcopy(BASELINE)
        cur["results"]["P4"]["messages"]["ordered"] = 50
        cur["results"]["P4"]["identical_destination"] = False
        regs, drifts = compare_benchmarks(BASELINE, cur)
        assert regs == []
        assert {(d.config, d.field) for d in drifts} == {
            ("P4", "messages.ordered"),
            ("P4", "identical_destination"),
        }

    def test_missing_and_new_configs_are_drift(self):
        cur = copy.deepcopy(BASELINE)
        del cur["results"]["P8"]
        cur["results"]["P16"] = {"ordered_ms": 1.0}
        regs, drifts = compare_benchmarks(BASELINE, cur)
        assert regs == []
        assert {d.config for d in drifts} == {"P8", "P16"}

    def test_removed_ms_leaf_is_a_regression(self):
        # A regenerated trajectory that silently drops a timing leaf must
        # fail the guard, not pass as "OK with drift".
        cur = copy.deepcopy(BASELINE)
        del cur["results"]["P4"]["overlap_ms"]
        regs, drifts = compare_benchmarks(BASELINE, cur)
        (r,) = regs
        assert (r.config, r.field) == ("P4", "overlap_ms")
        assert r.baseline == 8.0 and r.current is None
        assert r.pct == float("inf")
        assert "MISSING" in str(r) and "removed" in str(r)
        assert not any(d.field == "overlap_ms" for d in drifts)

    def test_removed_nested_ms_leaf_is_a_regression(self):
        cur = copy.deepcopy(BASELINE)
        del cur["results"]["P4"]["nested"]["fence_ms"]
        regs, _ = compare_benchmarks(BASELINE, cur)
        assert [(r.config, r.field) for r in regs] == [("P4", "nested.fence_ms")]

    def test_added_ms_leaf_is_drift_not_regression(self):
        # A *new* timing leaf is an intentional baseline extension: report
        # it, but do not fail.
        cur = copy.deepcopy(BASELINE)
        cur["results"]["P4"]["extra_ms"] = 2.5
        regs, drifts = compare_benchmarks(BASELINE, cur)
        assert regs == []
        (d,) = [d for d in drifts if d.field == "extra_ms"]
        assert d.baseline == "missing" and d.current == 2.5


class TestCheckerCLI:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(CHECKER), *argv],
            capture_output=True, text=True, cwd=REPO,
        )

    def test_explicit_pair_detects_regression(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BASELINE))
        inflated = copy.deepcopy(BASELINE)
        inflated["results"]["P8"]["overlap_ms"] *= 1.10
        cur.write_text(json.dumps(inflated))
        r = self._run("--baseline", str(base), "--current", str(cur))
        assert r.returncode == 1
        assert "REGRESSION" in r.stdout and "overlap_ms" in r.stdout

    def test_removed_leaf_fails_cli(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BASELINE))
        shrunk = copy.deepcopy(BASELINE)
        del shrunk["results"]["P8"]["overlap_ms"]
        cur.write_text(json.dumps(shrunk))
        r = self._run("--baseline", str(base), "--current", str(cur))
        assert r.returncode == 1
        assert "REGRESSION" in r.stdout and "MISSING" in r.stdout

    def test_added_leaf_passes_cli_with_drift_note(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BASELINE))
        grown = copy.deepcopy(BASELINE)
        grown["results"]["P8"]["extra_ms"] = 1.0
        cur.write_text(json.dumps(grown))
        r = self._run("--baseline", str(base), "--current", str(cur))
        assert r.returncode == 0, r.stdout + r.stderr
        assert "drift" in r.stdout and "extra_ms" in r.stdout

    def test_explicit_pair_clean(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(BASELINE))
        r = self._run("--baseline", str(base), "--current", str(base))
        assert r.returncode == 0, r.stdout + r.stderr
        assert "OK" in r.stdout

    def test_self_test_mode(self):
        r = self._run("--self-test", "BENCH_overlap.json")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "self-test OK" in r.stdout

    def test_committed_baselines_pass(self):
        r = self._run("BENCH_overlap.json", "BENCH_fusion.json",
                      "BENCH_reliability.json")
        assert r.returncode == 0, r.stdout + r.stderr


class TestCheckerErrorHandling:
    """Missing/malformed inputs fail with a message, not a traceback."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(CHECKER), *argv],
            capture_output=True, text=True, cwd=REPO,
        )

    def test_missing_file_is_clear_error(self, tmp_path):
        r = self._run("--baseline", str(tmp_path / "gone.json"),
                      "--current", str(tmp_path / "gone.json"))
        assert r.returncode == 2
        assert "no such benchmark file" in r.stderr
        assert "bench_" in r.stderr  # tells the user how to regenerate
        assert "Traceback" not in r.stderr

    def test_malformed_json_is_clear_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = self._run("--baseline", str(bad), "--current", str(bad))
        assert r.returncode == 2
        assert "malformed benchmark JSON" in r.stderr
        assert "Traceback" not in r.stderr

    def test_non_object_json_is_clear_error(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        r = self._run("--baseline", str(bad), "--current", str(bad))
        assert r.returncode == 2
        assert "expected a JSON object" in r.stderr

    def test_missing_self_test_file_is_clear_error(self, tmp_path):
        r = self._run("--self-test", str(tmp_path / "gone.json"))
        assert r.returncode == 2
        assert "no such benchmark file" in r.stderr
        assert "Traceback" not in r.stderr

    def test_new_trajectory_passes_with_note(self):
        # A file with no committed ancestor must live inside the repo for
        # the HEAD lookup; clean it up afterwards.
        fresh = REPO / "BENCH_test_new_trajectory.json"
        fresh.write_text(json.dumps(BASELINE))
        try:
            r = self._run(fresh.name)
            assert r.returncode == 0, r.stdout + r.stderr
            assert "new trajectory" in r.stdout
            assert "OK" in r.stdout
        finally:
            fresh.unlink()
