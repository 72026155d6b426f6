"""Benchmark results recording and report rendering."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
REPORT = ROOT / "benchmarks" / "report.py"
sys.path.insert(0, str(ROOT))

import check  # noqa: E402


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "series.json").write_text(json.dumps({
        "experiment": "series",
        "title": "Series-style record",
        "data": {
            "procs": [2, 4, 8],
            "sched_ms": [100.0, 50.0, 25.0],
            "nested": {"copy_ms": [10.0, 5.0, 2.5]},
        },
    }))
    (tmp_path / "grid.json").write_text(json.dumps({
        "experiment": "grid",
        "title": "Grid-style record",
        "data": {
            "grid": [2, 4],
            "sched_ms": {"2": {"2": 1.0, "4": 2.0}, "4": {"2": 3.0, "4": 4.0}},
        },
    }))
    return tmp_path


def run_report(results_dir, *args):
    return subprocess.run(
        [sys.executable, str(REPORT), "--dir", str(results_dir), *args],
        capture_output=True, text=True, timeout=60,
    )


class TestReport:
    def test_series_table(self, results_dir):
        out = run_report(results_dir, "series")
        assert out.returncode == 0
        assert "| series | 2 | 4 | 8 |" in out.stdout
        assert "| sched_ms | 100 | 50 | 25 |" in out.stdout
        assert "| nested.copy_ms |" in out.stdout

    def test_grid_table(self, results_dir):
        out = run_report(results_dir, "grid")
        assert out.returncode == 0
        assert "Grid-style record" in out.stdout
        assert "| 2 | 1.00 | 2.00 |" in out.stdout

    def test_all_records(self, results_dir):
        out = run_report(results_dir)
        assert out.returncode == 0
        assert "Series-style" in out.stdout and "Grid-style" in out.stdout

    def test_missing_record_reported(self, results_dir):
        out = run_report(results_dir, "nope")
        assert out.returncode == 1
        assert "missing" in out.stdout

    def test_empty_dir(self, tmp_path):
        out = run_report(tmp_path / "absent")
        assert out.returncode == 1
        assert "no results yet" in out.stdout


class TestRecordedResultsInRepo:
    """The repo ships with recorded results from the last bench run."""

    RESULTS = REPORT.parent / "results"

    def test_every_experiment_recorded(self):
        # exactly the records some gate requires byte-identical
        watched = {Path(path).stem for gate in check.GATES.values()
                   for path in gate.watched
                   if path.startswith("benchmarks/results/")}
        assert watched == {*check.TABLES, *check.PAPER_RECORDS,
                           "ablation_run_schedules"}
        assert {p.stem for p in self.RESULTS.glob("*.json")} == watched

    def test_records_well_formed(self):
        for path in self.RESULTS.glob("*.json"):
            record = json.loads(path.read_text())
            assert "experiment" in record and "data" in record
