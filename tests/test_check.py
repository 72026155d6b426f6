"""The gate driver (``check.py``): its rows are data, so the data is
checked here, and the mechanism is driven with injected rows in a
throw-away git repository."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import check  # noqa: E402
from check import GATES, TMP, Gate, py  # noqa: E402


def test_list_prints_each_gate_once(capsys):
    assert check.main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == list(GATES) and len(set(listed)) == len(listed)
    assert {"tier1", "tier1-recorded", "tables", "bench", "bench-autotune",
            "replay", "cli", "layering", "perf-smoke"} == set(listed)
    # a bare run leaves out only the eight-minute one
    assert [n for n, g in GATES.items() if not g.default] == ["bench-autotune"]


def test_every_script_and_path_a_row_names_exists():
    for gate in GATES.values():
        for path in gate.watched:
            assert (ROOT / path).is_file(), (gate.name, path)
        for cmd in gate.cmds:
            if cmd.cwd == TMP:
                continue
            cwd = ROOT / cmd.cwd
            assert cwd.is_dir(), (gate.name, cmd.cwd)
            scripts = [a for a in cmd.argv if a.endswith(".py")]
            if "-c" in cmd.argv:  # the tables rows run their bench by name
                scripts += re.findall(r"'(bench_\w+\.py)'", cmd.argv[2])
            for script in scripts:
                assert (cwd / script).is_file(), (gate.name, script)
    modules = {m for imports, _ in check.TABLE_VARIANTS for m in imports}
    for package, banned in check.LAYERING:
        modules |= {f"repro.{name}" for name in (package, *banned)}
    for module in modules:
        assert importlib.util.find_spec(module) is not None, module


def test_unknown_gate_exits_2():
    with pytest.raises(SystemExit) as exit_info:
        check.main(["no-such-gate"])
    assert exit_info.value.code == 2


@pytest.fixture
def repo(tmp_path):
    """A git repository with one committed number."""
    (tmp_path / "numbers.json").write_text("1\n")
    for argv in (["init", "-q"], ["add", "numbers.json"],
                 ["-c", "user.name=t", "-c", "user.email=t@example.org",
                  "commit", "-q", "-m", "numbers"]):
        subprocess.run(["git", *argv], cwd=tmp_path, check=True)
    return tmp_path


def rewrite(value: str):
    return py("-c", f"open('numbers.json', 'w').write('{value}\\n')")


def test_failing_command_fails_its_gate(repo, capfd):
    gates = {"boom": Gate("boom", (py("-c", "print('evidence'); raise SystemExit(3)"),
                                   rewrite("never reached")))}
    assert check.main(["boom"], gates=gates, root=repo) == 1
    out = capfd.readouterr().out
    assert "FAIL boom" in out and "evidence" in out and "exit 3" in out
    assert (repo / "numbers.json").read_text() == "1\n"


def test_moving_a_watched_file_fails_its_gate(repo, capfd):
    gates = {gate.name: gate for gate in (
        # the scratch directory is substituted into env, cwd (and argv)
        Gate("same", (
            py("-c", "import os; assert os.path.samefile(os.environ['WHERE'], '.')",
               env={"WHERE": TMP}, cwd=TMP),
            rewrite("1"),
        ), watched=("numbers.json",)),
        Gate("moves", (rewrite("2"),), watched=("numbers.json",)),
        Gate("unwatched", (rewrite("3"),)),
    )}
    assert check.main([], gates=gates, root=repo) == 1
    out = capfd.readouterr().out
    assert "PASS same" in out and "FAIL moves" in out and "PASS unwatched" in out
    assert "-1\n+2" in out  # the diff is the evidence
    assert check.main(["same"], gates=gates, root=repo) == 1  # still dirty


def test_ci_matrix_is_the_gate_list():
    # PyYAML is not a declared dependency: the matrix is one flow sequence
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+gate: \[([^\]]*)\]", workflow, re.MULTILINE)
    assert [name.strip() for name in matrix.split(",")] == list(GATES)


def test_layering_pairs_hold_in_fresh_interpreters():
    gate = GATES["layering"]
    assert len(gate.cmds) == len(check.LAYERING)
    assert check.run_gate(gate)


def test_layering_check_catches_a_violation(capfd):
    # dobj is a façade over service, so this direction must be reported
    upward = Gate("upward", (py("-c", check.IMPORTS_NONE_OF, "repro.dobj",
                                "repro.service"),))
    assert not check.run_gate(upward)
    assert "repro.dobj imports ['repro.service" in capfd.readouterr().out
