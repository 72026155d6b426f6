"""The gate driver (``check.py``): its rows are data, so the data is
checked here, and the mechanism is driven with injected rows in a
throw-away git repository."""

import ast
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
            "replay", "cli", "layering", "docs", "perf-smoke"} == set(listed)
    # a bare run leaves out only the eight-minute one
    assert [n for n, g in GATES.items() if not g.default] == ["bench-autotune"]


def _scripts(cmd) -> list[Path]:
    """The scripts a gate command runs, as paths."""
    scripts = [a for a in cmd.argv if a.endswith(".py")]
    if "-c" in cmd.argv:  # the tables rows run their bench by name
        scripts += re.findall(r"'(bench_\w+\.py)'", cmd.argv[2])
    return [ROOT / cmd.cwd / script for script in scripts]


def test_every_script_and_path_a_row_names_exists():
    for gate in GATES.values():
        for path in gate.watched:
            assert (ROOT / path).is_file(), (gate.name, path)
        for cmd in gate.cmds:
            if cmd.cwd == TMP:
                continue
            assert (ROOT / cmd.cwd).is_dir(), (gate.name, cmd.cwd)
            for script in _scripts(cmd):
                assert script.is_file(), (gate.name, script)


def ungated_shape_checks(gates) -> list[str]:
    """``benchmarks/*.py`` scripts that call ``check_shape`` but that no
    command of ``gates`` runs: their checks would check nothing."""
    gated = {script.resolve() for gate in gates.values()
             for cmd in gate.cmds if cmd.cwd != TMP for script in _scripts(cmd)}
    return [
        path.name for path in sorted((ROOT / "benchmarks").glob("*.py"))
        if path.resolve() not in gated
        and any(isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "check_shape"
                for node in ast.walk(ast.parse(path.read_text())))
    ]


def test_every_shape_checked_bench_runs_under_a_gate():
    assert ungated_shape_checks(GATES) == []
    # the scan sees a script once no gate runs it
    without_bench = {name: g for name, g in GATES.items() if name != "bench"}
    assert "bench_rma.py" in ungated_shape_checks(without_bench)
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
    assert len(gate.cmds) == len(check.LAYERING) + 1  # + the static scan
    assert check.run_gate(gate)


def test_layering_gate_sees_a_function_local_import(tmp_path, capfd):
    # importing the package would never load this: only a call would
    late = tmp_path / "src/repro/vmachine/late.py"
    late.parent.mkdir(parents=True)
    late.write_text("def f():\n    from repro.core.plan import plan_move\n")
    scan = Gate("scan", (py("-c", check.NO_BANNED_IMPORTS, str(tmp_path)),))
    assert not check.run_gate(scan)
    assert "vmachine/late.py:2 imports repro.core.plan" in capfd.readouterr().out


def test_docs_gate_fails_on_a_stale_name(tmp_path, capfd):
    good = ("`repro.core.registry.LibraryAdapter.array_type`, "
            "`check.py::Gate`, `tests/core/test_registry.py::TestRegistry::"
            "test_unknown_library`, `core/registry.py::cartesian_local_elements`, "
            "`src/repro/vmachine/tags.py`, `benchmarks/bench_*.py`, `docs/`\n"
            "```\nrepro.in.a.fenced.block `is not read`\n```\n")
    doc = tmp_path / "doc.md"
    doc.write_text(good)
    docs = Gate("docs", (py("-c", check.DOCS_OK, str(doc)),))
    assert check.run_gate(docs)
    bad = ("`repro.core.registry.LibraryAdapter.wire_time`",
           "`tests/core/test_registry.py::TestRegistry::test_gone`",
           "`core/registry.py::MaterialisedHandle`",
           "`src/repro/vmachine/tag_map.py`")
    doc.write_text(good + "\n".join(bad))
    assert not check.run_gate(docs)
    out = capfd.readouterr().out
    assert all(f"{name} does not resolve" in out for name in bad)


def test_docs_gate_reads_every_alternative_of_a_brace_set(tmp_path, capfd):
    assert {"DESIGN.md", "EXPERIMENTS.md"} <= set(check.DOCS)
    doc = tmp_path / "doc.md"
    docs = Gate("docs", (py("-c", check.DOCS_OK, str(doc)),))
    doc.write_text("`benchmarks/results/table{3,4,5}.json` and "
                   "`src/repro/service/{protocol,rounds}.py`\n")
    assert check.run_gate(docs)
    doc.write_text("`benchmarks/results/table{3,9}.json`\n")
    assert not check.run_gate(docs)
    assert "`benchmarks/results/table{3,9}.json` does not resolve" in (
        capfd.readouterr().out)


def test_layering_check_catches_a_violation(capfd):
    # dobj is a façade over service, so this direction must be reported
    upward = Gate("upward", (py("-c", check.IMPORTS_NONE_OF, "repro.dobj",
                                "repro.service"),))
    assert not check.run_gate(upward)
    assert "repro.dobj imports ['repro.service" in capfd.readouterr().out
