#!/usr/bin/env python
"""One way to check a change::

    python check.py              # every gate but bench-autotune (~8 min alone)
    python check.py NAME ...     # those gates
    python check.py --list       # the gate names, one per line
    python check.py replay --against TREE   # record with TREE/src, replay here

A gate is a row of data: a name, the commands to run (argv, extra
environment, working directory) and the committed paths that must not
move.  The driver runs the commands in order and, after each one,
``git diff --exit-code -- <paths>``: every number this repo commits comes
off the logical clock, so "unchanged" means byte-identical.  One
``PASS``/``FAIL name (seconds)`` line per gate; exit 1 if any failed, 2 on
a usage error.  A failing gate prints the command that broke with its
output and leaves the diff in the working tree as the evidence; a passing
one leaves ``git status`` clean.  CI is a matrix over ``--list``.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent
#: in a command's argv, environment values and cwd: the gate's scratch
#: directory, made fresh for each run and removed afterwards
TMP = "{tmp}"


@dataclass(frozen=True)
class Cmd:
    argv: tuple[str, ...]
    env: dict[str, str] = field(default_factory=dict)
    cwd: str = "."                  # relative to the repo root, or TMP


@dataclass(frozen=True)
class Gate:
    name: str
    cmds: tuple[Cmd, ...]
    watched: tuple[str, ...] = ()   # committed paths no command may move
    default: bool = True            # part of a bare ``python check.py``


def py(*args: str, env: dict[str, str] | None = None, cwd: str = ".") -> Cmd:
    return Cmd((sys.executable, *args), env or {}, cwd)


def repro(*args: str, **kw) -> Cmd:
    return py("-m", "repro", *args, **kw)


def bench(script: str, *args: str) -> Cmd:
    return py(script, *args, cwd="benchmarks")


PYTEST = ("-m", "pytest", "-x", "-q")
#: a fresh example database: a falsifying example found on some other tree
#: must not be replayed into this tree's verdict
FRESH = {"HYPOTHESIS_STORAGE_DIRECTORY": f"{TMP}/hypothesis"}
TABLES = ("table3", "table4", "table5")
#: the other paper benches, run under the default variant only, and the
#: records they regenerate.  Default row only, on purpose: in one process
#: per row (2-vCPU Xeon, Python 3.11, unloaded; seconds) tables 3/4/5 take
#: 3.7-5.4 and these seven 7.6 (default row), 8.1, 9.3, 10.1, 8.8, 8.0,
#: 7.8 (rows 1-6), so the six other rows would add ~52 s to ``tables``,
#: well over a 20 s budget.  Their records came back byte-identical under
#: every row.
PAPER_BENCHES = ("table1", "table2", "fig10_12", "fig13", "fig14", "fig15",
                 "ablation_schedule_reuse")
PAPER_RECORDS = ("table1", "table2", "fig10_12_client1", "fig10_12_client2",
                 "fig10_12_client4", "fig13", "fig14", "fig15",
                 "ablation_schedule_reuse")
#: (modules imported in the bench process before it runs, extra env): a
#: layer that claims to be invisible to the logical clock proves it by
#: reproducing the paper tables while loaded or switched on
TABLE_VARIANTS = (
    ((), {}),
    (("repro.vmachine.faults", "repro.vmachine.reliability"), {}),
    ((), {"REPRO_OBSERVE": "1"}),
    ((), {"REPRO_RECORD": "1"}),
    ((), {"REPRO_OBSERVE": "1", "REPRO_RECORD": "1"}),
    (("repro.service", "repro.apps.service_demo", "repro.dobj"), {}),
    (("repro.autotune",), {}),
    (("repro.vmachine.window", "repro.containers", "repro.apps.cp_als"), {}),
)

#: artifact stem -> (workload, ranks, record parameters); the workloads'
#: defaults make each a chaos run (drop/dup/reorder/delay, reliability on)
RECORDINGS = {
    **{f"copy-{method}-{policy}": (
        "copy", 4, ("procs=4", f"method={method}", f"policy={policy}"))
       for method in ("cooperation", "duplication")
       for policy in ("ordered", "overlap")},
    **{f"coupled-{policy}": (
        "coupled", 5, ("psrc=3", "pdst=2", f"policy={policy}"))
       for policy in ("ordered", "overlap")},
}
V1_REFUSED = """
import subprocess, sys
open("v1.json", "w").write('{"format":"repro-replay","body":{"version":1}}')
p = subprocess.run([sys.executable, "-m", "repro", "replay", "v1.json"],
                   capture_output=True, text=True)
assert p.returncode == 2, p
assert "version 1 (this build reads version 2)" in p.stdout + p.stderr, p
"""


def replay_gate(record_tree: Path) -> Gate:
    """Record each RECORDINGS row with ``record_tree``'s sources; replay it
    with this tree's, in full and for every rank in isolation.  The first
    is replayed once more with ``REPRO_OBSERVE=1`` exported: a replay is
    built from the recorded config, so a host setting cannot change it."""
    record_env = {"PYTHONPATH": str(record_tree / "src")}
    cmds = []
    for stem, (workload, nranks, params) in RECORDINGS.items():
        artifact = f"{stem}.replay.json.gz"
        flags = [arg for p in params for arg in ("--param", p)]
        cmds.append(repro("record", "--workload", workload, *flags,
                          "--payloads", "--out", artifact,
                          env=record_env, cwd=TMP))
        cmds.append(repro("replay", artifact, cwd=TMP))
        cmds += [repro("replay", artifact, "--rank", str(rank), cwd=TMP)
                 for rank in range(nranks)]
    first = f"{next(iter(RECORDINGS))}.replay.json.gz"
    cmds.append(repro("replay", first, env={"REPRO_OBSERVE": "1"}, cwd=TMP))
    cmds.append(py("-c", V1_REFUSED, cwd=TMP))
    return Gate("replay", tuple(cmds))


#: the demo is fault-free, so every message is one flow arrow; a span
#: record read with its fields out of order breaks the path/depth checks
PERFETTO_OK = """
import json
events = json.load(open("trace.json"))["traceEvents"]
assert events and {"M", "X", "s", "f"} <= {e["ph"] for e in events}
assert all({"ph", "pid"} <= set(e) for e in events)
for e in events:
    if e["ph"] == "X":
        path, depth = e["args"]["path"], e["args"]["depth"]
        assert path.endswith(e["name"]) and depth == path.count("/"), e
phs = [e["ph"] for e in events]
assert phs.count("s") == phs.count("f"), (phs.count("s"), phs.count("f"))
"""
#: (package, packages that importing it must not load), all under ``repro.``
LAYERING = (
    ("observe", ("vmachine", "core")),
    ("vmachine", ("core", "distrib", "replay")),
    ("distrib", ("vmachine", "core")),
    ("core", ("chaos", "hpf", "blockparti", "pcxx", "service", "autotune",
              "replay")),
    ("containers", ("core",)),
    ("replay", ("service",)),
    ("autotune", ("service",)),
    ("service", ("dobj", "apps")),
)
#: (file under ``src/repro``, module it imports) -> why that function-local
#: import of a banned package is allowed
LAYERING_ALLOWED = {
    ("vmachine/machine.py", "repro.replay.recorder"):
        "REPRO_RECORD=1 makes the machine build its own recorder",
}


def banned_imports(root: Path = ROOT) -> list[str]:
    """Every ``import``/``from`` of a package ``LAYERING`` bans, at any
    depth in ``src/repro/<package>`` (function-local ones included) and
    not named in ``LAYERING_ALLOWED``, one line each."""
    found = []
    for package, banned in LAYERING:
        banned = {f"repro.{name}" for name in banned}
        for path in sorted((root / "src/repro" / package).rglob("*.py")):
            rel = path.relative_to(root / "src/repro").as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module]
                else:
                    continue
                found += [
                    f"{rel}:{node.lineno} imports {module}"
                    for module in modules
                    if ".".join(module.split(".")[:2]) in banned
                    and (rel, module) not in LAYERING_ALLOWED
                ]
    return found


IMPORTS_NONE_OF = """
import importlib, sys
importlib.import_module(sys.argv[1])
bad = sorted(m for m in sys.modules
             if ".".join(m.split(".")[:2]) in sys.argv[2:])
assert not bad, f"{sys.argv[1]} imports {bad}"
"""
NO_BANNED_IMPORTS = """
import sys, check
found = check.banned_imports(check.Path(sys.argv[1]))
assert not found, "\\n".join(found)
"""
#: a renamed function the ledger wraps by name would just stop being measured
LEDGER_OK = """
import json
workloads = json.load(open("perf/out/results.json"))["workloads"]
bad = {name: (w["failed"], w["unresolved"]) for name, w in workloads.items()
       if w["failed"] or w["unresolved"]}
assert workloads and not bad, bad
"""

#: the documents whose backticked names the ``docs`` gate resolves: a
#: ``repro.…`` dotted name, a ``path.py::name`` (repo-relative or under
#: ``src/repro``) and a ``src/`` / ``tests/`` / ``benchmarks/`` / ``docs/`` path
#: (globs and brace sets ``{a,b}`` allowed: every alternative must exist)
DOCS = ("docs/API.md", "docs/MODEL.md", "CONTRIBUTING.md", "README.md",
        "DESIGN.md", "EXPERIMENTS.md")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
_DEFINED = re.compile(r"([\w./-]+\.py)((?:::\w+)+)")
_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|docs)/(?:[\w./*-]|\{[\w.,*-]*\})*")
_BRACES = re.compile(r"\{([^}]*)\}")


def _alternatives(path: str) -> list[str]:
    """``a/{b,c}.json`` -> ``["a/b.json", "a/c.json"]`` (every brace set)."""
    m = _BRACES.search(path)
    if m is None:
        return [path]
    return [out for alt in m.group(1).split(",")
            for out in _alternatives(path[:m.start()] + alt + path[m.end():])]


def _resolves(dotted: str) -> bool:
    """``repro.a.b.C.d``: the longest importable prefix, then attributes
    (an annotated class field without a default counts as one)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            elif isinstance(obj, type) and any(
                    attr in getattr(k, "__annotations__", {}) for k in obj.__mro__):
                return True
            else:
                return False
        return True
    return False


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` defines ``names[0]`` at module level, ``names[1]``
    inside it, and so on."""
    body = ast.parse(path.read_text()).body
    for name in names:
        for node in body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [node])
            if any(getattr(t, "name", getattr(t, "id", None)) == name
                   for t in targets):
                body = getattr(node, "body", [])
                break
        else:
            return False
    return True


def stale_references(doc: Path) -> list[str]:
    """Every backticked name in ``doc`` (outside fenced blocks) that does
    not resolve, one line each."""
    text = re.sub(r"^```.*?^```", "", doc.read_text(), flags=re.M | re.S)
    stale = []
    for span in _CODE_SPAN.findall(text):
        span = re.sub(r"::\s+", "::", span)
        stale += [name for name in _DOTTED.findall(span) if not _resolves(name)]
        for file, names in _DEFINED.findall(span):
            path = next((p for p in (ROOT / file, ROOT / "src/repro" / file)
                         if p.is_file()), None)
            if path is None or not _defines(path, names.split("::")[1:]):
                stale.append(file + names)
        stale += [path for path in _PATH.findall(_DEFINED.sub("", span))
                  if not all(any(ROOT.glob(alt.rstrip("/.")))
                             for alt in _alternatives(path))]
    return [f"{doc}: `{name}` does not resolve" for name in stale]


DOCS_OK = """
import sys, check
stale = [line for doc in sys.argv[1:] for line in check.stale_references(check.ROOT / doc)]
assert not stale, "\\n".join(stale)
"""


GATES = {gate.name: gate for gate in (
    Gate("tier1", (py(*PYTEST, env=FRESH),)),
    Gate("tier1-recorded", (py(*PYTEST, env={**FRESH, "REPRO_RECORD": "1"}),)),
    # one process per variant; the default one also runs the other benches
    Gate("tables", tuple(
        py("-c", "".join(f"import {module}; " for module in imports)
           + "import runpy; " + "; ".join(
               f"runpy.run_path('bench_{name}.py', run_name='__main__')"
               for name in TABLES + (PAPER_BENCHES if row == 0 else ())),
           env=env, cwd="benchmarks")
        for row, (imports, env) in enumerate(TABLE_VARIANTS)),
        tuple(f"benchmarks/results/{name}.json"
              for name in TABLES + PAPER_RECORDS)),
    Gate("bench", (
        *(bench(f"bench_{name}.py") for name in (
            "ablation_overlap", "ablation_fusion", "ablation_reliability",
            "ablation_dataplane", "rma", "service", "ablation_run_schedules",
            # record nothing: run for their shape checks
            "ablation_aggregation", "ablation_paged_table",
            "ablation_partitioners", "ablation_vectorized")),
        # reduced matrices, run for their acceptance asserts: write nothing
        bench("bench_service.py", "--smoke"),
        bench("bench_autotune.py", "--smoke"),
    ), tuple(f"BENCH_{name}.json" for name in (
        "overlap", "fusion", "reliability", "dataplane", "rma", "service",
        "autotune")) + ("benchmarks/results/ablation_run_schedules.json",)),
    Gate("bench-autotune", (bench("bench_autotune.py"),),
         ("BENCH_autotune.json",), default=False),
    replay_gate(ROOT),
    Gate("cli", (
        repro("trace", "--procs", "4", "--size", "12", "--out", "trace.json",
              cwd=TMP),
        py("-c", PERFETTO_OK, cwd=TMP),
        # exits nonzero if any rank's term totals drift from its clock
        repro("profile", "--procs", "4", "--size", "12"),
        repro("profile", "--procs", "4", "--size", "12", "--policy", "overlap"),
        repro("plan-summary", "--procs", "4", "--arrays", "3"),
        repro("autotune", "--elems", "2048", "--procs", "4", "--reuse", "4",
              "--top", "3", "--validate", "2"),
    )),
    Gate("layering", tuple(
        py("-c", IMPORTS_NONE_OF, f"repro.{package}",
           *(f"repro.{other}" for other in banned))
        for package, banned in LAYERING) + (
        py("-c", NO_BANNED_IMPORTS, str(ROOT)),)),
    Gate("docs", (py("-c", DOCS_OK, *DOCS),)),
    Gate("perf-smoke", (
        py("perf/run.py", "--smoke"),
        py("-c", LEDGER_OK),
        py("-m", "pytest", "perf/tests", "-q"),
    )),
)}


def run_gate(gate: Gate, root: Path = ROOT) -> bool:
    """False at the first command that fails or moves a watched path."""
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory(prefix=f"check-{gate.name}-") as tmp:
        def sub(text: str) -> str:
            return text.replace(TMP, tmp)
        for cmd in gate.cmds:
            done = subprocess.run(
                [sub(arg) for arg in cmd.argv], cwd=root / sub(cmd.cwd),
                env={**os.environ, "PYTHONPATH": pythonpath,
                     **{k: sub(v) for k, v in cmd.env.items()}},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                print(f"{done.stdout}check: exit {done.returncode} from {cmd}")
                return False
            if gate.watched and subprocess.run(
                    ["git", "diff", "--exit-code", "--", *gate.watched],
                    cwd=root).returncode != 0:
                print(f"check: a committed file moved under {cmd}")
                return False
    return True


def main(argv=None, gates=GATES, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="GATE")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--against", metavar="TREE", type=Path)
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(gates))
        return 0
    unknown = [name for name in args.names if name not in gates]
    if unknown:
        parser.error(f"unknown gate {unknown}; gates: {', '.join(gates)}")
    names = args.names or [n for n, gate in gates.items() if gate.default]
    if args.against is not None:
        if "replay" not in names or not (args.against / "src").is_dir():
            parser.error("--against TREE is the replay gate's; TREE/src must exist")
        gates = {**gates, "replay": replay_gate(args.against.resolve())}
    failed = False
    for name in names:
        start = time.monotonic()
        ok = run_gate(gates[name], root)
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} "
              f"({time.monotonic() - start:.0f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
