#!/usr/bin/env python3
"""Render recorded benchmark results as Markdown.

The table, figure and record-only ablation benches persist their
numbers under ``benchmarks/results/<name>.json`` when they run
(``common.record``; the trajectory benches write ``BENCH_<name>.json`` at
the repo root instead); this script turns those records into the Markdown
tables EXPERIMENTS.md quotes, so the document can be refreshed
mechanically::

    python check.py tables bench bench-autotune   # produce/refresh the records
    python benchmarks/report.py                   # print all tables
    python benchmarks/report.py table2 fig15
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).parent / "results"


def _fmt(v) -> str:
    if v is None:
        return "—"
    if isinstance(v, float):
        return f"{v:.0f}" if abs(v) >= 10 else f"{v:.2f}"
    return str(v)


def render(record: dict) -> str:
    name = record["experiment"]
    data = record["data"]
    lines = [f"### {record.get('title', name)}", ""]
    # Grid-style records (tables 3/4): dict-of-dict numeric blocks.
    grids = {
        k: v for k, v in data.items()
        if isinstance(v, dict) and k != "paper"
        and all(isinstance(x, dict) for x in v.values())
    }
    series_keys = [
        k for k, v in data.items()
        if isinstance(v, list) and k not in ("procs", "grid", "vectors",
                                             "server_procs")
    ]
    axis = (
        data.get("procs") or data.get("server_procs")
        or data.get("vectors") or data.get("grid")
    )
    if grids:
        for gname, grid in grids.items():
            lines.append(f"**{gname}** (rows x cols)")
            lines.append("")
            cols = list(next(iter(grid.values())).keys())
            lines.append("| | " + " | ".join(str(c) for c in cols) + " |")
            lines.append("|" + "---|" * (len(cols) + 1))
            for row, vals in grid.items():
                lines.append(
                    f"| {row} | " + " | ".join(_fmt(vals[c]) for c in cols) + " |"
                )
            lines.append("")
    elif axis:
        rows: list[tuple[str, list]] = []
        for key, vals in data.items():
            if key in ("procs", "grid", "vectors", "server_procs", "paper"):
                continue
            if isinstance(vals, list) and len(vals) == len(axis):
                rows.append((key, vals))
            elif isinstance(vals, dict):
                for sub, subvals in vals.items():
                    if isinstance(subvals, list) and len(subvals) == len(axis):
                        rows.append((f"{key}.{sub}", subvals))
        if not rows:
            lines.append("```json")
            lines.append(json.dumps(data, indent=2, default=str))
            lines.append("```")
            lines.append("")
            return "\n".join(lines)
        lines.append("| series | " + " | ".join(str(a) for a in axis) + " |")
        lines.append("|" + "---|" * (len(axis) + 1))
        for key, vals in rows:
            lines.append(
                f"| {key} | " + " | ".join(_fmt(v) for v in vals) + " |"
            )
        lines.append("")
    else:
        lines.append("```json")
        lines.append(json.dumps(data, indent=2, default=str))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    results_dir = RESULTS
    if argv and argv[0] == "--dir":
        results_dir = Path(argv[1])
        argv = argv[2:]
    if not results_dir.exists():
        print("no results yet — run `python check.py tables bench bench-autotune` first")
        return 1
    wanted = set(argv) if argv else None
    shown = 0
    for path in sorted(results_dir.glob("*.json")):
        if wanted and path.stem not in wanted:
            continue
        print(render(json.loads(path.read_text())))
        shown += 1
    if wanted and shown < len(wanted):
        known = sorted(p.stem for p in results_dir.glob("*.json"))
        print(f"(some requested records missing; recorded: {known})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
