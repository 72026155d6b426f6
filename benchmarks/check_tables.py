#!/usr/bin/env python
"""Guard the paper tables: re-run tables 3/4/5 and require the committed
result JSONs byte-for-byte.

The logical clock is deterministic, so any layer that claims to be
invisible to it (a disabled fault plan, observability, recording, an
additive package) proves the claim by re-running the three table benches
*with that layer loaded or switched on* and diffing the results::

    python benchmarks/check_tables.py                       # default executor
    python benchmarks/check_tables.py --env REPRO_OBSERVE=1
    python benchmarks/check_tables.py --import repro.service --import repro.apps.service_demo

Each ``--import MODULE`` is imported in the bench process itself, before
the bench runs; each ``--env KEY=VAL`` is set in its environment.

Exit status: 0 byte-identical, 1 a table moved (the diff is printed) or a
bench failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLES = ("table3", "table4", "table5")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--import", dest="imports", action="append",
                        default=[], metavar="MODULE")
    parser.add_argument("--env", action="append", default=[],
                        metavar="KEY=VAL")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p
    )
    for item in args.env:
        key, sep, value = item.partition("=")
        if not (key and sep):
            parser.error(f"--env wants KEY=VAL, got {item!r}")
        env[key] = value

    prelude = "".join(f"import {module}\n" for module in args.imports)
    for table in TABLES:
        code = (
            f"{prelude}import runpy\n"
            f"runpy.run_path('bench_{table}.py', run_name='__main__')\n"
        )
        done = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env)
        if done.returncode != 0:
            print(f"check_tables: bench_{table}.py failed", file=sys.stderr)
            return 1
    diff = subprocess.run(
        ["git", "diff", "--exit-code", "--",
         *(f"results/{table}.json" for table in TABLES)],
        cwd=HERE,
    )
    return 1 if diff.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
