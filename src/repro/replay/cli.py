"""Command-line record/replay drivers (wired into ``python -m repro``).

``record`` runs a named workload under a recorder and writes the sealed
artifact; ``replay`` verifies an artifact's integrity and re-executes it
(all ranks, or one rank in isolation with ``--rank``).

Exit codes: 0 — byte-identical (or integrity OK with ``--verify-only``);
1 — divergence or integrity violation (localized to rank/channel/seq);
2 — usage or format error.
"""

from __future__ import annotations

import json

from repro.replay.artifact import (
    ReplayFormatError,
    load_artifact,
    verify_artifact,
)

__all__ = ["cmd_record", "cmd_replay", "add_record_args", "add_replay_args"]


def _parse_param(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValueError(f"--param needs key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        return key, json.loads(raw)
    except ValueError:
        return key, raw


def add_record_args(parser) -> None:
    parser.add_argument(
        "--workload", required=True,
        help="named workload to run (see --workload help: copy, coupled)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter override (repeatable); values parse as "
             "JSON, falling back to strings",
    )
    parser.add_argument(
        "--out", required=True,
        help="artifact path (.json or .json.gz)",
    )
    parser.add_argument(
        "--payloads", action="store_true",
        help="capture full recv payloads (required for --rank isolation "
             "replay; larger artifacts)",
    )
    parser.add_argument("--note", default="", help="free-form annotation")


def cmd_record(args) -> int:
    from repro.replay.recorder import Recorder
    from repro.replay.workloads import run_workload
    from repro.vmachine.machine import SPMDError

    try:
        params = dict(_parse_param(p) for p in args.param)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    recorder = Recorder(payloads=args.payloads, note=args.note)
    try:
        run_workload(args.workload, params, recorder)
        outcome = "ok"
    except SPMDError as exc:
        # A failing run is still a recording — that is the point.
        outcome = f"failed ({len(exc.errors)} rank(s)); recorded anyway"
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if recorder.artifact is None:
        print("error: the run produced no artifact (it died before the "
              "machine finalized recording)")
        return 2
    path = recorder.save(args.out)
    body = recorder.artifact["body"]
    nmsg = sum(len(r["recvs"]["seq"]) for r in body["ranks"])
    print(
        f"recorded {args.workload} ({outcome}): {body['config']['nprocs']} "
        f"rank(s), {nmsg} message(s), payloads="
        f"{'yes' if args.payloads else 'no'} -> {path}"
    )
    return 0


def add_replay_args(parser) -> None:
    parser.add_argument("artifact", help="replay artifact (.json[.gz])")
    parser.add_argument(
        "--rank", type=int, default=None,
        help="single-rank isolation replay of this global rank "
             "(peers served from the log)",
    )
    parser.add_argument(
        "--verify-only", action="store_true",
        help="only check artifact integrity (checksum + per-record payload "
             "digests); do not re-execute",
    )


def cmd_replay(args) -> int:
    from repro.replay.replayer import ReplayLogExhausted, replay_full, replay_rank

    try:
        artifact = load_artifact(args.artifact)
    except ReplayFormatError as exc:
        print(f"error: {exc}")
        return 2

    violations = verify_artifact(artifact)
    if violations:
        print(f"{args.artifact}: {len(violations)} integrity violation(s):")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"{args.artifact}: integrity OK")
    if args.verify_only:
        return 0

    try:
        if args.rank is not None:
            report = replay_rank(artifact, args.rank)
        else:
            report = replay_full(artifact)
    except (ValueError, ReplayLogExhausted) as exc:
        print(f"error: {exc}")
        return 2
    print(report.summary())
    return 0 if report.identical else 1
