"""Command-line interface: quick demos and experiment drivers.

Every subcommand lives in one registration table (``COMMANDS``): a
``(name, help, configure, run)`` row per command, rendered consistently
by ``python -m repro --help``.  Adding a command means adding one row —
the parser wiring and the dispatch share the same table, so the help
text and the dispatcher can never drift apart.

::

    python -m repro info                       # machine profiles & libraries
    python -m repro demo                       # the paper's Figure 9 example
    python -m repro coupled --procs 8 --remap mc-coop
    python -m repro matvec --client 1 --server 8 --vectors 4
    python -m repro plan-summary --procs 4 --arrays 3
    python -m repro trace --procs 4 --out trace.json   # Perfetto/chrome://tracing
    python -m repro profile --procs 4                  # cost-term attribution
    python -m repro autotune --elems 65536 --procs 8 --reuse 50 --validate 3
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable


def cmd_info(args) -> int:
    import repro
    from repro.core import registered_libraries
    from repro.vmachine import ALPHA_FARM_ATM, IBM_SP2

    # Importing the libraries registers their adapters.
    import repro.blockparti  # noqa: F401
    import repro.chaos  # noqa: F401
    import repro.hpf  # noqa: F401
    import repro.pcxx  # noqa: F401

    print(f"repro {repro.__version__} — Meta-Chaos reproduction (IPPS 1997)")
    print(f"registered data parallel libraries: {', '.join(registered_libraries())}")
    for p in (IBM_SP2, ALPHA_FARM_ATM):
        print(
            f"profile {p.name}: latency {p.alpha * 1e6:.0f} us, "
            f"bandwidth {p.bandwidth / 1e6:.0f} MB/s, "
            f"table dereference {p.deref * 1e6:.0f} us/elem"
        )
    return 0


def _permutations(n: int, k: int) -> list:
    """``k`` seeded permutations of ``n * n`` indices: the Chaos
    destinations of :func:`_parti_onto_chaos`."""
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.permutation(n * n) for _ in range(k)]


def _parti_onto_chaos(comm, n: int, perms, policy="ordered") -> list:
    """The CLI's one cross-library copy: per permutation, a regular
    ``n x n`` BlockParti array (element ``(i, j)`` holds ``i * n + j``)
    whose full section is scheduled onto a Chaos array permuted by it.
    Returns one ``(source, destination, schedule)`` per permutation."""
    from repro.blockparti import BlockPartiArray
    from repro.chaos import ChaosArray
    from repro.core import (
        IndexRegion,
        ScheduleMethod,
        SectionRegion,
        mc_compute_schedule,
        mc_new_set_of_regions,
    )
    from repro.distrib.section import Section

    sor_src = mc_new_set_of_regions(SectionRegion(Section.full((n, n))))
    moves = []
    for perm in perms:
        A = BlockPartiArray.from_function(
            comm, (n, n), lambda i, j: 1.0 * i * n + j
        )
        B = ChaosArray.zeros(comm, perm % comm.size)
        moves.append((A, B, mc_compute_schedule(
            comm, "blockparti", A, sor_src,
            "chaos", B, mc_new_set_of_regions(IndexRegion(perm)),
            ScheduleMethod.COOPERATION, policy=policy,
        )))
    return moves


def cmd_demo(args) -> int:
    import numpy as np

    from repro.core import mc_copy, schedule_stats
    from repro.vmachine import VirtualMachine

    n = args.size
    perms = _permutations(n, 1)

    def spmd(comm):
        ((A, B, sched),) = _parti_onto_chaos(comm, n, perms)
        mc_copy(comm, sched, A, B)
        stats = schedule_stats(comm, sched)
        full = B.gather_global()
        if comm.rank == 0:
            expect = np.zeros(n * n)
            expect[perms[0]] = np.arange(n * n, dtype=float)
            assert np.allclose(full, expect)
            print(
                f"copied a {n}x{n} Parti array onto a permuted Chaos array: "
                f"{stats.n_elements} elements, {stats.message_pairs} messages, "
                f"locality {stats.locality:.0%} — verified element-exact"
            )
        return None

    result = VirtualMachine(args.procs).run(spmd)
    print(f"modelled elapsed time: {result.elapsed_ms:.3f} ms on {args.procs} procs")
    return 0


def cmd_coupled(args) -> int:
    from repro.apps.coupled import run_coupled_single_program
    from repro.apps.meshes import delaunay_mesh, full_remap_mapping

    shape = (args.size, args.size)
    npoints = args.size * args.size
    mesh = delaunay_mesh(npoints, seed=1)
    mapping = full_remap_mapping(shape, npoints, seed=2)
    t = run_coupled_single_program(
        args.procs, shape, mesh, mapping, timesteps=args.steps, remap=args.remap
    )
    print(
        f"coupled run ({args.remap}, P={args.procs}, mesh {shape[0]}x{shape[1]}):"
    )
    print(f"  inspector (total)        {t.inspector_ms:10.2f} ms")
    print(f"  remap schedule (total)   {t.sched_ms:10.2f} ms")
    print(f"  executor (per step)      {t.executor_per_iter_ms:10.2f} ms")
    print(f"  remap copies (per step)  {t.copy_per_iter_ms:10.2f} ms")
    return 0


def cmd_matvec(args) -> int:
    from repro.apps.matvec_cs import run_client_server_matvec

    t = run_client_server_matvec(
        args.client, args.server, n=args.size, nvectors=args.vectors
    )
    print(
        f"client/server matvec (client={args.client}, server={args.server}, "
        f"{args.vectors} vector(s), {args.size}x{args.size}):"
    )
    print(f"  compute schedules   {t.sched_ms:10.2f} ms")
    print(f"  send matrix         {t.matrix_ms:10.2f} ms")
    print(f"  server compute      {t.server_ms:10.2f} ms")
    print(f"  vector transfers    {t.vector_ms:10.2f} ms")
    print(f"  total               {t.total_ms:10.2f} ms")
    print(f"  client-local alternative: {t.local_alternative_ms:.2f} ms "
          f"(speedup {t.speedup_vs_local:.2f}x)")
    return 0


def cmd_plan_summary(args) -> int:
    """Per-pair message/byte/segment table of a fused multi-array plan.

    Builds ``--arrays`` schedules (regular Parti source onto distinct
    permuted Chaos destinations), compiles them into one
    :class:`~repro.core.plan.MovePlan`, and prints what each rank's fused
    messages carry — driven by :meth:`CommSchedule.stats` and
    :meth:`MovePlan.pair_table`, the same introspection the executors'
    ``plan:fuse`` trace events use — plus what the plan was lowered to:
    each pair's program kinds (``slice``/``grid``/``index`` row counts)
    and the wire size of its fused message (headers and padding
    included; the self pair is a direct copy and sends none).
    """
    from collections import Counter

    from repro.core import mc_compute_plan
    from repro.core.wire import SegmentHeader, WireLayout
    from repro.vmachine import VirtualMachine

    n = args.size
    k = args.arrays
    perms = _permutations(n, k)

    def spmd(comm):
        moves = _parti_onto_chaos(comm, n, perms)
        schedules = [sched for _, _, sched in moves]
        plan = mc_compute_plan(schedules)
        per_sched = [s.stats() for s in schedules]
        rows = plan.pair_table()
        dtype = moves[0][0].local.dtype.str  # every source has the same one
        for row in rows:
            program = plan.send_programs[row["peer"]]
            kinds = Counter(seg.program.kind for seg in program)
            row["kinds"] = " ".join(f"{kind}:{c}" for kind, c in sorted(kinds.items()))
            row["wire_bytes"] = 0 if row["peer"] == comm.rank else WireLayout(
                SegmentHeader(seg.schedule_id, dtype, seg.count) for seg in program
            ).nbytes
        return comm.gather(
            {
                "rank": comm.rank,
                "rows": rows,
                "fused": plan.fused_message_count,
                "unfused": plan.unfused_message_count,
                "send_fanout": [st.send_fanout for st in per_sched],
                "send_bytes": [st.total_send_bytes for st in per_sched],
            }
        )

    result = VirtualMachine(args.procs).run(spmd)
    summaries = result.values[0]
    print(
        f"fused move plan: {k} array(s), {args.procs} procs, "
        f"{n}x{n} blockparti -> permuted chaos"
    )
    print(f"{'rank':>4}  {'peer':>4}  {'segs':>4}  {'elems':>7}  "
          f"{'data_bytes':>10}  {'alpha_saved':>11}  {'wire_bytes':>10}  "
          f"lowered")
    for s in summaries:
        for row in s["rows"]:
            print(
                f"{s['rank']:>4}  {row['peer']:>4}  {row['segments']:>4}  "
                f"{row['elements']:>7}  {row['data_bytes']:>10}  "
                f"{row['alpha_saved']:>11}  {row['wire_bytes']:>10}  "
                f"{row['kinds']}"
            )
    fused = sum(s["fused"] for s in summaries)
    unfused = sum(s["unfused"] for s in summaries)
    bytes_total = sum(sum(s["send_bytes"]) for s in summaries)
    wire_total = sum(row["wire_bytes"] for s in summaries for row in s["rows"])
    print(
        f"totals: {fused} fused message(s) replacing {unfused} "
        f"({unfused - fused} message latencies saved per execution), "
        f"{bytes_total} payload bytes per execution, "
        f"{wire_total} fused wire bytes"
    )
    return 0


def _run_observed(procs: int, size: int, policy: str = "ordered"):
    """The demo's cross-library copy, run with observability enabled.

    Shared driver for ``trace`` and ``profile``: a regular BlockParti
    source copied onto a permuted Chaos destination (schedule build +
    single-schedule move + a 2-array fused plan move), so the resulting
    trace exercises every span kind — ``schedule:build``, ``pack``,
    ``wire``, ``unpack``, ``copy:local``, ``plan:compile``,
    ``plan:execute``.
    """
    from repro.core import (
        ExecutorPolicy,
        mc_compute_plan,
        mc_copy,
        mc_copy_many,
    )
    from repro.vmachine import VirtualMachine

    pol = ExecutorPolicy.coerce(policy)
    perms = _permutations(size, 2)

    def spmd(comm):
        moves = _parti_onto_chaos(comm, size, perms, pol)
        # One single-schedule move, then a fused 2-array plan move.
        A, B, sched = moves[0]
        mc_copy(comm, sched, A, B, policy=pol)
        plan = mc_compute_plan([sched for _, _, sched in moves])
        mc_copy_many(
            comm, plan,
            [a for a, _, _ in moves], [b for _, b, _ in moves],
            policy=pol,
        )
        return None

    return VirtualMachine(procs, observe=True).run(spmd)


def cmd_trace(args) -> int:
    """Run an observed workload and export a Chrome/Perfetto trace."""
    from repro.observe import write_chrome_trace

    result = _run_observed(args.procs, args.size, args.policy)
    doc = write_chrome_trace(args.out, result)
    nspans = sum(len(s) for s in result.spans)
    nevents = sum(len(t) for t in result.traces)
    print(
        f"wrote {args.out}: {len(doc['traceEvents'])} trace events "
        f"({nspans} spans, {nevents} raw events, {args.procs} rank tracks)"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_profile(args) -> int:
    """Run an observed workload and print per-rank cost-term attribution."""
    from repro.observe import format_phase_table, format_profile

    result = _run_observed(args.procs, args.size, args.policy)
    print(format_profile(result.metrics, result.clocks))
    print()
    print(format_phase_table(result.metrics))
    worst = max(
        abs(m.attributed_seconds() - c)
        for m, c in zip(result.metrics, result.clocks)
    )
    print(f"\nmax |attributed - clock| residual: {worst:.3e} s")
    return 0 if worst < 1e-9 else 1


def cmd_serve(args) -> int:
    """Run the multi-tenant coupling service against a demo object server."""
    from repro.apps.service_demo import run_service_demo

    report, server_summary, _ = run_service_demo(
        tenants=args.tenants,
        gateway_procs=args.gateway,
        server_procs=args.server,
        size=args.size,
        shapes=args.shapes,
        iterations=args.iters,
        policy=args.policy,
        reliability=args.reliability,
        max_queue_depth=args.queue_depth,
        max_inflight_per_tenant=args.inflight,
    )
    ok = sum(1 for t in report.tenants if t.ok)
    shed = sum(t.ops_shed for t in report.tenants)
    waited = sorted(x for t in report.tenants for x in t.rounds_waited)
    c = report.cache
    print(
        f"{ok}/{len(report.tenants)} tenants ok over {report.rounds} rounds "
        f"({shed} submissions shed, slot high water "
        f"{report.slot_high_water})"
    )
    if waited:
        p50 = waited[len(waited) // 2]
        p99 = waited[min(len(waited) - 1, int(len(waited) * 0.99))]
        print(f"rounds waited p50 {p50}, p99 {p99} "
              f"({len(waited)} resolved ops)")
    # The server's store is a replica of the gateway's: one line for both.
    print(
        f"cache: {c['schedule_hits']} schedule hits / "
        f"{c['schedule_misses']} misses, {c['plan_hits']} plans reused / "
        f"{c['plan_misses']} compiled, {c['halves_lowered']} lowered halves"
    )
    print(f"server: {server_summary.get('ops_served', 0)} ops served")
    return 0 if report.ok else 1


def cmd_record(args) -> int:
    from repro.replay.cli import cmd_record as run

    return run(args)


def cmd_replay(args) -> int:
    from repro.replay.cli import cmd_replay as run

    return run(args)


def cmd_autotune(args) -> int:
    """Search the mapping space analytically; optionally validate winners."""
    from repro.autotune import (
        CostModel,
        DistSpec,
        WorkloadSpec,
        calibrate,
        search_mapping,
        validate_top,
    )

    def parse_dist(text: str | None) -> DistSpec | None:
        if text is None:
            return None
        if text.startswith("cyclic(") and text.endswith(")"):
            return DistSpec("block_cyclic", block=int(text[7:-1]))
        if text.startswith("irregular"):
            seed = int(text[10:-1]) if "(" in text else 11
            return DistSpec("irregular", seed=seed)
        return DistSpec(text)

    workload = WorkloadSpec(
        name="cli",
        nelems=args.elems,
        nprocs=args.procs,
        pattern=args.pattern,
        seed=args.seed,
        narrays=args.arrays,
        reuse=args.reuse,
    )
    model = CostModel(workload.profile)
    space_kwargs = dict(
        fixed_src=parse_dist(args.fix_src),
        fixed_dst=parse_dist(args.fix_dst),
    )
    result = search_mapping(workload, model=model, **space_kwargs)
    if args.calibrate:
        model = calibrate(
            workload, [p.mapping for p in result.ranked[: args.top]], model
        )
        result = search_mapping(workload, model=model, **space_kwargs)
        cal = model.coefficients.as_dict()
        print("calibrated coefficients: "
              + ", ".join(f"{t}={v:.3g}" for t, v in cal.items()))
    print(
        f"searched {result.evaluated + result.pruned} mapping points "
        f"({result.pruned} pruned) in {result.search_wall_s * 1e3:.1f} ms "
        f"wall — n={workload.nelems}, P={workload.nprocs}, "
        f"pattern={workload.pattern}, reuse={workload.reuse}"
    )
    print(f"{'predicted':>11}  {'build':>9}  {'move':>9}  mapping")
    for row in result.table(args.top):
        print(
            f"{row['predicted_total_ms']:>9.3f} ms  "
            f"{row['predicted_build_ms']:>6.3f} ms  "
            f"{row['predicted_move_ms']:>6.3f} ms  {row['mapping']}"
        )
    if args.validate > 0:
        pairs = validate_top(workload, result, top=args.validate)
        print(f"\nvalidated top {len(pairs)} under observe=True:")
        best_measured = min(m.total_s for _, m in pairs)
        for pred, meas in pairs:
            err = abs(pred.total_s - meas.total_s) / meas.total_s
            print(
                f"  {pred.mapping.label()}: predicted "
                f"{pred.total_s * 1e3:.3f} ms, measured "
                f"{meas.total_s * 1e3:.3f} ms ({err:.1%} error)"
            )
        chosen = pairs[0][1].total_s
        gap = (chosen - best_measured) / best_measured
        print(f"  auto-chosen mapping within {gap:.1%} of the measured best")
        return 0 if gap <= 0.05 else 1
    return 0


# -- registration table ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    """One subcommand: its name, one-line help, arguments, and runner."""

    name: str
    help: str
    run: Callable
    configure: Callable[[argparse.ArgumentParser], None] | None = None


def _std(p: argparse.ArgumentParser, procs: int = 4, size: int = 16,
         policy: bool = False) -> None:
    p.add_argument("--procs", type=int, default=procs)
    p.add_argument("--size", type=int, default=size)
    if policy:
        p.add_argument("--policy", choices=("ordered", "overlap", "auto"),
                       default="ordered")


def _configure_coupled(p):
    _std(p, size=64)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--remap", choices=("mc-coop", "mc-dup", "chaos"),
                   default="mc-coop")


def _configure_matvec(p):
    p.add_argument("--client", type=int, default=1)
    p.add_argument("--server", type=int, default=8)
    p.add_argument("--vectors", type=int, default=1)
    p.add_argument("--size", type=int, default=512)


def _configure_plan_summary(p):
    _std(p)
    p.add_argument("--arrays", type=int, default=3)


def _configure_trace(p):
    _std(p, policy=True)
    p.add_argument("--out", default="trace.json")


def _configure_serve(p):
    p.add_argument("--tenants", type=int, default=16)
    p.add_argument("--gateway", type=int, default=2)
    p.add_argument("--server", type=int, default=3)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--shapes", type=int, default=1,
                   help="distinct array signatures (shape classes); tenants "
                        "are assigned round-robin, so shapes=1 makes every "
                        "bind after the first a shared-cache hit")
    p.add_argument("--iters", type=int, default=2,
                   help="push/compute/pull iterations per tenant")
    p.add_argument("--policy", choices=("ordered", "overlap"),
                   default="ordered")
    p.add_argument("--reliability", action="store_true")
    p.add_argument("--queue-depth", type=int, default=1024)
    p.add_argument("--inflight", type=int, default=8)


def _configure_autotune(p):
    p.add_argument("--elems", type=int, default=65536,
                   help="elements moved per schedule")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--pattern", choices=("permute", "identity", "section"),
                   default="permute")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrays", type=int, default=1,
                   help="same-shaped fields per timestep (fusion candidates)")
    p.add_argument("--reuse", type=int, default=1,
                   help="data moves amortizing one schedule build")
    p.add_argument("--top", type=int, default=5,
                   help="ranked mapping points to print")
    p.add_argument("--validate", type=int, default=0, metavar="N",
                   help="execute the top N candidates under observe=True "
                        "and report predicted vs measured")
    p.add_argument("--calibrate", action="store_true",
                   help="refit per-term build coefficients from measured "
                        "runs of the top candidates, then re-search")
    p.add_argument("--fix-src", metavar="DIST",
                   help="pin the source distribution (block, cyclic, "
                        "cyclic(K), irregular[(SEED)])")
    p.add_argument("--fix-dst", metavar="DIST",
                   help="pin the destination distribution")


def _record_replay_configures():
    from repro.replay.cli import add_record_args, add_replay_args

    return add_record_args, add_replay_args


COMMANDS: tuple[Command, ...] = (
    Command("info", "machine profiles and registered libraries", cmd_info),
    Command("demo", "cross-library copy demo (Parti -> Chaos)", cmd_demo,
            lambda p: _std(p, size=32)),
    Command("coupled", "coupled-mesh application (paper §5.1)", cmd_coupled,
            _configure_coupled),
    Command("matvec", "client/server matvec (paper §5.4)", cmd_matvec,
            _configure_matvec),
    Command("plan-summary",
            "per-pair message/byte/segment table of a fused MovePlan",
            cmd_plan_summary, _configure_plan_summary),
    Command("trace", "export a Chrome/Perfetto trace of an observed demo run",
            cmd_trace, _configure_trace),
    Command("profile", "per-rank cost-term attribution of an observed run",
            cmd_profile, lambda p: _std(p, policy=True)),
    Command("serve",
            "multi-tenant coupling service demo (sessions, shared caches)",
            cmd_serve, _configure_serve),
    Command("record",
            "run a named workload under the recorder; write a sealed "
            "replay artifact",
            cmd_record, lambda p: _record_replay_configures()[0](p)),
    Command("replay",
            "verify and re-execute a recorded run (all ranks, or one rank "
            "in isolation with --rank)",
            cmd_replay, lambda p: _record_replay_configures()[1](p)),
    Command("autotune",
            "cost-model search over the mapping space; optional validation",
            cmd_autotune, _configure_autotune),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Meta-Chaos reproduction (IPPS 1997) — demos and drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    runners: dict[str, Callable] = {}
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        if cmd.configure is not None:
            cmd.configure(p)
        runners[cmd.name] = cmd.run
    args = parser.parse_args(argv)
    return runners[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
