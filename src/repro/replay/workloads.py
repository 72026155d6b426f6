"""Named, parameterized workloads for ``python -m repro record``.

A workload is a *pure function of its parameters*: building the same
name with the same params yields the same SPMD functions, data, and
fault plan.  That is what makes CLI-recorded artifacts self-describing —
the artifact stores ``{"name", "params"}`` and the replayer rebuilds the
exact run with no side-channel state.

Two workloads ship, mirroring the chaos-matrix test idioms:

- ``copy`` — single program: a BlockParti section → Chaos indexed
  ``mc_copy`` under seeded chaos with reliability on;
- ``coupled`` — two separately-written programs exchanging through a
  :class:`~repro.core.coupling.CoupledExchange` push (optionally a pull
  back) over a faulty inter-program channel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.vmachine import ProgramSpec, VirtualMachine
from repro.vmachine.faults import FaultPlan, FaultRates

__all__ = ["WORKLOADS", "build_workload", "run_workload", "workload_names"]


def _method(name: str):
    from repro.core import ScheduleMethod

    return {
        "cooperation": ScheduleMethod.COOPERATION,
        "duplication": ScheduleMethod.DUPLICATION,
    }[name]


def _policy(name: str):
    from repro.core import ExecutorPolicy

    return {
        "ordered": ExecutorPolicy.ORDERED,
        "overlap": ExecutorPolicy.OVERLAP,
    }[name]


def _fault_plan(params: dict) -> FaultPlan | None:
    rates = FaultRates(
        drop=params["drop"], dup=params["dup"],
        reorder=params["reorder"], delay=params["delay"],
    )
    if not (rates.drop or rates.dup or rates.reorder or rates.delay):
        return None
    return FaultPlan(seed=params["seed"], rates=rates)


def _sors(params: dict):
    """Deterministic source section + destination permutation regions."""
    from repro.core import IndexRegion, SectionRegion, SetOfRegions
    from repro.distrib.section import Section

    rows, cols = params["rows"], params["cols"]
    shape = (rows, cols)
    grid = np.random.default_rng(params["data_seed"]).random(shape)
    slices = (slice(rows // 6, rows - rows // 6), slice(0, cols))
    n = (rows - 2 * (rows // 6)) * cols
    perm = np.random.default_rng(params["perm_seed"]).permutation(n)
    src_sor = SetOfRegions([SectionRegion(Section.from_slices(slices, shape))])
    dst_sor = SetOfRegions([IndexRegion(np.asarray(perm, dtype=np.int64))])
    return grid, perm, src_sor, dst_sor


_COPY_DEFAULTS = {
    "procs": 4, "seed": 31, "method": "cooperation", "policy": "ordered",
    "drop": 0.2, "dup": 0.2, "reorder": 0.2, "delay": 0.2,
    "reliability": True, "rows": 12, "cols": 10,
    "data_seed": 2, "perm_seed": 3,
}


def _build_copy(params: dict) -> dict:
    # Registration side effect: the adapters must exist before schedules.
    import repro.blockparti  # noqa: F401
    import repro.chaos  # noqa: F401
    from repro.blockparti import BlockPartiArray
    from repro.chaos import ChaosArray
    from repro.core import SingleProgramUniverse, mc_compute_schedule, mc_copy

    grid, perm, src_sor, dst_sor = _sors(params)
    method = _method(params["method"])
    policy = _policy(params["policy"])

    def spmd(comm):
        A = BlockPartiArray.from_global(comm, grid)
        B = ChaosArray.zeros(comm, (perm * 7) % comm.size)
        sched = mc_compute_schedule(
            comm, "blockparti", A, src_sor, "chaos", B, dst_sor, method,
        )
        universe = SingleProgramUniverse(comm)
        if params["reliability"]:
            universe.enable_reliability()
        mc_copy(universe, sched, A, B, policy=policy, timeout=30.0)
        return B.gather_global()

    return {
        "world": True,
        "nprocs": params["procs"],
        "fn": spmd,
        "specs": [ProgramSpec("world", params["procs"], spmd)],
        "fault_plan": _fault_plan(params),
        "vm_kwargs": {"recv_timeout_s": 30.0},
    }


_COUPLED_DEFAULTS = {
    "psrc": 3, "pdst": 2, "seed": 5, "method": "cooperation",
    "policy": "ordered", "pull_back": False,
    "drop": 0.2, "dup": 0.2, "reorder": 0.2, "delay": 0.2,
    "rows": 12, "cols": 10, "data_seed": 2, "perm_seed": 3,
}


def _build_coupled(params: dict) -> dict:
    import repro.blockparti  # noqa: F401
    import repro.chaos  # noqa: F401
    from repro.blockparti import BlockPartiArray
    from repro.chaos import ChaosArray
    from repro.core import ScheduleMethod, mc_compute_schedule
    from repro.core.coupling import CoupledExchange, coupled_universe

    grid, perm, src_sor, dst_sor = _sors(params)
    method = _method(params["method"])
    policy = _policy(params["policy"])
    shape = grid.shape
    pull_back = params["pull_back"]

    def src_prog(ctx):
        A = BlockPartiArray.from_global(ctx.comm, grid)
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni, "blockparti", A, src_sor, "chaos", None,
            dst_sor if method is ScheduleMethod.DUPLICATION else None,
            method,
        )
        ex = CoupledExchange(uni, sched, policy=policy, deadline_s=30.0,
                             reliability=True)
        ex.push(A)
        if pull_back:
            A2 = BlockPartiArray.zeros(ctx.comm, shape)
            ex.pull(A2)
            return A2.gather_global()
        return None

    def dst_prog(ctx):
        B = ChaosArray.zeros(ctx.comm, (perm * 3) % ctx.comm.size)
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni, "blockparti", None,
            src_sor if method is ScheduleMethod.DUPLICATION else None,
            "chaos", B, dst_sor, method,
        )
        ex = CoupledExchange(uni, sched, policy=policy, deadline_s=30.0,
                             reliability=True)
        ex.push(B)
        out = B.gather_global()
        if pull_back:
            B.local *= 2.0
            ex.pull(B)
        return out

    return {
        "world": False,
        "nprocs": params["psrc"] + params["pdst"],
        "specs": [
            ProgramSpec("srcp", params["psrc"], src_prog),
            ProgramSpec("dstp", params["pdst"], dst_prog),
        ],
        "fault_plan": _fault_plan(params),
        "vm_kwargs": {"recv_timeout_s": 30.0},
    }


WORKLOADS: dict[str, tuple[dict, Callable[[dict], dict]]] = {
    "copy": (_COPY_DEFAULTS, _build_copy),
    "coupled": (_COUPLED_DEFAULTS, _build_coupled),
}


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


def normalize_params(name: str, params: dict | None) -> dict:
    """Merge user params over the workload's defaults (rejecting typos)."""
    try:
        defaults, _ = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {workload_names()}"
        ) from None
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if k not in defaults:
            raise ValueError(
                f"workload {name!r} has no parameter {k!r}; "
                f"parameters: {sorted(defaults)}"
            )
        merged[k] = v
    return merged


def build_workload(name: str, params: dict | None = None) -> dict:
    """Build a workload plan: ``{world, nprocs, specs, fault_plan,
    vm_kwargs}`` — pure in (name, params).  ``world`` says whether
    ``specs`` is the machine's one world program (whose SPMD function is
    also under ``fn``) or a list of coupled programs."""
    merged = normalize_params(name, params)
    _, builder = WORKLOADS[name]
    plan = builder(merged)
    plan["params"] = merged
    plan["name"] = name
    return plan


def run_workload(name: str, params: dict | None, recorder) -> dict:
    """Execute a workload under a recorder; returns each program's
    :class:`~repro.vmachine.machine.SPMDResult` by name.  The recorder's
    artifact self-describes the workload so ``replay`` needs no extra
    flags."""
    plan = build_workload(name, params)
    recorder.workload = {"name": name, "params": plan["params"]}
    machine = VirtualMachine(
        plan["nprocs"], faults=plan["fault_plan"], recorder=recorder,
        **plan["vm_kwargs"],
    )
    return machine._launch(plan["specs"], world=plan["world"])
