"""The six pinned workloads.

Each workload is a small class with

- ``SIZES``: the normal and the ``--smoke`` problem sizes,
- ``fixtures(seed, size)``: host-side inputs drawn from the seed (the
  program only ever sees these),
- ``new_block(fx, index)``: the :class:`~harness.Block` for one block,
- ``run_block(fx, block, options)``: one virtual-machine run that sets
  up arrays and schedules, runs ``block.timed(...)``, then checks the
  outputs against an oracle outside the timed region.

Every block spawns a fresh virtual machine, so nothing but the
process-wide caches (the ``compile_offsets`` memo, NumPy, imports)
carries from one block to the next, and the host thread — not a rank —
decides when the time budget is spent.

Workloads call only the stable public surface named in the README, so a
refactor can delete internals without editing the benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from harness import TLS, Block

from repro.apps.cp_als import cp_als_serial, cp_als_spmd
from repro.apps.meshes import full_remap_mapping
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray, rcb_owners
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    SingleProgramUniverse,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
    mc_new_set_of_regions,
    validate_schedule,
)
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.distrib.section import Section
from repro.dobj import ParallelObject
from repro.hpf import HPFArray
from repro.replay import Recorder
from repro.service import (
    ArraySpec,
    ServiceConfig,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.vmachine import FaultPlan, FaultRates, ProgramSpec, VirtualMachine, run_programs

_SYNC_TAG = (1 << 21) + 11


class Workload:
    """Shared shape of a workload; see the module docstring."""

    name = ""
    nprocs = 0
    SIZES: dict = {}

    def warm_fixtures(self, fx):
        """The reduced inputs of the discarded warm-up block that fills the
        process-wide caches and spawns the first machine."""
        return dict(fx, nops=max(2, fx["nops"] // 8))


def field_value(i, j):
    return (i + 2.0 * j) / (i + j + 1.0)


def mesh_fixture(seed: int, side: int, nprocs: int) -> dict:
    """Regular ``side x side`` mesh <-> RCB-partitioned point cloud under a
    seeded whole-mesh permutation.  A remap reads node coordinates (for
    the partitioner) and the mapping, never the triangulation's edges, so
    the edges are not built."""
    n = side * side
    coords = np.random.default_rng(seed).random((n, 2))
    irreg, reg1, reg2 = full_remap_mapping((side, side), n, seed=seed)
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    want = np.empty(n)
    want[irreg] = field_value(ii, jj).ravel()  # node irreg[k] <- cell k
    return {
        "shape": (side, side),
        "owners": rcb_owners(coords, nprocs),
        "irreg": irreg,
        "want": want,
        "reg_global": field_value(ii, jj),
    }


# ---------------------------------------------------------------------------
# remap_build — cold schedule builds (§5.1, Tables 1-3)
# ---------------------------------------------------------------------------


class RemapBuild(Workload):
    name = "remap_build"
    nprocs = 4
    SIZES = {"normal": {"side": 256, "nops": 24}, "smoke": {"side": 32, "nops": 4}}
    METHODS = (ScheduleMethod.COOPERATION, ScheduleMethod.DUPLICATION)

    def fixtures(self, seed, size):
        fx = mesh_fixture(seed, size["side"], self.nprocs)
        fx["nops"] = size["nops"]
        return fx

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=2)

    def run_block(self, fx, block, options=None):
        shape, irreg = fx["shape"], fx["irreg"]

        def body(comm):
            a = BlockPartiArray.from_function(comm, shape, field_value)
            x = ChaosArray.zeros(comm, fx["owners"])
            ssor = mc_new_set_of_regions(SectionRegion(Section.full(shape)))
            dsor = mc_new_set_of_regions(IndexRegion(irreg))
            built = [None, None]

            def build(i):
                built[i & 1] = mc_compute_schedule(
                    comm, "blockparti", a, ssor, "chaos", x, dsor,
                    self.METHODS[i & 1],
                )

            block.timed(comm.process, comm.barrier, (build,), comm.rank == 0)
            # oracle: both schedules are structurally valid, and a copy
            # through each lands every cell on its mapped node
            kib = 0.0
            for sched in built:
                validate_schedule(comm, sched, a, x)
                x.local[:] = 0.0
                mc_copy(comm, sched, a, x)
                got = x.gather_global()
                if comm.rank == 0 and not np.array_equal(got, fx["want"]):
                    block.fail()
                kib += sched.nbytes_memory / 1024.0
            kib = comm.allreduce(kib, lambda p, q: p + q)
            if comm.rank == 0:
                block.note(**{"core.schedule.sched_kib": kib / len(built)})

        VirtualMachine(self.nprocs).run(body)


# ---------------------------------------------------------------------------
# coupled_copy — steady-state two-program exchange (§5.2, Table 4)
# ---------------------------------------------------------------------------


def _program_sync(ctx, peer):
    """Barrier across both coupled programs (rank 0s swap a token)."""
    ic = ctx.peer(peer)

    def sync():
        ctx.comm.barrier()
        if ctx.rank == 0:
            ic.send(0, None, _SYNC_TAG)
            ic.recv(0, _SYNC_TAG)
        ctx.comm.barrier()

    return sync


class CoupledCopy(Workload):
    name = "coupled_copy"
    nprocs = 8
    SIZES = {"normal": {"side": 256, "nops": 400}, "smoke": {"side": 32, "nops": 6}}

    def fixtures(self, seed, size):
        fx = mesh_fixture(seed, size["side"], self.nprocs // 2)
        fx["nops"] = size["nops"]
        return fx

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=3, parts=2)

    def run_block(self, fx, block, options=None):
        shape, irreg = fx["shape"], fx["irreg"]

        def reg(ctx):
            comm = ctx.comm
            a = BlockPartiArray.from_function(comm, shape, field_value)
            universe = coupled_universe(ctx, "irreg", "src")
            sched = mc_compute_schedule(
                universe, "blockparti", a,
                mc_new_set_of_regions(SectionRegion(Section.full(shape))),
                "chaos", None, None, ScheduleMethod.COOPERATION,
            )
            exchange = CoupledExchange(universe, sched)

            block.timed(
                comm.process, _program_sync(ctx, "irreg"),
                (lambda i: exchange.push(a), lambda i: exchange.pull(a)),
                comm.rank == 0,
            )
            kib = comm.allreduce(sched.nbytes_memory / 1024.0, lambda p, q: p + q)
            # oracle step: the peer doubles what it received before the pull
            exchange.push(a)
            exchange.pull(a)
            got = a.gather_global()
            if comm.rank == 0:
                block.note(**{"core.schedule.sched_kib": kib})
                if not np.array_equal(got, 2.0 * fx["reg_global"]):
                    block.fail()

        def irr(ctx):
            comm = ctx.comm
            x = ChaosArray.zeros(comm, fx["owners"])
            universe = coupled_universe(ctx, "reg", "dst")
            sched = mc_compute_schedule(
                universe, "blockparti", None, None,
                "chaos", x, mc_new_set_of_regions(IndexRegion(irreg)),
                ScheduleMethod.COOPERATION,
            )
            exchange = CoupledExchange(universe, sched)

            block.timed(
                comm.process, _program_sync(ctx, "reg"),
                (lambda i: exchange.push(x), lambda i: exchange.pull(x)),
                False,
            )
            comm.allreduce(0.0, lambda p, q: p + q)  # keeps clocks in step with reg
            exchange.push(x)
            got = x.gather_global()
            if comm.rank == 0 and not np.array_equal(got, fx["want"]):
                block.fail()
            x.local *= 2.0
            exchange.pull(x)

        half = self.nprocs // 2
        run_programs([ProgramSpec("reg", half, reg), ProgramSpec("irreg", half, irr)])
        push, pull = (1e3 * float(np.median(part)) for part in block.lat_s)
        block.note_ms(**{"core.coupling.push_ms": push, "core.coupling.pull_ms": pull})


# ---------------------------------------------------------------------------
# fields_small / hooks_on — eight tiny fields, Parti -> permuted Chaos
# ---------------------------------------------------------------------------


@dataclass
class Hooks:
    """Optional transport hooks of one fused-push block (all off by default)."""

    faults_idle: bool = False   # a FaultPlan installed, no rule active
    faults: bool = False        # seeded 5 % drop/dup/reorder/delay
    reliability: bool = False
    trace: bool = False
    observe: bool = False
    record: bool = False
    copy_on_send: bool = False

    @classmethod
    def all_on(cls):
        return cls(faults=True, reliability=True, trace=True, observe=True,
                   record=True)


def fields_fixture(seed, n, k, nprocs):
    perm = np.random.default_rng(seed).permutation(n * n)
    base = np.arange(n * n, dtype=np.float64)
    want = []
    for j in range(k):
        w = np.empty(n * n)
        w[perm] = (j + 1.0) * base
        want.append(w)
    return {"n": n, "k": k, "perm": perm, "owners": perm % nprocs, "want": want}


def fields_setup(comm, fx):
    """k sources, k destinations, their schedules and the fused plan."""
    n, perm = fx["n"], fx["perm"]
    ssor = mc_new_set_of_regions(SectionRegion(Section.full((n, n))))
    dsor = mc_new_set_of_regions(IndexRegion(perm))
    srcs, dsts, scheds = [], [], []
    for j in range(fx["k"]):
        a = BlockPartiArray.from_function(
            comm, (n, n), lambda i, jj, j=j: (j + 1.0) * (i * n + jj))
        b = ChaosArray.zeros(comm, fx["owners"])
        scheds.append(mc_compute_schedule(comm, "blockparti", a, ssor,
                                          "chaos", b, dsor))
        srcs.append(a)
        dsts.append(b)
    return srcs, dsts, scheds, mc_compute_plan(scheds)


def _fields_check(comm, fx, dsts, block, exact=None):
    """Gathered destinations equal the permutation oracle (and, for the
    hooked run, are byte-identical to the hook-free destinations)."""
    for j, b in enumerate(dsts):
        got = b.gather_global()
        if comm.rank == 0 and (
            not np.array_equal(got, fx["want"][j])
            or (exact is not None and got.tobytes() != exact[j].tobytes())
        ):
            block.fail()


class FieldsSmall(Workload):
    name = "fields_small"
    nprocs = 8
    SIZES = {"normal": {"n": 32, "k": 8, "nops": 30},
             "smoke": {"n": 16, "k": 4, "nops": 3}}

    def fixtures(self, seed, size):
        fx = fields_fixture(seed, size["n"], size["k"], self.nprocs)
        fx["nops"] = size["nops"]
        return fx

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=2, parts=2)

    def run_block(self, fx, block, options=None):
        def body(comm):
            srcs, dsts, scheds, plan = fields_setup(comm, fx)
            back = [s.reverse() for s in scheds]

            def push(i):
                mc_copy_many(comm, plan, srcs, dsts)

            def pull(i):
                for rev, b, a in zip(back, dsts, srcs):
                    mc_copy(comm, rev, b, a)

            block.timed(comm.process, comm.barrier, (push, pull), comm.rank == 0)
            _fields_check(comm, fx, dsts, block)
            for j, a in enumerate(srcs):  # the pulls restored every source
                got = a.gather_global()
                if comm.rank == 0 and not np.array_equal(
                        got.ravel(), (j + 1.0) * np.arange(fx["n"] ** 2)):
                    block.fail()
            stats = comm.process.stats
            sent = stats.get("messages_sent", 0.0)
            push(0)  # one more push, counted: the plan's messages per op
            fused = comm.allreduce(stats.get("messages_sent", 0.0) - sent,
                                   lambda p, q: p + q)
            if comm.rank == 0:
                block.note(**{"core.plan.fused_msgs_per_op": fused})

        VirtualMachine(self.nprocs).run(body)
        # the halves overlap across ranks (one rank pulls while another still
        # pushes), so a half is the thread CPU of all ranks inside it; on one
        # pinned CPU that is its share of the op's wall
        push, pull = (1e3 * cpu / block.nops for cpu in block.part_cpu_s)
        fused = block.extra["core.plan.fused_msgs_per_op"]
        pulled = block.counters["messages_sent"] / block.nops - fused
        block.note_ms(**{
            "core.plan.push_half_ms": push,
            "core.datamove.pull_half_ms": pull,
            "core.plan.us_per_segment": 1e3 * push / (fused * fx["k"]),
            "core.datamove.us_per_msg.small": 1e3 * pull / pulled,
        })


class _TimedRecorder(Recorder):
    """A Recorder that notes how long sealing its artifact took."""

    finalize_s = 0.0

    def finalize(self, **kwargs):
        t0 = time.perf_counter()
        try:
            return super().finalize(**kwargs)
        finally:
            self.finalize_s = time.perf_counter() - t0


class HooksOn(Workload):
    """The fused half of ``fields_small`` with transport hooks enabled.

    ``options`` (a :class:`Hooks`) selects which; the workload proper
    runs with all of them, the per-hook toggles of the traced pass reuse
    this body with one at a time.
    """

    name = "hooks_on"
    nprocs = 8
    SIZES = {"normal": {"n": 32, "k": 8, "nops": 24},
             "smoke": {"n": 16, "k": 4, "nops": 3}}
    RATES = FaultRates(drop=0.05, dup=0.05, reorder=0.05, delay=0.05)
    #: the chaos pattern is part of the workload, like the rates: one fault
    #: seed for every block and every --seed, so the retransmit count and
    #: the model time move only when the program's use of the transport does
    FAULT_SEED = 1997

    def fixtures(self, seed, size):
        fx = fields_fixture(seed, size["n"], size["k"], self.nprocs)
        fx["nops"] = size["nops"]
        fx["exact"] = self._hook_free_destinations(fx)
        return fx

    def _hook_free_destinations(self, fx):
        def body(comm):
            srcs, dsts, _, plan = fields_setup(comm, fx)
            mc_copy_many(comm, plan, srcs, dsts)
            return [b.gather_global() for b in dsts]

        return VirtualMachine(self.nprocs).run(body).values[0]

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=2)

    def run_block(self, fx, block, options=None):
        hooks = options if isinstance(options, Hooks) else Hooks.all_on()
        plan_ = None
        if hooks.faults:
            plan_ = FaultPlan(seed=self.FAULT_SEED, rates=self.RATES)
        elif hooks.faults_idle:
            plan_ = FaultPlan(seed=self.FAULT_SEED)
        recorder = _TimedRecorder() if hooks.record else None

        def body(comm):
            srcs, dsts, _, plan = fields_setup(comm, fx)
            universe = SingleProgramUniverse(comm)
            if hooks.reliability:
                universe.enable_reliability()

            def push(i):
                mc_copy_many(universe, plan, srcs, dsts, timeout=60.0)

            block.timed(comm.process, comm.barrier, (push,), comm.rank == 0)
            _fields_check(comm, fx, dsts, block, exact=fx["exact"])

        vm = VirtualMachine(
            self.nprocs, faults=plan_, trace=hooks.trace, observe=hooks.observe,
            recorder=recorder, copy_on_send=hooks.copy_on_send,
        )
        result = vm.run(body)
        per_op = 1.0 / (block.nops + block.warm)
        injected = sum(
            v for stats in result.stats for k, v in stats.items()
            if k.startswith("faults_")
        )
        block.note(**{
            "vmachine.reliability.retransmits_per_op":
                result.total_stat("rel_retransmits") * per_op,
            "vmachine.faults.injected_per_op": injected * per_op,
            "observe.spans_per_op": sum(len(s) for s in result.spans) * per_op,
        })
        if hooks.faults and hooks.reliability and (
                result.total_stat("rel_retransmits") <= 0):
            block.fail()  # the chaos must actually bite
        if recorder is not None:
            block.note_ms(**{"replay.finalize_ms": 1e3 * recorder.finalize_s})
            block.note(**{"replay.artifact_kib": len(
                json.dumps(recorder.artifact, default=str)) / 1024.0})


# ---------------------------------------------------------------------------
# service_fleet — multi-tenant coupling service
# ---------------------------------------------------------------------------


class _Vectors(ParallelObject):
    """Server object: one HPF block vector per shape class."""

    def __init__(self, comm, sizes):
        self.comm = comm
        self.vectors = {
            f"v{c}": HPFArray.distribute(comm, (n,), ("block",))
            for c, n in enumerate(sizes)
        }

    def export_array(self, attr):
        v = self.vectors[attr]
        return ("hpf", v, mc_new_set_of_regions(
            SectionRegion(Section.full(v.global_shape))))

    def total(self, attr):
        v = self.vectors[attr]
        return self.comm.allreduce(float(v.local.sum()), lambda p, q: p + q)


#: the session calls a tenant times, in the order the ledger reports them
SERVICE_OPS = ("create", "bind", "push", "call", "pull", "unbind", "close")


@dataclass
class _FleetLog:
    """What the tenant bodies of one fleet observed (gateway rank 0 only)."""

    lat: dict = field(default_factory=lambda: {op: [] for op in SERVICE_OPS})
    bind_cold: list = field(default_factory=list)
    bind_warm: list = field(default_factory=list)
    wrong_totals: int = 0


class ServiceFleet(Workload):
    name = "service_fleet"
    nprocs = 4
    SIZES = {"normal": {"tenants": 512, "iterations": 4, "classes": 8},
             "smoke": {"tenants": 16, "iterations": 1, "classes": 4}}

    def fixtures(self, seed, size):
        rng = np.random.default_rng(seed)
        classes = size["classes"]
        # distinct vector lengths -> distinct bind signatures; which
        # lengths, which tenant is in which class, and what each class
        # writes all come from the seed
        sizes = [64 + 8 * int(s) for s in rng.permutation(classes + 2)[:classes]]
        fills = [float(v) for v in rng.integers(1, 100, size=classes)]
        klass = rng.permutation(np.arange(size["tenants"]) % classes)
        per_tenant = 4 + 3 * size["iterations"]  # the awaits of one tenant body
        return {
            "sizes": sizes, "fills": fills, "klass": [int(c) for c in klass],
            "iterations": size["iterations"], "tenants": size["tenants"],
            "nops": size["tenants"] * per_tenant,
        }

    def warm_fixtures(self, fx):
        tenants = max(fx["tenants"] // 8, len(fx["sizes"]))
        return dict(fx, tenants=tenants, klass=fx["klass"][:tenants],
                    nops=fx["nops"] // fx["tenants"] * tenants)

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=0)

    def _tenant(self, fx, log, c, seen):
        attr, n, fill = f"v{c}", fx["sizes"][c], fx["fills"][c]
        now = time.perf_counter

        async def timed(op, awaitable):
            t0 = now()
            out = await awaitable
            dt = now() - t0
            log.lat[op].append(dt)
            return out, dt

        async def body(session):
            await timed("create", session.create_array(
                "x", ArraySpec("blockparti", n, fill=("value", fill))))
            cold = c not in seen
            seen.add(c)
            binding, dt = await timed("bind", session.bind("vec", attr, "x"))
            (log.bind_cold if cold else log.bind_warm).append(dt)
            total = 0.0
            for _ in range(fx["iterations"]):
                await timed("push", session.push(binding))
                total, _ = await timed("call", session.call("vec", "total", attr))
                await timed("pull", session.pull(binding))
            await timed("unbind", session.unbind(binding))
            await timed("close", session.close())
            if total != n * fill:
                log.wrong_totals += 1
            return total

        return body

    def run_block(self, fx, block, options=None):
        config = ServiceConfig(max_queue_depth=max(1024, fx["tenants"]))
        log = _FleetLog()

        def gateway(ctx):
            seen: set[int] = set()
            fleet = [
                TenantSpec(f"t{i}", self._tenant(fx, log, c, seen))
                for i, c in enumerate(fx["klass"])
            ]
            lead = ctx.comm.rank == 0
            clock0 = ctx.comm.process.clock
            TLS.op = (block.index, 0)  # the fleet is the op the ledger sees
            sys.setprofile(block.profile)
            if lead:
                cpu0 = time.process_time()
                t0 = block.t_first = time.perf_counter()
            report = run_service_gateway(ctx, "server", fleet, config)
            sys.setprofile(None)
            if lead:
                block.wall_s = time.perf_counter() - t0
                block.cpu_s = time.process_time() - cpu0
            return report, ctx.comm.process.clock - clock0

        def server(ctx):
            clock0 = ctx.comm.process.clock
            TLS.op = (block.index, 0)
            vectors = _Vectors(ctx.comm, fx["sizes"])
            sys.setprofile(block.profile)
            summary = serve_service(ctx, "gateway", {"vec": vectors}, config)
            sys.setprofile(None)
            return summary, ctx.comm.process.clock - clock0

        result = run_programs([ProgramSpec("gateway", 2, gateway),
                               ProgramSpec("server", 2, server)])
        report = result["gateway"].values[0][0]
        both = list(result["gateway"].values) + list(result["server"].values)
        block.threads = len(both)
        block.clock_s = {i: v[1] for i, v in enumerate(both)}
        for prog in ("gateway", "server"):
            for k in Block.COUNTERS:
                block.counters[k] += result[prog].total_stat(k)
        # every awaited session call is an op; one that raised (and so cut
        # its tenant short) or a tenant whose total is wrong counts as failed
        per_tenant = fx["nops"] // fx["tenants"]
        done = sum(len(v) for v in log.lat.values())
        block.attempted = fx["nops"]
        block.failed = min(block.attempted,
                           block.attempted - done + log.wrong_totals * per_tenant)
        block.lat_s = [[dt for op in SERVICE_OPS for dt in log.lat[op]]]
        cache, adm = report.cache, report.admission
        lookups = cache["schedule_hits"] + cache["schedule_misses"]
        shed = adm["shed_queue_full"] + adm["shed_tenant_cap"]
        block.note(**{
            "service.rounds_per_fleet": float(report.rounds),
            "service.ops_per_round": block.attempted / max(1, report.rounds),
            "service.schedule_hit_ratio": cache["schedule_hits"] / max(1, lookups),
            "service.plan_hits": float(cache["plan_hits"]),
            "service.shed_share": shed / block.attempted,
            "service.queue_high_water": float(adm["queue_high_water"]),
        })

        def p50_ms(samples):
            return 1e3 * float(np.median(samples)) if samples else 0.0

        block.note_ms(**{
            "service.bind_cold_ms": p50_ms(log.bind_cold),
            "service.bind_warm_ms": p50_ms(log.bind_warm),
            **{f"service.op_p50_ms.{op}": p50_ms(log.lat[op]) for op in SERVICE_OPS},
        })


# ---------------------------------------------------------------------------
# rma_sweep — sparse CP-ALS over one-sided windows
# ---------------------------------------------------------------------------


class RmaSweep(Workload):
    name = "rma_sweep"
    nprocs = 8
    SIZES = {"normal": {"shape": (12, 11, 10), "R": 3, "nnz": 200, "iters": 3,
                        "nops": 6},
             "smoke": {"shape": (6, 5, 4), "R": 2, "nnz": 40, "iters": 1,
                       "nops": 2}}
    RMA = ("rma_puts", "rma_gets", "rma_accs", "rma_fetch_ops")

    def fixtures(self, seed, size):
        # op i of every block solves its own tensor, so a block averages
        # over ``nops`` tensors: hash-probe rounds, and with them the cost of
        # a solve, vary a lot from one tensor to the next.  The stride keeps
        # the tensors of neighbouring --seed values disjoint.
        args = {k: size[k] for k in ("shape", "R", "nnz", "iters")}
        seeds = [1009 * seed + i for i in range(size["nops"])]
        oracles = [
            cp_als_serial(args["shape"], args["R"], args["nnz"], args["iters"], s)
            for s in seeds
        ]
        return {"args": args, "seeds": seeds, "oracles": oracles,
                "nops": size["nops"]}

    def warm_fixtures(self, fx):
        return dict(fx, nops=1)

    def new_block(self, fx, index):
        return Block(index, fx["nops"], warm=0)

    def run_block(self, fx, block, options=None):
        def body(comm):
            outs = {}

            def solve(i):
                outs[i] = cp_als_spmd(comm, seed=fx["seeds"][i], **fx["args"])

            stats = comm.process.stats
            block.timed(comm.process, comm.barrier, (solve,), comm.rank == 0)
            for i, out in outs.items():
                if not all(
                    np.allclose(out.factors[m], fx["oracles"][i][m],
                                rtol=1e-10, atol=1e-12)
                    for m in range(3)
                ):
                    block.fail(1)
            solves = block.nops
            rmaops = comm.allreduce(
                sum(stats.get(k, 0.0) for k in self.RMA), lambda p, q: p + q)
            fences = stats.get("rma_fences", 0.0)
            rounds = stats.get("hashmap_write_rounds", 0.0)
            if comm.rank == 0:
                block.note(**{
                    "vmachine.window.rmaops_per_op": rmaops / solves,
                    "vmachine.window.fences_per_op": fences / solves,
                    "containers.hashmap_rounds_per_op": rounds / solves,
                })
            if options == "ledger":
                # a solve with zero sweeps is assembly + set-up + gather
                samples = []
                for _ in range(2):
                    comm.barrier()
                    t0 = time.perf_counter()
                    cp_als_spmd(comm, seed=fx["seeds"][0], **dict(fx["args"], iters=0))
                    comm.barrier()
                    samples.append(time.perf_counter() - t0)
                if comm.rank == 0:
                    block.note_ms(**{"apps.cp_als.assemble_ms": 1e3 * min(samples)})

        VirtualMachine(self.nprocs, recv_timeout_s=120.0).run(body)
        assemble = block.extra_ms.get("apps.cp_als.assemble_ms")
        if assemble is not None:
            solve = 1e3 * float(np.median(block.lat_s[0]))
            block.note_ms(**{"apps.cp_als.sweep_ms":
                             (solve - assemble) / fx["args"]["iters"]})


WORKLOADS = {
    w.name: w
    for w in (RemapBuild(), CoupledCopy(), FieldsSmall(), ServiceFleet(),
              RmaSweep(), HooksOn())
}
