"""Observability must not perturb the model: enabling it leaves logical
clocks and destination arrays byte-identical, and per-rank cost-term
totals reproduce each rank's clock (the ISSUE's 1e-9 acceptance bound).
"""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    ExecutorPolicy,
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.vmachine import VirtualMachine

N = 8
PROCS = 4


def make_spmd(method: ScheduleMethod, policy: ExecutorPolicy):
    perm = np.random.default_rng(7).permutation(N * N)

    def spmd(comm):
        A = BlockPartiArray.from_function(
            comm, (N, N), lambda i, j: 1.0 * i * N + j
        )
        B = ChaosArray.zeros(comm, perm % comm.size)
        sched = mc_compute_schedule(
            comm, "blockparti", A,
            mc_new_set_of_regions(SectionRegion(Section.full((N, N)))),
            "chaos", B, mc_new_set_of_regions(IndexRegion(perm)),
            method, policy=policy,
        )
        mc_copy(comm, sched, A, B, policy=policy)
        plan = mc_compute_plan([sched])
        mc_copy_many(comm, plan, [A], [B], policy=policy)
        # a fused k = 4 plan: a pack or unpack row of four segments is
        # charged, and attributed, once per row
        fields = [B] + [ChaosArray.zeros(comm, perm % comm.size)
                        for _ in range(3)]
        mc_copy_many(comm, mc_compute_plan([sched] * 4), [A] * 4, fields,
                     policy=policy)
        return b"".join(f.local.tobytes() for f in fields)

    return spmd


CASES = [
    (m, p)
    for m in (ScheduleMethod.COOPERATION, ScheduleMethod.DUPLICATION)
    for p in (ExecutorPolicy.ORDERED, ExecutorPolicy.OVERLAP)
]


@pytest.mark.parametrize(
    "method,policy", CASES,
    ids=[f"{m.value}-{p.value}" for m, p in CASES],
)
class TestByteIdentity:
    def test_observe_is_invisible_to_the_model(self, method, policy):
        spmd = make_spmd(method, policy)
        plain = VirtualMachine(PROCS, observe=False).run(spmd)
        observed = VirtualMachine(PROCS, observe=True).run(spmd)
        # Logical clocks: byte-for-byte (no tolerance).
        assert observed.clocks == plain.clocks
        # Destination arrays: byte-for-byte.
        assert observed.values == plain.values

    def test_term_totals_reproduce_the_clock(self, method, policy):
        spmd = make_spmd(method, policy)
        res = VirtualMachine(PROCS, observe=True).run(spmd)
        for metrics, clock in zip(res.metrics, res.clocks):
            assert abs(metrics.attributed_seconds() - clock) < 1e-9
            # Every attributed second carries a known term name.
            from repro.observe import COST_TERMS
            assert set(metrics.term_totals()) <= set(COST_TERMS)


class TestCoupledObserve:
    SHAPE = (6, 8)
    G = np.random.default_rng(9).random(SHAPE)
    PERM = np.random.default_rng(10).permutation(48)

    @classmethod
    def _specs(cls):
        from repro.core import mc_data_move_recv, mc_data_move_send
        from repro.core.coupling import coupled_universe
        from repro.vmachine import ProgramSpec

        from helpers import index_sor, section_sor

        def src_prog(ctx):
            A = BlockPartiArray.from_global(ctx.comm, cls.G)
            uni = coupled_universe(ctx, "dstp", "src")
            sched = mc_compute_schedule(
                uni, "blockparti", A,
                section_sor((slice(0, 6), slice(0, 8)), cls.SHAPE),
                "chaos", None, None,
            )
            mc_data_move_send(uni, sched, A)
            return None

        def dst_prog(ctx):
            B = ChaosArray.zeros(ctx.comm, cls.PERM % ctx.comm.size)
            uni = coupled_universe(ctx, "srcp", "dst")
            sched = mc_compute_schedule(
                uni, "blockparti", None, None,
                "chaos", B, index_sor(cls.PERM),
            )
            mc_data_move_recv(uni, sched, B)
            return B.local.tobytes()

        return [
            ProgramSpec("srcp", 2, src_prog),
            ProgramSpec("dstp", 2, dst_prog),
        ]

    def test_run_programs_identity_and_attribution(self):
        from repro.vmachine import run_programs

        plain = run_programs(self._specs(), observe=False)
        observed = run_programs(self._specs(), observe=True)
        for name in ("srcp", "dstp"):
            assert observed[name].clocks == plain[name].clocks
            assert observed[name].values == plain[name].values
            for metrics, clock in zip(
                observed[name].metrics, observed[name].clocks
            ):
                assert abs(metrics.attributed_seconds() - clock) < 1e-9
                assert len(observed[name].spans) == 2
