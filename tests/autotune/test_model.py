"""The cost model's exact tier: predicted clocks == measured clocks.

The headline property: for data moves — single, fused and sequential
multi-array, ORDERED and OVERLAP, on both machine profiles — the
analytical replay reproduces the virtual machine's per-rank logical
clocks **to the last bit**, across schedule method × distribution pair ×
processor count.  No tolerance, no approximation: ``==`` on floats.
"""

import numpy as np
import pytest

import repro.core.plan as plan_mod

from repro.autotune import (
    CostModel,
    DistSpec,
    MappingPoint,
    WorkloadSpec,
    measure_mapping,
    pair_matrix,
)
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import ScheduleMethod
from repro.vmachine.cost_model import ALPHA_FARM_ATM, IBM_SP2

DIST_PAIRS = [
    (DistSpec("block"), DistSpec("cyclic")),
    (DistSpec("cyclic"), DistSpec("block_cyclic", block=8)),
    (DistSpec("block"), DistSpec("irregular", seed=5)),
    (DistSpec("irregular", seed=3), DistSpec("irregular", seed=7)),
]


def _ids(pair):
    return f"{pair[0].label()}->{pair[1].label()}"


class TestBitExactMoves:
    """Predicted == measured, to the last bit (the tentpole property)."""

    @pytest.mark.parametrize("nprocs", [4, 8, 16])
    @pytest.mark.parametrize(
        "method", [ScheduleMethod.COOPERATION, ScheduleMethod.DUPLICATION]
    )
    @pytest.mark.parametrize("pair", DIST_PAIRS, ids=_ids)
    def test_ordered_single_schedule(self, pair, method, nprocs):
        src, dst = pair
        wl = WorkloadSpec("prop", nelems=256, nprocs=nprocs, pattern="permute")
        mapping = MappingPoint(src, dst, method=method)
        run = measure_mapping(wl, mapping)
        predicted = CostModel(wl.profile).simulate_move(
            pair_matrix(wl, src, dst),
            wl.itemsize,
            ExecutorPolicy.ORDERED,
            start_clocks=list(run.move_start_clocks),
        )
        assert predicted == list(run.move_clocks)

    @pytest.mark.parametrize("pattern", ["identity", "section"])
    def test_other_access_patterns(self, pattern):
        wl = WorkloadSpec("pat", nelems=240, nprocs=4, pattern=pattern)
        mapping = MappingPoint(DistSpec("block"), DistSpec("cyclic"))
        run = measure_mapping(wl, mapping)
        predicted = CostModel(wl.profile).simulate_move(
            pair_matrix(wl, mapping.src, mapping.dst),
            wl.itemsize,
            ExecutorPolicy.ORDERED,
            start_clocks=list(run.move_start_clocks),
        )
        assert predicted == list(run.move_clocks)

    def test_overlap_executor(self):
        wl = WorkloadSpec("ovl", nelems=256, nprocs=8, pattern="permute")
        mapping = MappingPoint(
            DistSpec("block"), DistSpec("irregular", seed=5),
            policy=ExecutorPolicy.OVERLAP,
        )
        run = measure_mapping(wl, mapping)
        predicted = CostModel(wl.profile).simulate_move(
            pair_matrix(wl, mapping.src, mapping.dst),
            wl.itemsize,
            ExecutorPolicy.OVERLAP,
            start_clocks=list(run.move_start_clocks),
        )
        assert predicted == list(run.move_clocks)

    def test_other_machine_profile(self):
        wl = WorkloadSpec(
            "atm", nelems=256, nprocs=4, pattern="permute",
            profile=ALPHA_FARM_ATM,
        )
        mapping = MappingPoint(DistSpec("block"), DistSpec("cyclic"))
        run = measure_mapping(wl, mapping)
        predicted = CostModel(ALPHA_FARM_ATM).simulate_move(
            pair_matrix(wl, mapping.src, mapping.dst),
            wl.itemsize,
            ExecutorPolicy.ORDERED,
            start_clocks=list(run.move_start_clocks),
        )
        assert predicted == list(run.move_clocks)

    @pytest.mark.parametrize("k,fusion,policy,profile,nprocs", [
        (3, 3, ExecutorPolicy.ORDERED, IBM_SP2, 4),
        (3, 1, ExecutorPolicy.ORDERED, IBM_SP2, 4),
        (3, 3, ExecutorPolicy.OVERLAP, IBM_SP2, 8),
        (3, 1, ExecutorPolicy.OVERLAP, IBM_SP2, 8),
        # at P=8 the Alpha farm packs four ranks per node: contention 4
        (1, 1, ExecutorPolicy.OVERLAP, ALPHA_FARM_ATM, 8),
        (3, 3, ExecutorPolicy.OVERLAP, ALPHA_FARM_ATM, 8),
    ], ids=["3-fused", "1-sequential", "overlap-fused", "overlap-sequential",
            "overlap-atm", "overlap-atm-fused"])
    def test_multi_array_moves(self, k, fusion, policy, profile, nprocs):
        wl = WorkloadSpec(
            "multi", nelems=256, nprocs=nprocs, pattern="permute",
            narrays=k, reuse=2, profile=profile,
        )
        mapping = MappingPoint(
            DistSpec("block"), DistSpec("irregular", seed=5),
            policy=policy, fusion=fusion,
        )
        predicted, measured = _replayed_and_measured(wl, mapping)
        assert predicted == measured

    def test_equality_is_by_construction(self, monkeypatch):
        """Executor and replay walk routes from one builder: reverse its
        send order and both clocks move, together."""
        wl = WorkloadSpec("mut", nelems=256, nprocs=8, pattern="permute",
                          reuse=2)
        mapping = MappingPoint(DistSpec("block"), DistSpec("irregular", seed=5))
        before = _replayed_and_measured(wl, mapping)
        traversal = plan_mod.traversal

        def reversed_sends(*args):
            route = traversal(*args)
            return route._replace(dests=route.dests[::-1])

        monkeypatch.setattr(plan_mod, "traversal", reversed_sends)
        predicted, measured = _replayed_and_measured(wl, mapping)
        assert predicted == measured
        assert predicted != before[0] and measured != before[1]


def _replayed_and_measured(wl, mapping):
    """The reuse loop's per-rank end clocks, replayed from the measured
    start clocks, and as measured."""
    run = measure_mapping(wl, mapping)
    counts = pair_matrix(wl, mapping.src, mapping.dst)
    clocks = list(run.move_start_clocks)
    model = CostModel(wl.profile)
    for _ in range(wl.reuse):
        clocks = model.simulate_move(
            counts, wl.itemsize, mapping.policy, start_clocks=clocks,
            segments=wl.narrays, fused=mapping.fusion > 1,
        )
    return clocks, list(run.move_clocks)


class TestStartClocks:
    def test_empty_list_is_a_length_mismatch(self):
        with pytest.raises(ValueError, match="0 start clocks for 4 ranks"):
            CostModel(IBM_SP2).simulate_move(
                np.ones((4, 4), dtype=int), 8, start_clocks=[]
            )


class TestMoveTerms:
    def test_terms_sum_to_clock_advance(self):
        """The move-term decomposition accounts for every clock second."""
        wl = WorkloadSpec("terms", nelems=512, nprocs=4, pattern="permute")
        counts = pair_matrix(wl, DistSpec("block"), DistSpec("cyclic"))
        terms: dict[str, float] = {}
        clocks = CostModel(wl.profile).simulate_move(
            counts, wl.itemsize, ExecutorPolicy.ORDERED, terms=terms
        )
        assert sum(terms.values()) == pytest.approx(sum(clocks), rel=1e-12)
        assert set(terms) <= {"alpha", "beta", "occupancy", "per_element"}

    def test_terms_do_not_perturb_clocks(self):
        wl = WorkloadSpec("terms", nelems=512, nprocs=8, pattern="permute")
        counts = pair_matrix(wl, DistSpec("cyclic"), DistSpec("block"))
        model = CostModel(wl.profile)
        with_terms = model.simulate_move(
            counts, wl.itemsize, ExecutorPolicy.ORDERED, terms={}
        )
        without = model.simulate_move(
            counts, wl.itemsize, ExecutorPolicy.ORDERED
        )
        assert with_terms == without


class TestPairMatrix:
    def test_counts_match_real_schedule(self):
        """Offline pair counts equal the executed schedule's stats."""
        from repro.core import (
            mc_compute_schedule,
            mc_new_set_of_regions,
        )
        from repro.core.region import IndexRegion, SectionRegion
        from repro.distrib.section import Section
        from repro.hpf.array import HPFArray
        from repro.chaos import ChaosArray
        from repro.vmachine import VirtualMachine

        wl = WorkloadSpec("pm", nelems=128, nprocs=4, pattern="permute")
        src, dst = DistSpec("block"), DistSpec("irregular", seed=9)
        offline = pair_matrix(wl, src, dst)

        def spmd(comm):
            a = HPFArray.distribute(comm, (wl.nelems,), (src.hpf_spec(),))
            b = ChaosArray.zeros(comm, dst.owners(wl.nelems, comm.size))
            sched = mc_compute_schedule(
                comm,
                "hpf", a,
                mc_new_set_of_regions(
                    SectionRegion(Section.full((wl.nelems,)))
                ),
                "chaos", b,
                mc_new_set_of_regions(IndexRegion(wl.dst_indices())),
            )
            # send_elements includes the diagonal (direct local copies).
            return dict(sched.stats(itemsize=wl.itemsize).send_elements)

        rows = VirtualMachine(wl.nprocs).run(spmd).values
        for s, sends in enumerate(rows):
            for d in range(wl.nprocs):
                assert sends.get(d, 0) == offline[s, d], (s, d)

    def test_conservation(self):
        wl = WorkloadSpec("c", nelems=1000, nprocs=8, pattern="permute")
        m = pair_matrix(wl, DistSpec("cyclic"), DistSpec("irregular", seed=2))
        assert m.sum() == wl.nelems

    def test_section_pattern_moves_half(self):
        wl = WorkloadSpec("s", nelems=1000, nprocs=4, pattern="section")
        m = pair_matrix(wl, DistSpec("block"), DistSpec("block"))
        assert m.sum() == wl.nelems // 2


class TestCoefficients:
    def test_exact_tier_ignores_coefficients(self):
        from repro.autotune import Coefficients

        wl = WorkloadSpec("coef", nelems=256, nprocs=4)
        counts = pair_matrix(wl, DistSpec("block"), DistSpec("cyclic"))
        scaled = CostModel(wl.profile, Coefficients(per_element=7.0))
        plain = CostModel(wl.profile)
        assert scaled.simulate_move(counts, 8) == plain.simulate_move(counts, 8)

    def test_build_tier_applies_coefficients(self):
        from repro.autotune import Coefficients

        wl = WorkloadSpec("coef", nelems=256, nprocs=4)
        m = MappingPoint(DistSpec("block"), DistSpec("cyclic"))
        doubled = CostModel(wl.profile, Coefficients(
            alpha=2.0, beta=2.0, occupancy=2.0, per_element=2.0
        ))
        plain = CostModel(wl.profile)
        assert doubled.predict(wl, m).build_s == pytest.approx(
            2.0 * plain.predict(wl, m).build_s
        )
