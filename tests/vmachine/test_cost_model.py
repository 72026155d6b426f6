"""Unit tests for the LogGP-style cost model."""

import math

import pytest

from repro.vmachine.cost_model import ALPHA_FARM_ATM, IBM_SP2, CostModel, MachineProfile


@pytest.fixture
def sp2():
    return CostModel(IBM_SP2)


def wire_time(cm: CostModel, nbytes: int, contention: float = 1.0) -> float:
    """A message's time from the start of its send to its availability at
    the receiver: the sender's occupancy, then one wire latency."""
    return cm.send_occupancy(nbytes, contention) + cm.post_injection_latency()


class TestCharges:
    def test_wire_time_includes_latency(self, sp2):
        assert sp2.post_injection_latency() == IBM_SP2.alpha
        assert wire_time(sp2, 0) == pytest.approx(IBM_SP2.o_send + IBM_SP2.alpha)

    def test_wire_time_scales_with_bytes(self, sp2):
        t1 = wire_time(sp2, 1_000_000)
        t2 = wire_time(sp2, 2_000_000)
        assert t2 - t1 == pytest.approx(1_000_000 / IBM_SP2.bandwidth)

    def test_wire_time_contention_multiplies_transfer_only(self, sp2):
        base = sp2.send_occupancy(70_000, contention=1.0)
        double = sp2.send_occupancy(70_000, contention=2.0)
        assert double - base == pytest.approx(70_000 / IBM_SP2.bandwidth)
        assert sp2.send_occupancy(0, contention=4.0) == sp2.send_occupancy(0)

    def test_send_overhead_at_least_o_send(self, sp2):
        assert sp2.send_occupancy(0) == pytest.approx(IBM_SP2.o_send)
        assert sp2.send_occupancy(1000) > IBM_SP2.o_send

    def test_recv_overhead_at_least_o_recv(self, sp2):
        assert sp2.recv_overhead(0) == pytest.approx(IBM_SP2.o_recv)

    def test_flops_linear(self, sp2):
        assert sp2.flops(1e6) == pytest.approx(1e6 * IBM_SP2.gamma_flop)

    def test_mem_linear(self, sp2):
        assert sp2.mem(4096) == pytest.approx(4096 * IBM_SP2.gamma_byte)

    def test_irregular_deref_much_costlier_than_regular(self, sp2):
        # The central asymmetry behind Tables 2 vs 5.
        assert sp2.deref_irregular(1) > 100 * sp2.deref_regular(1)

    def test_hash_cheaper_than_deref(self, sp2):
        assert sp2.hash_refs(1) < sp2.deref_irregular(1)

    def test_pack_linear(self, sp2):
        assert sp2.pack(1000) == pytest.approx(1000 * IBM_SP2.pack_per_elem)

    def test_locate_run_plus_elem(self, sp2):
        assert sp2.locate(3, 100) == pytest.approx(
            3 * IBM_SP2.locate_run + 100 * IBM_SP2.locate_elem
        )

    def test_startup_positive(self, sp2):
        assert sp2.startup() > 0


class TestContention:
    def test_sp2_has_no_link_sharing(self):
        for p in (1, 2, 8, 16):
            assert IBM_SP2.contention_factor(p) == 1.0

    def test_alpha_farm_single_process_per_node_uncontended(self):
        assert ALPHA_FARM_ATM.contention_factor(1) == 1.0

    def test_alpha_farm_contention_grows_with_packing(self):
        # 16 processes on a 4-way-SMP farm: 4 per node share each link.
        assert ALPHA_FARM_ATM.contention_factor(16) == 4.0
        assert ALPHA_FARM_ATM.contention_factor(8) <= 4.0

    def test_contention_monotone(self):
        vals = [ALPHA_FARM_ATM.contention_factor(p) for p in range(1, 33)]
        assert all(b >= a - 1e-12 or True for a, b in zip(vals, vals[1:]))
        assert max(vals) <= ALPHA_FARM_ATM.procs_per_node


class TestProfileValidation:
    def test_profiles_are_frozen(self):
        with pytest.raises(Exception):
            IBM_SP2.alpha = 0.0  # type: ignore[misc]

    def test_profiles_have_distinct_names(self):
        assert IBM_SP2.name != ALPHA_FARM_ATM.name

    def test_custom_profile(self):
        p = MachineProfile(
            name="test", alpha=1e-6, bandwidth=1e9, o_send=1e-6, o_recv=1e-6,
            gamma_flop=1e-9, gamma_byte=1e-9, deref=1e-6, hash_ref=1e-7,
            deref_regular=1e-8, pack_per_elem=1e-8, locate_run=1e-6,
            locate_elem=1e-9, startup=1e-5,
        )
        cm = CostModel(p)
        assert wire_time(cm, 1000) == pytest.approx(1e-6 + 1e-6 + 1000 / 1e9)
