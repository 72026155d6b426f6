"""Three-dimensional arrays through the whole stack.

The evaluation workloads are 1-D/2-D, but nothing in the design is
dimension-bound; these tests keep the n-D paths honest.
"""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray, build_copy_schedule, parti_region
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    mc_compute_schedule,
    mc_copy,
    mc_new_set_of_regions,
)
from repro.distrib.cartesian import BLOCK, CartesianDist, cartesian_dist
from repro.distrib.section import Section
from repro.hpf import HPFArray
from repro.util import gather_canonical

from helpers import both_methods, run_spmd

SHAPE = (6, 5, 4)
G = np.random.default_rng(120).random(SHAPE)


class TestDistributions3D:
    def test_block_nd_partition(self):
        for p in (1, 2, 4, 8, 12):
            cartesian_dist(SHAPE, ((BLOCK, 0),) * 3, p).check_valid()

    def test_mixed_kinds(self):
        from repro.distrib.cartesian import CYCLIC, COLLAPSED, DimDist

        d = CartesianDist(
            (DimDist(BLOCK, 6, 2), DimDist(CYCLIC, 5, 3), DimDist(COLLAPSED, 4, 1))
        )
        d.check_valid()

    def test_section_map_3d(self):
        d = cartesian_dist(SHAPE, ((BLOCK, 0),) * 3, 4)
        sec = Section((1, 0, 1), (6, 5, 4), (2, 2, 1))
        ranks, offs = d.section_map(sec)
        r2, o2 = d.owner_of_flat(sec.global_flat(SHAPE))
        np.testing.assert_array_equal(ranks, r2)
        np.testing.assert_array_equal(offs, o2)


class TestArrays3D:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_parti_gather_roundtrip(self, nprocs):
        def spmd(comm):
            a = BlockPartiArray.from_global(comm, G)
            return a.gather_global()

        np.testing.assert_allclose(run_spmd(nprocs, spmd).values[0], G)

    def test_hpf_3d_specs(self):
        def spmd(comm):
            a = HPFArray.from_global(comm, G, ("block", "cyclic", "*"))
            return a.gather_global()

        np.testing.assert_allclose(run_spmd(4, spmd).values[0], G)

    def test_parti_native_3d_section_copy(self):
        def spmd(comm):
            a = BlockPartiArray.from_global(comm, G)
            b = BlockPartiArray.zeros(comm, (8, 8, 8))
            sched = build_copy_schedule(
                a, parti_region((0, 0, 0), (5, 4, 3)),
                b, parti_region((1, 2, 3), (6, 6, 6)),
            )
            sched.execute(a, b)
            return b.gather_global()

        got = run_spmd(4, spmd).values[0]
        expected = np.zeros((8, 8, 8))
        expected[1:7, 2:7, 3:7] = G
        np.testing.assert_allclose(got, expected)


class TestMetaChaos3D:
    @pytest.mark.parametrize("method", both_methods())
    def test_3d_section_to_irregular(self, method):
        sec = Section((0, 1, 0), (6, 5, 4), (1, 2, 1))
        n = sec.size
        perm = np.random.default_rng(121).permutation(n)

        def spmd(comm):
            a = BlockPartiArray.from_global(comm, G)
            z = ChaosArray.zeros(comm, perm % comm.size)
            sched = mc_compute_schedule(
                comm,
                "blockparti", a, mc_new_set_of_regions(SectionRegion(sec)),
                "chaos", z, mc_new_set_of_regions(IndexRegion(perm)),
                method,
            )
            mc_copy(comm, sched, a, z)
            return z.gather_global()

        got = run_spmd(4, spmd).values[0]
        expected = np.zeros(n)
        expected[perm] = G[:, 1::2, :].ravel()
        np.testing.assert_allclose(got, expected)

    def test_3d_f_order_canonical(self):
        def spmd(comm):
            a = HPFArray.from_global(comm, G, ("block", "block", "*"))
            sor = mc_new_set_of_regions(
                SectionRegion(Section.full(SHAPE), order="F")
            )
            return gather_canonical(comm, "hpf", a, sor)

        got = run_spmd(4, spmd).values[0]
        np.testing.assert_allclose(got, G.ravel(order="F"))

    def test_3d_to_2d_reshape_copy(self):
        """Linearization is shape-free: a 3-D section maps onto a 2-D one."""

        def spmd(comm):
            a = BlockPartiArray.from_global(comm, G)
            b = HPFArray.distribute(comm, (10, 12), ("block", "cyclic"))
            sched = mc_compute_schedule(
                comm,
                "blockparti", a,
                mc_new_set_of_regions(SectionRegion(Section.full(SHAPE))),
                "hpf", b,
                mc_new_set_of_regions(SectionRegion(Section.full((10, 12)))),
            )
            mc_copy(comm, sched, a, b)
            return b.gather_global()

        got = run_spmd(3, spmd).values[0]
        np.testing.assert_allclose(got, G.reshape(10, 12))
