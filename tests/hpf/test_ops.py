"""HPF intrinsic-style operation tests."""

import numpy as np
import pytest

from repro.hpf import (
    HPFArray,
    cshift,
    hpf_dot,
    hpf_max,
    hpf_min,
    hpf_section_copy,
    hpf_sum,
)
from repro.vmachine.machine import SPMDError

from helpers import run_spmd

G = np.random.default_rng(51).random(30)
G2 = np.random.default_rng(52).random((8, 10))


class TestReductions:
    @pytest.mark.parametrize("spec", ["block", "cyclic", "cyclic(4)"])
    def test_sum_max_min(self, spec):
        def spmd(comm):
            x = HPFArray.from_global(comm, G, (spec,))
            return hpf_sum(x), hpf_max(x), hpf_min(x)

        for s, mx, mn in run_spmd(3, spmd).values:
            assert np.isclose(s, G.sum())
            assert np.isclose(mx, G.max())
            assert np.isclose(mn, G.min())

    def test_dot(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G, ("block",))
            y = HPFArray.from_global(comm, 2.0 * G, ("block",))
            return hpf_dot(x, y)

        assert np.isclose(run_spmd(4, spmd).values[0], 2.0 * G @ G)

    def test_dot_requires_alignment(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G, ("block",))
            y = HPFArray.from_global(comm, G, ("cyclic",))
            hpf_dot(x, y)

        with pytest.raises(SPMDError, match="aligned"):
            run_spmd(2, spmd)

    def test_reductions_on_2d(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G2, ("block", "cyclic"))
            return hpf_sum(x)

        assert np.isclose(run_spmd(4, spmd).values[0], G2.sum())


class TestCshift:
    @pytest.mark.parametrize("shift", [0, 1, 5, 29, 30, -3])
    def test_1d(self, shift):
        def spmd(comm):
            x = HPFArray.from_global(comm, G, ("block",))
            return cshift(x, shift).gather_global()

        got = run_spmd(3, spmd).values[0]
        np.testing.assert_allclose(got, np.roll(G, -shift))

    def test_2d_dim0(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G2, ("block", "block"))
            return cshift(x, 3, dim=0).gather_global()

        got = run_spmd(4, spmd).values[0]
        np.testing.assert_allclose(got, np.roll(G2, -3, axis=0))

    def test_2d_dim1(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G2, ("block", "block"))
            return cshift(x, 4, dim=1).gather_global()

        got = run_spmd(2, spmd).values[0]
        np.testing.assert_allclose(got, np.roll(G2, -4, axis=1))

    def test_whole_period_on_strided_storage(self):
        """A shift by 0 or by a whole extent copies the local block
        whatever its layout: C- or Fortran-ordered 2-D storage."""

        def spmd(comm):
            x = HPFArray.from_global(comm, G2, ("block", "*"))
            got = []
            for order in "CF":
                block = np.asarray(x.local_nd, order=order)
                assert block.ndim == 2 and block.flags[f"{order}_CONTIGUOUS"]
                strided = HPFArray(comm, x.dist, block)
                for shift, dim in ((0, 0), (0, 1), (G2.shape[0], 0), (G2.shape[1], 1)):
                    got.append(cshift(strided, shift, dim).gather_global())
            return got

        for got in run_spmd(2, spmd).values[0]:
            np.testing.assert_array_equal(got, G2)

    def test_preserves_distribution(self):
        def spmd(comm):
            x = HPFArray.from_global(comm, G, ("cyclic",))
            return cshift(x, 2).aligned_with(x)

        assert all(run_spmd(3, spmd).values)


class TestSectionCopy:
    def test_between_different_distributions(self):
        def spmd(comm):
            src = HPFArray.from_global(comm, G2, ("block", "block"))
            dst = HPFArray.distribute(comm, (12, 12), ("cyclic", "block"))
            hpf_section_copy(
                src, (slice(2, 8), slice(0, 10)),
                dst, (slice(0, 6), slice(1, 11)),
            )
            return dst.gather_global()

        got = run_spmd(4, spmd).values[0]
        expected = np.zeros((12, 12))
        expected[0:6, 1:11] = G2[2:8, 0:10]
        np.testing.assert_allclose(got, expected)

    def test_strided(self):
        def spmd(comm):
            src = HPFArray.from_global(comm, G, ("block",))
            dst = HPFArray.distribute(comm, (10,), ("cyclic",))
            hpf_section_copy(src, (slice(0, 30, 3),), dst, (slice(0, 10),))
            return dst.gather_global()

        np.testing.assert_allclose(run_spmd(3, spmd).values[0], G[::3])
