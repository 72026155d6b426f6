"""BlockPartiArray tests."""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray
from repro.vmachine.machine import SPMDError

from helpers import raced_first_builds, run_spmd

G = np.random.default_rng(4).random((9, 7))


class TestConstruction:
    def test_zeros_local_sizes_partition(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (9, 7))
            return a.local.size

        res = run_spmd(4, spmd)
        assert sum(res.values) == 63

    def test_from_global_gather_roundtrip(self):
        def spmd(comm):
            a = BlockPartiArray.from_global(comm, G)
            return a.gather_global()

        for p in (1, 2, 3, 4, 6):
            got = run_spmd(p, spmd).values[0]
            np.testing.assert_allclose(got, G)

    def test_from_function_owner_computes(self):
        def spmd(comm):
            a = BlockPartiArray.from_function(comm, (6, 5), lambda i, j: 10.0 * i + j)
            return a.gather_global()

        got = run_spmd(4, spmd).values[0]
        ii, jj = np.meshgrid(np.arange(6), np.arange(5), indexing="ij")
        np.testing.assert_allclose(got, 10.0 * ii + jj)

    def test_explicit_grid(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (8, 8), nprocs_grid=(1, 4))
            return a.local_shape

        res = run_spmd(4, spmd)
        assert res.values == [(8, 2)] * 4

    def test_short_grid_rejected(self):
        def spmd(comm):
            BlockPartiArray.zeros(comm, (8, 8), nprocs_grid=(4,))

        with pytest.raises(SPMDError, match="one axis per dimension"):
            run_spmd(4, spmd)

    def test_bad_grid_rejected(self):
        def spmd(comm):
            BlockPartiArray.zeros(comm, (8, 8), nprocs_grid=(3, 1))

        with pytest.raises(SPMDError, match="does not cover"):
            run_spmd(4, spmd)

    def test_wrong_local_size_rejected(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (4, 4))
            BlockPartiArray(comm, a.dist, np.zeros(99))

        with pytest.raises(SPMDError, match="local storage"):
            run_spmd(2, spmd)

    def test_owned_block_covers_shape(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (9, 7))
            return a.owned_block()

        blocks = run_spmd(3, spmd).values
        covered = np.zeros((9, 7), dtype=int)
        for (l0, h0), (l1, h1) in blocks:
            covered[l0:h0, l1:h1] += 1
        assert (covered == 1).all()

    def test_local_nd_writes_through(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (4, 4))
            a.local_nd[...] = 7.0
            return float(a.local.sum())

        res = run_spmd(2, spmd)
        assert sum(res.values) == pytest.approx(7.0 * 16)

    def test_dtype_and_itemsize(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (4,), dtype=np.float32)
            return (a.dtype == np.float32, a.itemsize)

        assert run_spmd(1, spmd).values[0] == (True, 4)

    def test_1d(self):
        def spmd(comm):
            a = BlockPartiArray.from_global(comm, np.arange(10.0))
            return a.gather_global()

        np.testing.assert_allclose(run_spmd(3, spmd).values[0], np.arange(10.0))


class TestSharedDistribution:
    """Arrays of one (shape, nprocs, grid) share one CartesianDist."""

    def test_equal_arguments_share_one_dist(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (8, 8))
            b = BlockPartiArray.from_global(comm, np.ones((8, 8)))
            c = BlockPartiArray.zeros(comm, (8, 8), nprocs_grid=(1, 4))
            d = BlockPartiArray.zeros(comm, (8, 8), nprocs_grid=(1, 4))
            e = BlockPartiArray.zeros(comm, (8, 9))
            return (a.dist is b.dist, c.dist is d.dist,
                    c.dist is not a.dist, e.dist is not a.dist)

        assert run_spmd(4, spmd).values == [(True,) * 4] * 4

    def test_writing_one_array_leaves_the_other(self):
        def spmd(comm):
            a = BlockPartiArray.zeros(comm, (6, 6))
            b = BlockPartiArray.from_global(comm, np.ones((6, 6)))
            a.local_nd[...] = 5.0
            return a.dist is b.dist, b.gather_global()

        res = run_spmd(2, spmd).values
        assert all(same for same, _ in res)
        np.testing.assert_array_equal(res[0][1], np.ones((6, 6)))

    def test_first_builds_race_to_one_dist(self, monkeypatch):
        dists, built = raced_first_builds(monkeypatch, 4, BlockPartiArray.zeros)
        assert all(d is dists[0][0] for pair in dists for d in pair)
        assert built == 1

    def test_memo_is_bounded(self):
        from repro.distrib import cartesian
        from repro.distrib.cartesian import DIST_MEMO_SIZE

        def spmd(comm):
            for n in range(1, DIST_MEMO_SIZE + 20):
                BlockPartiArray.zeros(comm, (n,))
            return len(cartesian._memo)

        assert run_spmd(1, spmd).values[0] <= DIST_MEMO_SIZE
