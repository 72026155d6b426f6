"""HPFArray distribution tests."""

import numpy as np
import pytest

from repro.hpf import HPFArray
from repro.hpf.array import parse_dist_spec
from repro.vmachine.machine import SPMDError

from helpers import raced_first_builds, run_spmd

G = np.random.default_rng(22).random((12, 9))


class TestSpecParsing:
    def test_block(self):
        assert parse_dist_spec("block") == ("block", 0)

    def test_cyclic(self):
        assert parse_dist_spec("CYCLIC") == ("cyclic", 0)

    def test_cyclic_k(self):
        assert parse_dist_spec("cyclic(5)") == ("block_cyclic", 5)

    def test_star(self):
        assert parse_dist_spec("*") == ("collapsed", 0)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_dist_spec("blocky")


SPECS = [
    ("block", "block"),
    ("block", "*"),
    ("*", "block"),
    ("cyclic", "block"),
    ("cyclic", "cyclic"),
    ("cyclic(3)", "*"),
    ("block", "cyclic(2)"),
]


@pytest.mark.parametrize("specs", SPECS, ids=lambda s: "/".join(s))
class TestDistributions:
    def test_gather_roundtrip(self, specs):
        def spmd(comm):
            a = HPFArray.from_global(comm, G, specs)
            return a.gather_global()

        for p in (1, 2, 4):
            got = run_spmd(p, spmd).values[0]
            np.testing.assert_allclose(got, G)

    def test_local_sizes_partition(self, specs):
        def spmd(comm):
            a = HPFArray.from_global(comm, G, specs)
            return a.local.size

        assert sum(run_spmd(4, spmd).values) == G.size


class TestSharedDistribution:
    """Arrays of one (shape, specs, nprocs, grid) share one CartesianDist."""

    def test_equal_arguments_share_one_dist(self):
        def spmd(comm):
            a = HPFArray.distribute(comm, (8, 8), ("block", "cyclic"))
            b = HPFArray.from_global(comm, np.ones((8, 8)), ("block", "cyclic"))
            other_spec = HPFArray.distribute(comm, (8, 8), ("block", "block"))
            grid = HPFArray.distribute(comm, (8, 8), ("block", "cyclic"), (1, 4))
            same_grid = HPFArray.distribute(
                comm, (8, 8), ("block", "cyclic"), (1, 4)
            )
            return (a.dist is b.dist, other_spec.dist is not a.dist,
                    grid.dist is not a.dist, grid.dist is same_grid.dist)

        assert run_spmd(4, spmd).values == [(True,) * 4] * 4

    def test_writing_one_array_leaves_the_other(self):
        def spmd(comm):
            a = HPFArray.distribute(comm, (6, 6), ("cyclic", "*"))
            b = HPFArray.from_global(comm, np.ones((6, 6)), ("cyclic", "*"))
            a.local[:] = 5.0
            return a.dist is b.dist, b.gather_global()

        res = run_spmd(2, spmd).values
        assert all(same for same, _ in res)
        np.testing.assert_array_equal(res[0][1], np.ones((6, 6)))

    def test_first_builds_race_to_one_dist(self, monkeypatch):
        def make(comm, shape):
            return HPFArray.distribute(comm, shape, ("block", "cyclic"))

        dists, built = raced_first_builds(monkeypatch, 4, make)
        assert all(d is dists[0][0] for pair in dists for d in pair)
        assert built == 1

    def test_memo_is_bounded(self):
        from repro.distrib import cartesian
        from repro.distrib.cartesian import DIST_MEMO_SIZE

        def spmd(comm):
            for n in range(1, DIST_MEMO_SIZE + 20):
                HPFArray.distribute(comm, (n,), ("block",))
            return len(cartesian._memo)

        assert run_spmd(1, spmd).values[0] <= DIST_MEMO_SIZE


class TestConstruction:
    def test_from_function(self):
        def spmd(comm):
            a = HPFArray.from_function(
                comm, (6, 4), lambda i, j: 10.0 * i + j, ("cyclic", "block")
            )
            return a.gather_global()

        got = run_spmd(4, spmd).values[0]
        ii, jj = np.meshgrid(np.arange(6), np.arange(4), indexing="ij")
        np.testing.assert_allclose(got, 10.0 * ii + jj)

    def test_explicit_grid(self):
        def spmd(comm):
            a = HPFArray.distribute(comm, (8, 8), ("block", "block"), grid=(4, 1))
            return a.local_shape

        assert run_spmd(4, spmd).values == [(2, 8)] * 4

    def test_short_grid_rejected(self):
        def spmd(comm):
            HPFArray.distribute(comm, (8, 8), ("block", "block"), grid=(4,))

        with pytest.raises(SPMDError, match="one axis per dimension"):
            run_spmd(4, spmd)

    def test_collapsed_grid_extent_must_be_one(self):
        def spmd(comm):
            HPFArray.distribute(comm, (8, 8), ("*", "block"), grid=(2, 2))

        with pytest.raises(SPMDError, match="grid extent 1"):
            run_spmd(4, spmd)

    def test_fully_collapsed_multiproc_rejected(self):
        def spmd(comm):
            HPFArray.distribute(comm, (8,), ("*",))

        with pytest.raises(SPMDError, match="one processor"):
            run_spmd(2, spmd)

    def test_spec_count_mismatch(self):
        def spmd(comm):
            HPFArray.distribute(comm, (8, 8), ("block",))

        with pytest.raises(SPMDError, match="per dimension"):
            run_spmd(2, spmd)

    def test_aligned_with(self):
        def spmd(comm):
            a = HPFArray.distribute(comm, (8, 8), ("block", "block"))
            b = HPFArray.distribute(comm, (8, 8), ("block", "block"))
            c = HPFArray.distribute(comm, (8, 8), ("cyclic", "block"))
            return a.aligned_with(b) and not a.aligned_with(c)

        assert all(run_spmd(4, spmd).values)
