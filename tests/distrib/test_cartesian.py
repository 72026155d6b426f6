"""Cartesian (HPF-style) distribution tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distrib.cartesian import (
    BLOCK,
    BLOCK_CYCLIC,
    COLLAPSED,
    CYCLIC,
    CartesianDist,
    DimDist,
    cartesian_dist,
    proc_grid,
)
from repro.distrib.section import Section


class TestProcGrid:
    def test_exact_square(self):
        assert proc_grid(16, 2) == (4, 4)

    def test_prime(self):
        assert proc_grid(7, 2) == (7, 1)

    def test_product_preserved(self):
        for n in range(1, 65):
            for d in (1, 2, 3):
                assert int(np.prod(proc_grid(n, d))) == n

    def test_descending(self):
        g = proc_grid(12, 3)
        assert list(g) == sorted(g, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            proc_grid(0, 2)


class TestDimDist:
    @pytest.mark.parametrize(
        "dim",
        [
            DimDist(BLOCK, 17, 4),
            DimDist(BLOCK, 16, 4),
            DimDist(CYCLIC, 17, 4),
            DimDist(BLOCK_CYCLIC, 23, 3, 4),
            DimDist(BLOCK_CYCLIC, 24, 3, 4),
            DimDist(COLLAPSED, 9, 1),
        ],
    )
    def test_map_unmap_roundtrip(self, dim):
        g = np.arange(dim.size)
        pc, lc = dim.map(g)
        back = dim.unmap(pc, lc)
        np.testing.assert_array_equal(back, g)

    @pytest.mark.parametrize(
        "dim",
        [
            DimDist(BLOCK, 17, 4),
            DimDist(CYCLIC, 17, 4),
            DimDist(BLOCK_CYCLIC, 23, 3, 4),
            DimDist(COLLAPSED, 9, 1),
        ],
    )
    def test_extent_matches_count(self, dim):
        g = np.arange(dim.size)
        pc, _ = dim.map(g)
        for p in range(dim.procs):
            assert dim.extent(p) == int((pc == p).sum())

    def test_block_bounds(self):
        d = DimDist(BLOCK, 10, 4)  # b = 3
        assert d.block_bounds(0) == (0, 3)
        assert d.block_bounds(3) == (9, 10)

    def test_block_bounds_empty_tail_proc(self):
        d = DimDist(BLOCK, 9, 5)  # b = 2, proc 4 gets [8,9)... proc 4: lo=8 hi=9
        lo, hi = d.block_bounds(4)
        assert hi - lo == d.extent(4)

    def test_cyclic_has_no_block_bounds(self):
        with pytest.raises(ValueError):
            DimDist(CYCLIC, 10, 2).block_bounds(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DimDist("weird", 10, 2)
        with pytest.raises(ValueError):
            DimDist(COLLAPSED, 10, 2)
        with pytest.raises(ValueError):
            DimDist(BLOCK_CYCLIC, 10, 2, 0)


BLOCKS = ((BLOCK, 0), (BLOCK, 0))

DISTS = [
    cartesian_dist((13, 9), BLOCKS, 6),
    cartesian_dist((8, 8), BLOCKS, 4),
    cartesian_dist((10, 3), ((BLOCK, 0), (COLLAPSED, 0)), 4),
    CartesianDist((DimDist(CYCLIC, 11, 3), DimDist(BLOCK, 7, 2))),
    CartesianDist((DimDist(BLOCK_CYCLIC, 20, 2, 3), DimDist(CYCLIC, 5, 2))),
    CartesianDist((DimDist(COLLAPSED, 6, 1), DimDist(BLOCK, 10, 5))),
    CartesianDist((DimDist(BLOCK, 15, 1),)),
]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: repr(d))
class TestCartesianDist:
    def test_partition_valid(self, dist):
        dist.check_valid()

    def test_local_sizes_sum_to_total(self, dist):
        assert sum(dist.local_size(r) for r in range(dist.nprocs)) == dist.size

    def test_local_to_global_roundtrip(self, dist):
        for r in range(dist.nprocs):
            n = dist.local_size(r)
            g = dist.local_to_global(r, np.arange(n))
            ranks, offsets = dist.owner_of_flat(g)
            assert (ranks == r).all()
            np.testing.assert_array_equal(offsets, np.arange(n))

    def test_descriptor_roundtrip(self, dist):
        d2 = dist.descriptor().materialize()
        assert d2 == dist
        g = np.arange(dist.size)
        np.testing.assert_array_equal(
            d2.owner_of_flat(g)[0], dist.owner_of_flat(g)[0]
        )

    def test_local_shape_is_memoised_per_rank(self, dist):
        twin = CartesianDist(dist.dims)  # equal, never asked
        for r in range(dist.nprocs):
            shape = dist.local_shape(r)
            assert dist.local_shape(r) is shape
            assert shape == tuple(d.extent(c) for d, c in
                                  zip(dist.dims, dist.coords_of_rank(r)))
        assert dist == twin and twin == dist and hash(dist) == hash(twin)

    def test_descriptor_compact(self, dist):
        # Regular descriptors are O(ndims), never data-sized.
        assert dist.descriptor().nbytes < 200

    def test_section_map_matches_owner_of_flat(self, dist):
        shape = dist.global_shape
        slices = tuple(slice(n // 4, n, 2) for n in shape)
        sec = Section.from_slices(slices, shape)
        if sec.size == 0:
            pytest.skip("empty section for this shape")
        ranks, offsets = dist.section_map(sec)
        r2, o2 = dist.owner_of_flat(sec.global_flat(shape))
        np.testing.assert_array_equal(ranks, r2)
        np.testing.assert_array_equal(offsets, o2)


class TestErrors:
    def test_grid_mismatch(self):
        d = cartesian_dist((8, 8), BLOCKS, 4)
        sec = Section((0,), (8,), (1,))
        with pytest.raises(ValueError, match="rank mismatch"):
            d.section_map(sec)

    def test_section_out_of_bounds(self):
        d = cartesian_dist((8, 8), BLOCKS, 4)
        sec = Section((0, 0), (9, 8), (1, 1))
        with pytest.raises(IndexError):
            d.section_map(sec)

    def test_block_1d_other_axes_collapsed(self):
        d = cartesian_dist((10, 4), ((BLOCK, 0), (COLLAPSED, 0)), 3)
        assert d.grid == (3, 1)


@given(
    n0=st.integers(1, 20),
    n1=st.integers(1, 20),
    nprocs=st.integers(1, 8),
)
def test_property_block_nd_is_partition(n0, n1, nprocs):
    dist = cartesian_dist((n0, n1), BLOCKS, nprocs)
    dist.check_valid()


@given(
    size=st.integers(1, 60),
    procs=st.integers(1, 6),
    kind=st.sampled_from([BLOCK, CYCLIC]),
)
def test_property_dim_map_is_partition(size, procs, kind):
    dim = DimDist(kind, size, procs)
    g = np.arange(size)
    pc, lc = dim.map(g)
    assert pc.min() >= 0 and pc.max() < procs
    for p in range(procs):
        mine = lc[pc == p]
        np.testing.assert_array_equal(np.sort(mine), np.arange(len(mine)))
        assert len(mine) == dim.extent(p)


@given(
    size=st.integers(1, 60),
    procs=st.integers(1, 5),
    k=st.integers(1, 7),
)
def test_property_block_cyclic_roundtrip(size, procs, k):
    dim = DimDist(BLOCK_CYCLIC, size, procs, k)
    g = np.arange(size)
    pc, lc = dim.map(g)
    np.testing.assert_array_equal(dim.unmap(pc, lc), g)
    for p in range(procs):
        assert dim.extent(p) == int((pc == p).sum())
