"""Region type tests."""

import numpy as np
import pytest

from repro.core.region import IndexRegion, MaskRegion, SectionRegion
from repro.distrib.section import Section


class TestSectionRegion:
    def test_size(self):
        r = SectionRegion(Section((0, 0), (4, 6), (2, 3)))
        assert r.size == 4

    def test_from_bounds_inclusive(self):
        # the paper's CreateRegion_HPF(2, (50,50), (100,100)) convention
        r = SectionRegion.from_bounds((50, 50), (100, 100))
        assert r.section.counts == (51, 51)

    def test_from_bounds_with_stride(self):
        r = SectionRegion.from_bounds((0,), (10,), (5,))
        np.testing.assert_array_equal(r.section.dim_indices(0), [0, 5, 10])

    def test_lin_to_global_row_major(self):
        r = SectionRegion(Section((1, 1), (3, 3), (1, 1)))
        g = r.lin_to_global(np.arange(4), (5, 5))
        np.testing.assert_array_equal(g, [6, 7, 11, 12])

    def test_global_flat_matches_lin_to_global(self):
        r = SectionRegion(Section((0, 2), (7, 9), (3, 2)))
        shape = (8, 10)
        np.testing.assert_array_equal(
            r.global_flat(shape), r.lin_to_global(np.arange(r.size), shape)
        )

    def test_descriptor_compact(self):
        r = SectionRegion(Section((0, 0), (1000, 1000), (1, 1)))
        assert r.nbytes_descriptor() < 100


class TestIndexRegion:
    def test_order_is_linearization(self):
        r = IndexRegion(np.array([5, 2, 9]))
        np.testing.assert_array_equal(r.lin_to_global(np.array([0, 1, 2]), (10,)), [5, 2, 9])

    def test_size(self):
        assert IndexRegion(np.arange(7)).size == 7

    def test_global_flat_copies(self):
        idx = np.array([1, 2, 3])
        r = IndexRegion(idx)
        out = r.global_flat((10,))
        out[0] = 99
        assert r.indices[0] == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            IndexRegion(np.array([-1, 2]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            IndexRegion(np.zeros((2, 2), dtype=int))

    def test_descriptor_data_sized(self):
        r = IndexRegion(np.arange(1000))
        assert r.nbytes_descriptor() == 8000

    def test_duplicates_allowed_in_region(self):
        # A region may name an element twice (e.g. gather semantics);
        # bijection checks happen at the linearization level.
        r = IndexRegion(np.array([3, 3]))
        assert r.size == 2


class TestCheckFits:
    """Each Region type knows whether a structure of a given shape has
    every element it names (the schedule builder asks once, up front)."""

    def test_section_inside_and_outside(self):
        r = SectionRegion(Section((1, 0), (4, 6), (1, 2)))
        r.check_fits((4, 6))
        r.check_fits((4, 5))  # last column taken is 4: still inside
        with pytest.raises(ValueError, match=r"index \(3, 4\).*shape \(3, 6\)"):
            r.check_fits((3, 6))
        with pytest.raises(ValueError, match="2 dimension"):
            r.check_fits((24,))

    def test_empty_section_fits_anything(self):
        SectionRegion(Section((5, 5), (5, 9), (1, 1))).check_fits((2, 2))

    def test_index_list(self):
        r = IndexRegion(np.array([0, 5, 99]))
        r.check_fits((10, 10))
        with pytest.raises(ValueError, match=r"index 99 .*\(16,\) \(16 elements\)"):
            r.check_fits((16,))
        IndexRegion(np.zeros(0, dtype=int)).check_fits((0,))

    def test_mask_must_match_shape(self):
        r = MaskRegion(np.eye(3, dtype=bool))
        r.check_fits((3, 3))
        with pytest.raises(ValueError, match="mask shape"):
            r.check_fits((9,))

    def test_range_to_global_is_a_slice_of_lin_to_global(self):
        shape = (6, 7)
        for r in (
            SectionRegion(Section((1, 0), (5, 7), (2, 3)), order="F"),
            IndexRegion(np.array([41, 3, 17, 8, 30])),
            MaskRegion(np.arange(42).reshape(shape) % 5 == 0),
        ):
            want = r.lin_to_global(np.arange(r.size), shape)
            for lo, hi in [(0, r.size), (1, 3), (2, 2)]:
                np.testing.assert_array_equal(
                    r.range_to_global(lo, hi, shape), want[lo:hi]
                )
