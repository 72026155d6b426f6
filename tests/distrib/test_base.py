"""Distribution base-protocol and descriptor-registry tests."""

import numpy as np
import pytest

from repro.distrib.base import DistDescriptor, Distribution, register_descriptor_kind
from repro.distrib.cartesian import BLOCK, CartesianDist, cartesian_dist
from repro.distrib.irregular import IrregularDist


class BrokenDist(Distribution):
    """Deliberately inconsistent distribution for check_valid tests."""

    def __init__(self, flavor: str):
        self.nprocs = 2
        self.size = 4
        self.flavor = flavor

    def owner_of_flat(self, gidx):
        gidx = np.asarray(gidx)
        if self.flavor == "bad-rank":
            return np.full_like(gidx, 5), np.zeros_like(gidx)
        if self.flavor == "bad-offsets":
            # two elements share offset 0 on rank 0
            return gidx % 2, np.zeros_like(gidx)
        # inconsistent local_to_global
        return gidx % 2, gidx // 2

    def local_size(self, rank):
        return 2

    def local_to_global(self, rank, offsets):
        if self.flavor == "bad-roundtrip":
            return np.zeros_like(np.asarray(offsets))
        return np.asarray(offsets) * 2 + rank

    def descriptor(self):  # pragma: no cover - unused
        raise NotImplementedError


class TestCheckValid:
    def test_detects_out_of_range_rank(self):
        with pytest.raises(AssertionError, match="rank out of range"):
            BrokenDist("bad-rank").check_valid()

    def test_detects_offset_collisions(self):
        with pytest.raises(AssertionError):
            BrokenDist("bad-offsets").check_valid()

    def test_detects_roundtrip_mismatch(self):
        with pytest.raises(AssertionError, match="local_to_global"):
            BrokenDist("bad-roundtrip").check_valid()

    def test_consistent_dist_passes(self):
        cartesian_dist((4, 4), ((BLOCK, 0),) * 2, 4).check_valid()


class TestDescriptorRegistry:
    def test_builtin_kinds_materialize(self):
        c = cartesian_dist((6, 6), ((BLOCK, 0),) * 2, 4)
        assert c.descriptor().materialize() == c
        i = IrregularDist(np.arange(8) % 3, 3)
        assert i.descriptor().materialize() == i

    def test_unknown_kind_lists_known(self):
        d = DistDescriptor(kind="quantum", payload=None, nbytes=0)
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            d.materialize()

    def test_custom_kind_registration(self):
        calls = []

        def factory(payload):
            calls.append(payload)
            return cartesian_dist((2, 2), ((BLOCK, 0),) * 2, 1)

        register_descriptor_kind("custom-test-kind", factory)
        d = DistDescriptor(kind="custom-test-kind", payload="p", nbytes=8)
        out = d.materialize()
        assert calls == ["p"]
        assert isinstance(out, CartesianDist)

    def test_aligned_kind_registered_by_hpf_import(self):
        import repro.hpf  # noqa: F401
        from repro.hpf import AlignedDist, Template

        t = Template((10,), ("block",), 2)
        d = AlignedDist(t.dist, (10,), (0,), (0,), (1,))
        assert d.descriptor().materialize() == d

    def test_owned_global_helper(self):
        d = cartesian_dist((6,), ((BLOCK, 0),), 3)
        np.testing.assert_array_equal(d.owned_global(1), [2, 3])
