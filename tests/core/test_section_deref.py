"""The closed-form section dereference, and what a built schedule keeps.

``LibraryAdapter.deref_lin`` maps a section region over a Cartesian
distribution from the section's per-dimension coordinates straight to
(owner, local offset).  The oracle is the flat path it bypasses:
``owner_of_flat(sor.lin_to_global(...))``.  The schedule builder adopts
the arrays it makes instead of copying them; what a caller hands in is
still never aliased by the schedule.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    SetOfRegions,
    mc_compute_schedule,
)
from repro.core.registry import LibraryAdapter
from repro.distrib.cartesian import (
    BLOCK,
    BLOCK_CYCLIC,
    COLLAPSED,
    CYCLIC,
    CartesianDist,
    DimDist,
)
from repro.distrib.section import Section

from helpers import run_spmd


class _Uncharged(LibraryAdapter):
    """The generic dereference without a virtual process to charge."""

    name = "uncharged"
    array_type = object

    def charge_deref(self, n):
        pass


@st.composite
def _dim(draw):
    kind = draw(st.sampled_from([BLOCK, CYCLIC, BLOCK_CYCLIC, COLLAPSED]))
    procs = 1 if kind == COLLAPSED else draw(st.integers(1, 4))
    block = draw(st.integers(1, 3)) if kind == BLOCK_CYCLIC else 0
    return DimDist(kind, draw(st.integers(0, 9)), procs, block)


@st.composite
def _section(draw, shape):
    bounds = []
    for n in shape:
        lo = draw(st.integers(0, n))
        bounds.append((lo, draw(st.integers(lo, n)), draw(st.integers(1, 3))))
    return Section(*map(tuple, zip(*bounds)))


@st.composite
def _case(draw):
    dist = CartesianDist(tuple(draw(st.lists(_dim(), min_size=1, max_size=3))))
    shape = dist.global_shape
    regions = [
        SectionRegion(draw(_section(shape)), draw(st.sampled_from("CF")))
        for _ in range(draw(st.integers(1, 2)))
    ]
    if dist.size and draw(st.booleans()):  # a flat-path region in between
        flat = draw(st.lists(st.integers(0, dist.size - 1), max_size=6))
        regions.insert(1, IndexRegion(np.array(flat, dtype=np.int64)))
    sor = SetOfRegions(regions)
    n = sor.size
    positions = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=40)) if n else []
    if draw(st.booleans()):
        positions.sort()
    return dist, sor, np.array(positions, dtype=np.int64)


_STRIDED_F = (  # a strided F-order section of a grid that divides nothing
    CartesianDist((DimDist(BLOCK, 9, 2), DimDist(CYCLIC, 7, 3))),
    SetOfRegions([SectionRegion(Section((1, 0), (9, 7), (2, 3)), "F")]),
    np.array([5, 0, 11, 3, 7], dtype=np.int64),
)


@settings(max_examples=200)
@given(_case())
@example(_STRIDED_F)
def test_section_deref_equals_the_flat_path(case):
    """Every dim kind, strided sections in C and F order, sizes the grid
    does not divide, sorted, unsorted and empty positions."""
    dist, sor, positions = case
    handle = SimpleNamespace(dist=dist, global_shape=dist.global_shape, itemsize=8)
    got = _Uncharged().deref_lin(handle, sor, positions)
    want = dist.owner_of_flat(sor.lin_to_global(positions, dist.global_shape))
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == np.int64 and g.shape == positions.shape
        assert not np.shares_memory(g, positions)
    for bad in (np.array([sor.size]), np.array([0, -1])):
        with pytest.raises(IndexError, match="linearization position out of range"):
            _Uncharged().deref_lin(handle, sor, bad)
        with pytest.raises(IndexError, match="linearization position out of range"):
            sor.lin_to_global(bad, dist.global_shape)


def test_a_section_outside_the_shape_is_refused():
    dist = CartesianDist((DimDist(BLOCK, 8, 2), DimDist(CYCLIC, 6, 2)))
    handle = SimpleNamespace(dist=dist, global_shape=(8, 6), itemsize=8)
    sor = SetOfRegions([SectionRegion(Section((0, 0), (9, 6), (1, 1)))])
    with pytest.raises(ValueError, match="outside the data structure"):
        _Uncharged().deref_lin(handle, sor, np.array([0]))


def test_built_schedules_share_no_memory_with_the_callers_indices():
    """Both methods, both directions: the halves are adopted arrays the
    builder made, never the caller's ``IndexRegion`` indices."""
    shape = (12, 10)
    n = shape[0] * shape[1]
    rng = np.random.default_rng(2)
    indices, owners = rng.permutation(n), rng.integers(0, 4, n)

    def body(comm):
        regular = BlockPartiArray.zeros(comm, shape)
        irregular = ChaosArray.zeros(comm, owners)
        section = SetOfRegions([SectionRegion(Section.full(shape))])
        listed = SetOfRegions([IndexRegion(indices)])
        halves = []
        for method in ScheduleMethod:
            for src, dst in (
                (("blockparti", regular, section), ("chaos", irregular, listed)),
                (("chaos", irregular, listed), ("blockparti", regular, section)),
                (("chaos", irregular, listed), ("chaos", irregular, listed)),
            ):
                sched = mc_compute_schedule(comm, *src, *dst, method)
                halves += [*sched.sends.values(), *sched.recvs.values()]
        return [h.stored for h in halves]

    for stored in run_spmd(4, body).values:
        assert stored
        assert not any(np.shares_memory(s, indices) for s in stored)
