"""The linear-time inspector against the sort-based one it replaced.

The reference implementations below — ``argsort(kind="stable")`` +
``np.unique`` grouping, ``arange`` -> ``lin_to_global`` ->
``owner_of_flat`` dereference, per-element extents — are the code the
schedule builder ran before it went sort-free and range-aware.  They
live here only, as the oracle: the new grouping must agree with them on
arbitrary keys, the fast dereference paths on every distribution kind,
and whole schedule builds (halves, storage form, wire bytes and
per-rank logical clocks) must be identical with the reference patched
in and out.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.runs
import repro.core.schedule
import repro.core.setofregions
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    KeyGroups,
    RunList,
    ScheduleMethod,
    SectionRegion,
    SetOfRegions,
    get_adapter,
    group_by_runs,
    mc_compute_schedule,
)
from repro.core.coupling import coupled_universe
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
from repro.hpf import HPFArray
from repro.vmachine import ProgramSpec, VirtualMachine, run_programs

from helpers import run_spmd

# ---------------------------------------------------------------------------
# the reference (pre-change) implementations
# ---------------------------------------------------------------------------


class RefGroups:
    """``KeyGroups`` as the inspector used to group: one comparison sort
    and one ``np.unique`` per key array."""

    def __init__(self, keys):
        keys = np.asarray(keys)
        self._order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[self._order], return_index=True)
        self.keys = [int(k) for k in uniq]
        self._bounds = np.append(starts, len(keys))

    def _spans(self):
        return zip(self._bounds[:-1], self._bounds[1:])

    def selectors(self):
        return [self._order[a:b] for a, b in self._spans()]

    def split(self, values):
        values = np.asarray(values)[self._order]
        return [values[a:b] for a, b in self._spans()]

    def runlists(self, values):
        return {
            k: RunList.from_dense(v) for k, v in zip(self.keys, self.split(values))
        }


def ref_owner_of_flat(self, gidx):
    """``CartesianDist.owner_of_flat`` with per-element extents/strides."""
    gidx = np.asarray(gidx, dtype=np.int64)
    multi = np.unravel_index(gidx, self.global_shape)
    pcs, lcs = [], []
    for d, g in zip(self.dims, multi):
        pc, lc = d.map(g)
        pcs.append(pc)
        lcs.append(lc)
    ranks = self.rank_of_coords(tuple(pcs))
    offsets = np.zeros_like(gidx)
    stride = np.ones_like(gidx)
    for d, pc, lc in zip(reversed(self.dims), reversed(pcs), reversed(lcs)):
        offsets = offsets + lc * stride
        stride = stride * d.extent(pc)
    return ranks, offsets


def ref_lin_to_global(self, positions, shape):
    """``SetOfRegions.lin_to_global`` with ``np.unique`` + a mask per region."""
    positions = np.asarray(positions, dtype=np.int64)
    if len(positions) == 0:
        return np.zeros(0, dtype=np.int64)
    if positions.min(initial=0) < 0 or positions.max(initial=0) >= self.size:
        raise IndexError("linearization position out of range")
    starts = self.starts
    region_ids = np.searchsorted(starts, positions, side="right") - 1
    out = np.empty(len(positions), dtype=np.int64)
    for rid in np.unique(region_ids):
        mask = region_ids == rid
        out[mask] = self.regions[rid].lin_to_global(
            positions[mask] - starts[rid], shape
        )
    return out


def ref_deref_range(self, handle, sor, lo, hi):
    """``deref_range`` by materialising and un-ravelling the positions."""
    return self.deref_lin(handle, sor, np.arange(lo, hi, dtype=np.int64))


def install_reference(monkeypatch):
    """Swap every new code path for its reference."""
    for module in (repro.core.runs, repro.core.schedule, repro.core.setofregions):
        monkeypatch.setattr(module, "KeyGroups", RefGroups)
    monkeypatch.setattr(CartesianDist, "owner_of_flat", ref_owner_of_flat)
    monkeypatch.setattr(SetOfRegions, "lin_to_global", ref_lin_to_global)
    monkeypatch.setattr(LibraryAdapter, "deref_range", ref_deref_range)


# ---------------------------------------------------------------------------
# (a) grouping == reference, on arbitrary keys
# ---------------------------------------------------------------------------

_KEY_RANGES = {
    "one-key": (3, 3),
    "ranks": (0, 5),
    "byte-edge": (250, 260),
    "wide": (0, 70_000),        # beyond the 16-bit radix range
    "edge16": (65_530, 65_540),
    "negative": (-4, 4),
}
_KEY_DTYPES = {
    "ranks": [np.int64, np.int32, np.int16, np.uint8, np.uint16, np.uint64],
    "one-key": [np.int64, np.uint8],
    "byte-edge": [np.int64, np.int16, np.uint16],
    "wide": [np.int64, np.int32, np.uint32],
    "edge16": [np.int64, np.uint32],
    "negative": [np.int64, np.int8, np.int32],
}


@st.composite
def _grouping_case(draw):
    kind = draw(st.sampled_from(sorted(_KEY_RANGES)))
    lo, hi = _KEY_RANGES[kind]
    dtype = draw(st.sampled_from(_KEY_DTYPES[kind]))
    n = draw(st.integers(0, 120))
    keys = np.array(
        draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=dtype
    )
    if draw(st.booleans()):
        keys = np.sort(keys)  # already grouped: the no-permutation path
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = [
        rng.integers(0, 1000, n),          # irregular: dense storage
        np.arange(n, dtype=np.int64) * 3,  # regular: run storage
        rng.permutation(n),
    ][: draw(st.integers(1, 3))]
    return keys, values


def _same_runlists(got, want):
    assert list(got) == list(want)
    for k in want:
        np.testing.assert_array_equal(got[k].dense(), want[k].dense())
        assert got[k].nruns == want[k].nruns
        assert got[k].is_compressed == want[k].is_compressed
        assert got[k].nbytes_wire == want[k].nbytes_wire


class TestGroupingMatchesReference:
    @given(_grouping_case())
    def test_keygroups(self, case):
        keys, values = case
        new, ref = KeyGroups(keys), RefGroups(keys)
        assert new.keys == ref.keys
        assert all(type(k) is int for k in new.keys)
        # one grouping, several value arrays
        for v in values:
            for a, b in zip(new.split(v), ref.split(v), strict=True):
                np.testing.assert_array_equal(a, b)
            for sa, sb in zip(new.selectors(), ref.selectors(), strict=True):
                np.testing.assert_array_equal(v[sa], v[sb])
            _same_runlists(new.runlists(v), ref.runlists(v))
            _same_runlists(group_by_runs(keys, v), ref.runlists(v))

    def test_sorted_keys_split_into_views(self):
        keys = np.array([0, 0, 2, 2, 2, 7])
        values = np.arange(6)
        groups = KeyGroups(keys)
        assert all(isinstance(s, slice) for s in groups.selectors())
        assert all(np.shares_memory(p, values) for p in groups.split(values))

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="3 values for 2 keys"):
            KeyGroups(np.array([1, 0])).split(np.arange(3))
        with pytest.raises(ValueError):
            KeyGroups(np.zeros((2, 2), dtype=int))


# ---------------------------------------------------------------------------
# (c) range / closed-form dereference == the generic path
# ---------------------------------------------------------------------------

#: every dim kind, sizes that do not divide over the grid
_DISTS = {
    "block-x-cyclic": CartesianDist((DimDist(BLOCK, 13, 3), DimDist(CYCLIC, 10, 2))),
    "bc3-x-collapsed": CartesianDist(
        (DimDist(BLOCK_CYCLIC, 11, 2, 3), DimDist(COLLAPSED, 7, 1))
    ),
    "collapsed-x-block": CartesianDist((DimDist(COLLAPSED, 5, 1), DimDist(BLOCK, 9, 4))),
    "3d": CartesianDist(
        (DimDist(CYCLIC, 5, 2), DimDist(BLOCK, 7, 3), DimDist(BLOCK_CYCLIC, 6, 2, 2))
    ),
    "1d-collapsed": CartesianDist((DimDist(COLLAPSED, 17, 1),)),
    "1d-block": CartesianDist((DimDist(BLOCK, 17, 4),)),
    "dividing": CartesianDist((DimDist(BLOCK, 12, 3), DimDist(CYCLIC, 8, 2))),
}


def _some_section(shape):
    """A strided sub-section touching every dimension of ``shape``."""
    return Section(
        tuple(1 if n > 3 else 0 for n in shape),
        tuple(shape),
        tuple(2 if n > 5 else 1 for n in shape),
    )


@pytest.mark.parametrize("name", sorted(_DISTS))
class TestClosedFormDereference:
    def test_owner_of_flat_matches_reference(self, name):
        dist = _DISTS[name]
        dist.check_valid()
        gidx = np.random.default_rng(3).permutation(dist.size)
        want = ref_owner_of_flat(dist, gidx)
        got = dist.owner_of_flat(gidx)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == np.int64 and not np.shares_memory(g, gidx)
        with pytest.raises(ValueError):
            dist.owner_of_flat(np.array([dist.size]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_section_map_matches_owner_of_flat(self, name, order):
        dist = _DISTS[name]
        for sec in (Section.full(dist.global_shape), _some_section(dist.global_shape)):
            want = ref_owner_of_flat(dist, sec.global_flat(dist.global_shape, order))
            got = dist.section_map(sec, order)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_split_range_tiles_every_range(self, name, order):
        shape = _DISTS[name].global_shape
        sec = _some_section(shape)
        flat = sec.global_flat(shape, order)
        for lo, hi in itertools.combinations_with_replacement(range(sec.size + 1), 2):
            boxes = sec.split_range(lo, hi, order)
            assert len(boxes) <= max(1, 2 * sec.ndim - 1)
            got = [b.global_flat(shape, order) for b in boxes]
            np.testing.assert_array_equal(
                np.concatenate(got) if got else np.zeros(0, dtype=np.int64),
                flat[lo:hi],
            )
        with pytest.raises(IndexError):
            sec.split_range(0, sec.size + 1, order)


def test_section_global_flat_rejects_a_section_outside_the_shape():
    with pytest.raises(ValueError, match="exceeds global shape"):
        Section((0, 0), (4, 9), (1, 1)).global_flat((4, 8))
    # a stop past the edge is fine while the last selected index is inside
    np.testing.assert_array_equal(
        Section((0,), (12,), (5,)).global_flat((11,)), [0, 5, 10]
    )


def _mixed_sor(shape):
    """Sections in both orders, an empty region and an index list."""
    return SetOfRegions([
        SectionRegion(_some_section(shape), order="F"),
        IndexRegion(np.zeros(0, dtype=np.int64)),
        SectionRegion(Section.full(shape)),
        IndexRegion(np.random.default_rng(5).permutation(int(np.prod(shape)))[:9]),
    ])


class TestDerefRange:
    @pytest.mark.parametrize("specs", [
        ("block", "cyclic"), ("cyclic(3)", "block"), ("*", "block"),
    ])
    def test_hpf_deref_range_matches_deref_lin(self, specs):
        shape = (13, 10)
        sor = _mixed_sor(shape)

        def body(comm):
            arr = HPFArray.distribute(comm, shape, specs)
            adapter, proc = get_adapter("hpf"), comm.process
            n = sor.size  # 30 + 0 + 130 + 9
            for lo, hi in [(0, n), (0, 0), (7, 8), (5, 93), (29, 31), (60, n - 3), (n - 9, n)]:
                t0 = proc.clock
                got = adapter.deref_range(arr, sor, lo, hi)
                t1 = proc.clock
                want = adapter.deref_lin(arr, sor, np.arange(lo, hi))
                # same dereference charge (up to the clock's rounding)
                assert t1 - t0 == pytest.approx(proc.clock - t1, rel=1e-6)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            with pytest.raises(IndexError):
                adapter.deref_range(arr, sor, 0, sor.size + 1)

        run_spmd(3, body)

    def test_chaos_deref_range_matches_deref_lin(self):
        owners = np.random.default_rng(1).integers(0, 3, 40)
        perm = np.random.default_rng(2).permutation(40)
        sor = SetOfRegions(
            [IndexRegion(perm[:15]), IndexRegion(perm[15:15]), IndexRegion(perm[15:31])]
        )

        def body(comm):
            arr = ChaosArray.zeros(comm, owners)
            adapter = get_adapter("chaos")
            for lo, hi in [(0, 31), (3, 3), (10, 20), (15, 31)]:
                got = adapter.deref_range(arr, sor, lo, hi)
                want = adapter.deref_lin(arr, sor, np.arange(lo, hi))
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])

        run_spmd(3, body)


class TestMultiRegionLinToGlobal:
    SHAPE = (6, 7)
    SOR = SetOfRegions([
        SectionRegion(Section((1, 0), (5, 7), (2, 3)), order="F"),
        IndexRegion(np.zeros(0, dtype=np.int64)),  # an empty region
        IndexRegion(np.array([41, 3, 17, 8, 30])),
    ])

    @pytest.mark.parametrize("positions", [
        np.random.default_rng(0).permutation(11),      # out of order
        np.arange(11),                                 # ascending: slices
        np.arange(4, 9),                               # contiguous, two regions
        np.array([10, 0, 10, 5, 6, 6, 0]),             # repeats
        np.array([2, 1, 0]),                           # one region, descending
        np.zeros(0, dtype=np.int64),
    ], ids=["permuted", "ascending", "contiguous", "repeats", "one-region", "empty"])
    def test_matches_reference(self, positions):
        want = ref_lin_to_global(self.SOR, positions, self.SHAPE)
        np.testing.assert_array_equal(
            self.SOR.lin_to_global(positions, self.SHAPE), want
        )
        if len(positions) and (np.diff(positions) == 1).all():
            np.testing.assert_array_equal(
                self.SOR.range_to_global(positions[0], positions[-1] + 1, self.SHAPE),
                want,
            )

    def test_out_of_range_positions_raise(self):
        for bad in ([-1, 0], [0, 11]):
            with pytest.raises(IndexError):
                self.SOR.lin_to_global(np.array(bad), self.SHAPE)
        with pytest.raises(IndexError):
            self.SOR.range_to_global(3, 12, self.SHAPE)


# ---------------------------------------------------------------------------
# (b) whole builds: schedules, wire bytes and build clocks are unchanged
# ---------------------------------------------------------------------------

SHAPE = (13, 10)
N = SHAPE[0] * SHAPE[1]
_RNG = np.random.default_rng(7)
OWNERS = {p: _RNG.integers(0, p, N) for p in range(1, 9)}
PERM = {"src": _RNG.permutation(N)[:60], "dst": _RNG.permutation(N)[:60]}
LIBS = ("blockparti", "hpf", "chaos")


def _sec(*slices, order="C"):
    return SectionRegion(Section.from_slices(slices, SHAPE), order=order)


def _side(lib, comm, side):
    """(array, 60-element SetOfRegions) of ``lib`` playing ``side``."""
    if lib == "blockparti":
        arr = BlockPartiArray.zeros(comm, SHAPE)
        regions = (
            [_sec(slice(1, 11), slice(0, 10, 2)), _sec(slice(11, 13), slice(2, 7))]
            if side == "src" else [_sec(slice(0, 12), slice(3, 8))]
        )
    elif lib == "hpf":
        arr = HPFArray.distribute(
            comm, SHAPE, ("cyclic(3)", "block") if side == "src" else ("block", "cyclic")
        )
        regions = (
            [_sec(slice(0, 12, 2), slice(0, 10), order="F")]
            if side == "src" else
            [_sec(slice(1, 13, 3), slice(0, 10), order="F"),
             _sec(slice(2, 12, 3), slice(0, 5))]
        )
    else:
        arr = ChaosArray.zeros(comm, OWNERS[comm.size])
        perm = PERM[side]
        regions = [IndexRegion(perm[:25]), IndexRegion(perm[25:25]), IndexRegion(perm[25:])]
    return arr, SetOfRegions(regions)


def _describe(sched, clock):
    def half(d):
        return {
            k: (np.asarray(v).tolist(), v.nruns, v.is_compressed, v.nbytes_wire)
            for k, v in sorted(d.items())
        }
    return half(sched.sends), half(sched.recvs), clock


def _single_program(src_lib, dst_lib, method, policy, nprocs):
    def body(comm):
        a, ssor = _side(src_lib, comm, "src")
        b, dsor = _side(dst_lib, comm, "dst")
        sched = mc_compute_schedule(
            comm, src_lib, a, ssor, dst_lib, b, dsor, method, policy=policy
        )
        return _describe(sched, comm.process.clock)

    return VirtualMachine(nprocs).run(body).values


def _two_programs(src_lib, dst_lib, method, policy, nprocs):
    both = method is ScheduleMethod.DUPLICATION  # needs both sors everywhere

    def src_prog(ctx):
        a, ssor = _side(src_lib, ctx.comm, "src")
        dsor = _side(dst_lib, ctx.comm, "dst")[1] if both else None
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(
            uni, src_lib, a, ssor, dst_lib, None, dsor, method, policy=policy
        )
        return _describe(sched, ctx.comm.process.clock)

    def dst_prog(ctx):
        b, dsor = _side(dst_lib, ctx.comm, "dst")
        ssor = _side(src_lib, ctx.comm, "src")[1] if both else None
        uni = coupled_universe(ctx, "srcp", "dst")
        sched = mc_compute_schedule(
            uni, src_lib, None, ssor, dst_lib, b, dsor, method, policy=policy
        )
        return _describe(sched, ctx.comm.process.clock)

    res = run_programs([
        ProgramSpec("srcp", nprocs, src_prog),
        ProgramSpec("dstp", nprocs // 2 + 1, dst_prog),
    ])
    return res["srcp"].values, res["dstp"].values


def _all_builds(src_lib, dst_lib):
    return {
        (runner.__name__, method, policy, nprocs): runner(
            src_lib, dst_lib, method, policy, nprocs
        )
        for runner in (_single_program, _two_programs)
        for method in ScheduleMethod
        for policy in ("ordered", "overlap")
        for nprocs in (2, 4, 8)
    }


@pytest.fixture(scope="module")
def goldens():
    """Every build of the matrix with the reference inspector patched in."""
    with pytest.MonkeyPatch.context() as mp:
        install_reference(mp)
        return {
            (s, d): _all_builds(s, d) for s, d in itertools.product(LIBS, LIBS)
        }


@pytest.mark.parametrize("src_lib,dst_lib", list(itertools.product(LIBS, LIBS)))
def test_schedules_and_build_clocks_match_reference(goldens, src_lib, dst_lib):
    got = _all_builds(src_lib, dst_lib)
    want = goldens[src_lib, dst_lib]
    assert got.keys() == want.keys()
    for case in want:
        assert got[case] == want[case], case


def test_reference_really_swaps_the_inspector(monkeypatch):
    install_reference(monkeypatch)
    assert repro.core.schedule.KeyGroups is RefGroups
    assert repro.core.runs.KeyGroups is RefGroups
    assert CartesianDist.owner_of_flat is ref_owner_of_flat
    assert get_adapter("hpf").deref_range.__func__ is ref_deref_range
