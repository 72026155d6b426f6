"""The adapter contract (paper §4.1.3), executed.

"A major concern in designing Meta-Chaos was to require that relatively
few procedures be provided by the data parallel library implementor."  A
library adapter is a name, an array type and a cost policy; everything
else :class:`~repro.core.registry.LibraryAdapter` derives from the
``dist`` / ``global_shape`` / ``itemsize`` / ``local`` attributes of the
library's arrays.  This file holds that claim two ways:

- a fifth library — a vector cut into uneven contiguous segments, one per
  rank, over an :class:`~repro.distrib.irregular.IrregularDist` — is
  defined below in under 40 lines, registered for the test only, and moves data
  to and from each of the four shipped libraries in one program
  (``mc_copy``, ``mc_copy_many``) and across two (``CoupledExchange``),
  under both schedule methods, every result equal to the serial oracle;
- the conformance suite every registered library (and the fifth) passes:
  dereference ∘ local-elements consistency, a linearization bijection
  against the serial oracle, a handle export → materialize round trip,
  donation, and dereference charges equal to the adapter's own policy.
"""

import inspect

import numpy as np
import pytest

import repro.blockparti  # noqa: F401  (registers the four shipped libraries)
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
import repro.pcxx  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    SetOfRegions,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
)
from repro.core import registry
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.core.dataplane import compile_offsets, read_flat
from repro.core.registry import (
    LibraryAdapter,
    get_adapter,
    register_adapter,
    registered_libraries,
    unpack_segment,
)
from repro.core.runs import RunList
from repro.distrib.irregular import IrregularDist
from repro.distrib.section import Section
from repro.hpf import HPFArray
from repro.pcxx import DistributedCollection
from repro.vmachine import ProgramSpec, run_programs
from repro.vmachine.process import current_process

from helpers import both_methods, oracle_copy, run_spmd

SHIPPED = registered_libraries()


# -- the fifth library ----------------------------------------------------------


class SegmentedVector:
    """One rank's segment of a vector cut into uneven contiguous pieces:
    rank r owns ``[sum(sizes[:r]), sum(sizes[:r + 1]))``."""

    def __init__(self, comm, sizes, dtype=np.float64):
        self.comm = comm
        self.dist = IrregularDist(np.repeat(np.arange(comm.size), sizes), comm.size)
        self.global_shape = (self.dist.size,)
        self.start = int(np.sum(sizes[:comm.rank]))
        self.local = np.zeros(sizes[comm.rank], dtype=dtype)

    @property
    def itemsize(self) -> int:
        return self.local.itemsize


class SegmentedAdapter(LibraryAdapter):
    """A name, an array type and a cost policy — nothing else."""

    name = "segvec"
    array_type = SegmentedVector

    def charge_deref(self, n: int) -> None:
        # a binary search over the segment bounds: two block-arithmetic steps
        current_process().charge_deref_regular(2 * n)


def register_fifth(mp: pytest.MonkeyPatch) -> LibraryAdapter:
    """Register the fifth library until ``mp`` is undone."""
    mp.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    return register_adapter(SegmentedAdapter())


@pytest.fixture
def segvec(monkeypatch):
    """The fifth library, registered for one test and gone after it."""
    return register_fifth(monkeypatch)


def test_the_fifth_library_fits_in_forty_lines_and_leaves_no_entry_behind():
    lines = sum(len(inspect.getsourcelines(cls)[0])
                for cls in (SegmentedVector, SegmentedAdapter))
    assert lines <= 40
    with pytest.MonkeyPatch.context() as mp:
        adapter = register_fifth(mp)
        assert get_adapter("segvec") is adapter
        assert registered_libraries() == [*SHIPPED, "segvec"]
    assert registered_libraries() == SHIPPED


def test_the_shipped_adapters_copy_no_introspection():
    assert SHIPPED == ["blockparti", "chaos", "hpf", "pcxx"]
    derived = {"dist_of", "shape_of", "itemsize_of", "local_data", "adopt_local"}
    for lib in SHIPPED:
        assert not derived & set(vars(type(get_adapter(lib)))), lib
    assert "local_elements" not in vars(type(get_adapter("pcxx")))


# -- one structure of every library over the same N values -------------------

N = 48
SHAPE_2D = (8, 6)
LIBRARIES = [*SHIPPED, "segvec"]
VALUES = np.random.default_rng(40).random(N)
OWNERS = np.random.default_rng(41).integers(0, 8, N)
PERM = np.random.default_rng(42).permutation(N)


#: the fifth library's segment lengths per processor count: uneven, one empty
SEGMENTS = {2: (41, 7), 3: (4, 35, 9), 4: (30, 0, 11, 7)}


def make(lib, comm, values=None):
    """A structure of ``lib`` holding ``values`` (zeros when None)."""
    full = np.zeros(N) if values is None else values
    if lib == "blockparti":
        return BlockPartiArray.from_global(comm, full.reshape(SHAPE_2D))
    if lib == "hpf":
        return HPFArray.from_global(comm, full.reshape(SHAPE_2D), ("block", "cyclic"))
    if lib == "chaos":
        return ChaosArray.from_global(comm, full, OWNERS % comm.size)
    if lib == "pcxx":
        return DistributedCollection.from_global(comm, full, "cyclic")
    vec = SegmentedVector(comm, SEGMENTS[comm.size])
    vec.local[:] = full[vec.start:vec.start + vec.local.size]
    return vec


def sor_of(lib) -> SetOfRegions:
    """A multi-region SetOfRegions covering all N elements of ``lib``'s
    structure, in a library-specific order."""
    if lib in ("blockparti", "hpf"):
        return SetOfRegions([SectionRegion(Section((4, 0), (8, 6), (1, 1))),
                             SectionRegion(Section((0, 0), (4, 6), (1, 1)))])
    if lib == "segvec":
        return SetOfRegions([SectionRegion(Section((20,), (N,), (1,))),
                             IndexRegion(PERM[PERM < 20])])
    return SetOfRegions([IndexRegion(PERM)])


def gather(lib, arr):
    """The structure's N values on rank 0 (None elsewhere)."""
    if lib == "segvec":
        pieces = arr.comm.gather(arr.local.copy())
        return None if pieces is None else np.concatenate(pieces)
    full = arr.gather_global()
    return None if full is None else full.reshape(-1)


def expected(src_lib, dst_lib, values=VALUES):
    """Serial oracle of a copy from ``src_lib``'s linearization into a zero
    structure of ``dst_lib``, flat."""
    shape = {lib: (SHAPE_2D if lib in ("blockparti", "hpf") else (N,))
             for lib in (src_lib, dst_lib)}
    return oracle_copy(values.reshape(shape[src_lib]), sor_of(src_lib),
                       np.zeros(shape[dst_lib]), sor_of(dst_lib)).reshape(-1)


# -- the fifth library interoperates with each shipped one ---------------------


@pytest.mark.parametrize("method", both_methods(), ids=lambda m: m.name.lower())
@pytest.mark.parametrize("other", SHIPPED)
def test_fifth_library_in_one_program(segvec, other, method):
    def spmd(comm):
        seg, lib = make("segvec", comm, VALUES), make(other, comm, VALUES)
        to_other, to_seg = make(other, comm), make("segvec", comm)
        out = mc_compute_schedule(comm, "segvec", seg, sor_of("segvec"),
                                  other, to_other, sor_of(other), method)
        back = mc_compute_schedule(comm, other, lib, sor_of(other),
                                   "segvec", to_seg, sor_of("segvec"), method)
        mc_copy(comm, out, seg, to_other)
        mc_copy(comm, back, lib, to_seg)
        copied = (gather(other, to_other), gather("segvec", to_seg))
        fused = (make(other, comm), make("segvec", comm))
        mc_copy_many(comm, [out, back], [seg, lib], list(fused))
        return copied, (gather(other, fused[0]), gather("segvec", fused[1]))

    for nprocs in (3, 4):
        for got_other, got_seg in run_spmd(nprocs, spmd).values[0]:
            np.testing.assert_array_equal(got_other, expected("segvec", other))
            np.testing.assert_array_equal(got_seg, expected(other, "segvec"))


@pytest.mark.parametrize("method", both_methods(), ids=lambda m: m.name.lower())
@pytest.mark.parametrize("other", SHIPPED)
def test_fifth_library_across_two_programs(segvec, other, method):
    dup = method is ScheduleMethod.DUPLICATION

    def seg_prog(ctx):
        seg = make("segvec", ctx.comm, VALUES)
        uni = coupled_universe(ctx, "lib", "src")
        sched = mc_compute_schedule(uni, "segvec", seg, sor_of("segvec"),
                                    other, None, sor_of(other) if dup else None,
                                    method)
        ex = CoupledExchange(uni, sched)
        ex.push(seg)
        back = make("segvec", ctx.comm)
        ex.pull(back)
        return gather("segvec", back)

    def lib_prog(ctx):
        arr = make(other, ctx.comm)
        uni = coupled_universe(ctx, "seg", "dst")
        sched = mc_compute_schedule(uni, "segvec", None,
                                    sor_of("segvec") if dup else None,
                                    other, arr, sor_of(other), method)
        ex = CoupledExchange(uni, sched)
        ex.push(arr)
        pushed = gather(other, arr)
        arr.local *= 2.0
        ex.pull(arr)
        return pushed

    res = run_programs([ProgramSpec("seg", 3, seg_prog),
                        ProgramSpec("lib", 2, lib_prog)])
    pushed = expected("segvec", other)
    np.testing.assert_array_equal(res["lib"].values[0], pushed)
    np.testing.assert_array_equal(res["seg"].values[0],
                                  expected(other, "segvec", 2.0 * pushed))


# -- the conformance suite ---------------------------------------------------


def conformance(lib, check, nprocs=4):
    """Run ``check(comm, adapter, arr, sor)`` on every rank of a fresh
    machine over ``lib``'s structure holding VALUES; rank results."""
    def spmd(comm):
        return check(comm, get_adapter(lib), make(lib, comm, VALUES), sor_of(lib))
    return run_spmd(nprocs, spmd).values


@pytest.mark.parametrize("lib", LIBRARIES)
def test_local_elements_are_what_deref_says_they_are(segvec, lib):
    def check(comm, adapter, arr, sor):
        lin, offs = adapter.local_elements(arr, sor, comm.rank)
        ranks, offs2 = adapter.deref_lin(arr, sor, lin)
        assert (ranks == comm.rank).all()
        np.testing.assert_array_equal(offs2, offs)
        ranks3, offs3 = adapter.deref_range(arr, sor, 0, sor.size)
        np.testing.assert_array_equal(np.flatnonzero(ranks3 == comm.rank), np.sort(lin))
        return lin

    mine = conformance(lib, check)
    assert sorted(np.concatenate(mine).tolist()) == list(range(N))


@pytest.mark.parametrize("lib", LIBRARIES)
def test_linearization_is_the_oracles_bijection(segvec, lib):
    def check(comm, adapter, arr, sor):
        lin, offs = adapter.local_elements(arr, sor, comm.rank)
        return lin, read_flat(adapter.local_data(arr))[offs]

    by_position = np.full(N, np.nan)
    for lin, values in conformance(lib, check):
        assert np.isnan(by_position[lin]).all()  # each position has one owner
        by_position[lin] = values
    shape = SHAPE_2D if lib in ("blockparti", "hpf") else (N,)
    np.testing.assert_array_equal(
        by_position, VALUES.reshape(shape).reshape(-1)[sor_of(lib).global_flat(shape)])


@pytest.mark.parametrize("lib", LIBRARIES)
def test_exported_handle_materializes_the_same_structure(segvec, lib):
    def check(comm, adapter, arr, sor):
        mat = adapter.resolve_handle(adapter.export_handle(arr))
        assert adapter.dist_of(mat) == adapter.dist_of(arr)
        assert adapter.shape_of(mat) == adapter.shape_of(arr)
        assert adapter.itemsize_of(mat) == adapter.itemsize_of(arr) == 8
        with pytest.raises(TypeError):
            adapter.local_data(mat)  # a handle carries no data
        for ranks_offs in zip(adapter.deref_range(mat, sor, 0, sor.size),
                              adapter.deref_range(arr, sor, 0, sor.size)):
            np.testing.assert_array_equal(*ranks_offs)
        return True

    assert all(conformance(lib, check))


@pytest.mark.parametrize("lib", LIBRARIES)
def test_a_full_span_receive_is_donated(segvec, lib):
    def check(comm, adapter, arr, sor):
        data = adapter.local_data(arr)
        values = np.arange(data.size, dtype=data.dtype)
        full_span = compile_offsets(RunList.from_dense(np.arange(data.size)))
        donated = unpack_segment(comm.process, adapter, arr, full_span, data,
                                 values, donate=True)
        assert donated or data.size == 0  # an empty span has nothing to adopt
        assert adapter.local_data(arr) is (values if donated else data)
        return True

    assert all(conformance(lib, check))


@pytest.mark.parametrize("lib", LIBRARIES)
def test_dereference_charges_the_adapters_cost_policy(segvec, lib):
    def charged(proc, call) -> float:
        proc.clock = 0.0  # a fresh clock: the charge is the reading
        call()
        return proc.clock

    def check(comm, adapter, arr, sor):
        proc = comm.process
        positions = np.arange(5, sor.size, 3)
        policy = charged(proc, lambda: adapter.charge_deref(len(positions)))
        assert policy > 0
        assert charged(proc, lambda: adapter.deref_lin(arr, sor, positions)) == policy
        span = charged(proc, lambda: adapter.charge_deref(sor.size - 7))
        assert charged(proc, lambda: adapter.deref_range(arr, sor, 7, sor.size)) == span
        return True

    assert all(conformance(lib, check))
