"""Compiled data plane: move-program lowering, strided layouts, casts.

The data plane replaces per-run Python loops with cached
:class:`~repro.core.dataplane.MoveProgram` lowerings (slice / strided
grid / fancy index) and makes every adapter accept arbitrarily strided
local storage with no hidden ``ascontiguousarray`` copy.  These tests
pin the lowering decisions, the layout matrix (contiguous, reversed,
strided 1-D, transposed and sliced 2-D) and the ``pack_into`` lossy-cast
regression.
"""

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
import repro.pcxx  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    MoveProgram,
    mc_compute_schedule,
    mc_copy,
)
from repro.core.dataplane import (
    accept_local,
    compile_offsets,
    copy_compiled,
    flat_view,
    read_flat,
    write_flat,
)
from repro.core.registry import get_adapter
from repro.core.runs import RunList
from repro.hpf import HPFArray
from repro.vmachine.machine import SPMDError

from helpers import index_sor, layouts_of, run_spmd, strided_local


class TestFlatHelpers:
    def test_flat_view_1d_any_stride_passes_through(self):
        a = np.arange(10.0)
        assert flat_view(a) is a
        assert flat_view(a[::-2]) is not None
        assert np.shares_memory(flat_view(a[::-2]), a)

    def test_flat_view_c_contiguous_flattens_zero_copy(self):
        a = np.arange(12.0).reshape(3, 4)
        v = flat_view(a)
        assert v.ndim == 1 and np.shares_memory(v, a)

    def test_flat_view_non_contiguous_nd_is_none(self):
        a = np.arange(12.0).reshape(3, 4)
        assert flat_view(a.T) is None
        assert flat_view(a[:, ::2]) is None

    def test_accept_local_never_copies(self):
        for label, a in layouts_of(np.arange(12.0)):
            kept = accept_local(a)
            assert np.shares_memory(kept, a), label

    def test_read_write_flat_roundtrip_all_layouts(self):
        vals = np.arange(12.0)
        for label, a in layouts_of(vals):
            np.testing.assert_array_equal(read_flat(a), vals, err_msg=label)
            write_flat(a, vals * 3)
            np.testing.assert_array_equal(read_flat(a), vals * 3, err_msg=label)


# ---------------------------------------------------------------------------
# Lowering decisions: which offsets compile to which program kind.
# ---------------------------------------------------------------------------


class TestCompileKinds:
    def test_empty(self):
        prog = compile_offsets(RunList.from_dense(np.empty(0, dtype=np.int64)))
        assert prog.kind == "empty" and prog.n == 0

    def test_contiguous_run_is_slice(self):
        prog = compile_offsets(RunList.from_dense(np.arange(3, 40)))
        assert prog.kind == "slice"
        assert (prog.start, prog.step, prog.n) == (3, 1, 37)

    def test_strided_run_is_slice(self):
        prog = compile_offsets(RunList.from_dense(np.arange(2, 62, 3)))
        assert prog.kind == "slice" and prog.step == 3

    def test_singleton_is_slice(self):
        prog = compile_offsets(RunList.from_runs([(7, 0, 1)]))
        assert prog.kind == "slice"
        assert (prog.start, prog.step, prog.n) == (7, 1, 1)

    def test_uniform_section_is_grid(self):
        # Rows of a (6, 20)-pitched section: 6 runs of 8, pitch 20.
        idx = (20 * np.arange(6)[:, None] + np.arange(8)[None, :]).ravel()
        prog = compile_offsets(RunList.from_dense(idx))
        assert prog.kind == "grid"
        assert len(prog.grids) == 1
        s0, pitch, step, nrows, count = prog.grids[0].tolist()
        assert (s0, pitch, step, nrows, count) == (0, 20, 1, 6, 8)
        assert prog.scatter_safe

    def test_piecewise_section_is_multiblock_grid(self):
        # Two blocks with different pitches — pre-PR this fell off the
        # single-grid fast path into the per-run Python loop.
        a = (20 * np.arange(4)[:, None] + np.arange(6)[None, :]).ravel()
        b = 200 + (32 * np.arange(5)[:, None] + 2 * np.arange(6)[None, :]).ravel()
        prog = compile_offsets(RunList.from_dense(np.concatenate([a, b])))
        assert prog.kind == "grid"
        assert len(prog.grids) == 2
        assert prog.grids[:, 3].tolist() == [4, 5]

    def test_interleaving_grid_is_scatter_unsafe(self):
        # rowstep 4 < count*step 6: rows overlap; gather fine, scatter
        # must fall back to the fancy store.
        idx = (4 * np.arange(5)[:, None] + np.arange(6)[None, :]).ravel()
        prog = compile_offsets(RunList.from_dense(idx))
        assert prog.kind == "grid" and not prog.scatter_safe

    def test_permutation_is_index(self):
        perm = np.random.default_rng(0).permutation(64)
        prog = compile_offsets(RunList.from_dense(perm))
        assert prog.kind == "index"
        np.testing.assert_array_equal(prog.index(), perm)

    def test_ndarray_offsets_compile_zero_copy(self):
        idx = np.array([5, 1, 9, 3], dtype=np.int64)
        prog = compile_offsets(idx)
        assert prog.kind == "index" and prog.index() is idx

    def test_runlist_memoizes_program(self):
        rl = RunList.from_dense(np.arange(0, 30, 2))
        p1 = compile_offsets(rl)
        p2 = compile_offsets(rl)
        assert p1 is p2
        assert compile_offsets(p1) is p1  # MoveProgram passes through

    def test_index_vector_built_once(self):
        rl = RunList.from_dense(np.random.default_rng(1).permutation(32))
        prog = compile_offsets(rl)
        assert prog.index() is prog.index()


# ---------------------------------------------------------------------------
# Execution: every program kind against every storage layout.
# ---------------------------------------------------------------------------


def _programs(n):
    """A (label, offsets) sample hitting every program kind within [0, n)."""
    rng = np.random.default_rng(n)
    grid = (8 * np.arange(n // 8)[:, None] + np.arange(6)[None, :]).ravel()
    return [
        ("slice", np.arange(2, n, 3)),
        ("grid", grid[grid < n]),
        ("index", rng.permutation(n)[: n // 2]),
    ]


class TestGatherScatterLayouts:
    @pytest.mark.parametrize("progname,offsets", _programs(24))
    def test_gather_matches_dense_reference(self, progname, offsets):
        vals = np.random.default_rng(7).random(24)
        prog = compile_offsets(RunList.from_dense(offsets))
        for label, data in layouts_of(vals):
            got = prog.gather(data)
            np.testing.assert_array_equal(
                got, vals[offsets], err_msg=f"{progname}/{label}"
            )

    @pytest.mark.parametrize("progname,offsets", _programs(24))
    def test_gather_into_out_buffer(self, progname, offsets):
        vals = np.random.default_rng(8).random(24)
        prog = compile_offsets(RunList.from_dense(offsets))
        for label, data in layouts_of(vals):
            out = np.empty(prog.n)
            assert prog.gather(data, out=out) is out
            np.testing.assert_array_equal(
                out, vals[offsets], err_msg=f"{progname}/{label}"
            )

    @pytest.mark.parametrize("progname,offsets", _programs(24))
    def test_scatter_matches_dense_reference(self, progname, offsets):
        vals = np.random.default_rng(9).random(len(offsets))
        ref = np.zeros(24)
        ref[offsets] = vals
        prog = compile_offsets(RunList.from_dense(offsets))
        for label, data in layouts_of(np.zeros(24)):
            prog.scatter(data, vals)
            np.testing.assert_array_equal(
                read_flat(data), ref, err_msg=f"{progname}/{label}"
            )

    def test_gather_never_aliases_source(self):
        """Packed buffers travel the transport — a slice gather must be a
        fresh array, never a view of the source storage."""
        data = np.arange(20.0)
        for _, offsets in _programs(20):
            prog = compile_offsets(RunList.from_dense(offsets))
            buf = prog.gather(data)
            assert not np.shares_memory(buf, data)

    def test_gather_into_noncontiguous_out_segment(self):
        """Grid gather writing a non-contiguous out segment must not lose
        writes into a reshape copy."""
        idx = (8 * np.arange(3)[:, None] + np.arange(6)[None, :]).ravel()
        prog = compile_offsets(RunList.from_dense(idx))
        assert prog.kind == "grid"
        data = np.arange(24.0)
        backing = np.zeros(2 * prog.n)
        out = backing[::2]  # non-contiguous destination segment
        prog.gather(data, out=out)
        np.testing.assert_array_equal(out, data[idx])

    def test_constant_run_scatter_last_write_wins(self):
        rl = RunList.from_runs([(2, 0, 4)])  # offset 2 four times
        prog = compile_offsets(rl)
        data = np.zeros(5)
        prog.scatter(data, np.array([1.0, 2.0, 3.0, 5.0]))
        assert data[2] == 5.0

    def test_out_size_mismatch_rejected(self):
        prog = compile_offsets(np.arange(4))
        with pytest.raises(ValueError, match="slots for"):
            prog.gather(np.arange(10.0), out=np.empty(3))


class TestCopyCompiled:
    def _roundtrip(self, src_off, dst_off, n=30):
        src = np.random.default_rng(5).random(n)
        dst = np.zeros(n)
        ref = dst.copy()
        ref[dst_off] = src[src_off]
        copy_compiled(
            compile_offsets(RunList.from_dense(src_off)), src,
            compile_offsets(RunList.from_dense(dst_off)), dst,
        )
        np.testing.assert_array_equal(dst, ref)

    def test_slice_to_slice(self):
        self._roundtrip(np.arange(0, 20, 2), np.arange(5, 25, 2))

    def test_matched_grid_to_grid(self):
        g = (10 * np.arange(3)[:, None] + np.arange(4)[None, :]).ravel()
        self._roundtrip(g, g + 5)

    def test_mismatched_structures_fall_back(self):
        perm = np.random.default_rng(6).permutation(30)[:10]
        self._roundtrip(np.arange(10), perm)
        self._roundtrip(perm, np.arange(10))

    def test_same_array_overlapping_copy(self):
        data = np.arange(20.0)
        copy_compiled(
            compile_offsets(RunList.from_dense(np.arange(0, 10))), data,
            compile_offsets(RunList.from_dense(np.arange(5, 15))), data,
        )
        np.testing.assert_array_equal(data[5:15], np.arange(10.0))

    def test_strided_src_and_dst_storage(self):
        vals = np.arange(24.0)
        for slabel, src in layouts_of(vals):
            for dlabel, dst in layouts_of(np.zeros(24)):
                copy_compiled(
                    compile_offsets(RunList.from_dense(np.arange(0, 24, 2))), src,
                    compile_offsets(RunList.from_dense(np.arange(1, 24, 2))), dst,
                )
                np.testing.assert_array_equal(
                    read_flat(dst)[1::2], vals[::2],
                    err_msg=f"{slabel}->{dlabel}",
                )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            copy_compiled(
                compile_offsets(np.arange(3)), np.zeros(5),
                compile_offsets(np.arange(4)), np.zeros(5),
            )


# ---------------------------------------------------------------------------
# Layout-agnostic adapters, end to end.
# ---------------------------------------------------------------------------

N = 24
PERM = np.random.default_rng(11).permutation(N)

END_TO_END_LAYOUTS = ["contiguous", "reversed-view", "strided-view", "sliced-2d"]


class TestLayoutAgnosticEndToEnd:
    @pytest.mark.parametrize("layout", END_TO_END_LAYOUTS)
    def test_strided_src_storage_through_mc_copy(self, layout):
        full = np.random.default_rng(12).random(N)

        def spmd(comm):
            proto = HPFArray.from_global(comm, full, ("block",))
            storage = strided_local(np.asarray(read_flat(proto.local)), layout)
            src = HPFArray(comm, proto.dist, storage)
            # no hidden staging copy: the array aliases caller storage
            assert np.shares_memory(src.local, storage)
            dst = ChaosArray.zeros(comm, PERM % comm.size)
            sor = index_sor(np.arange(N))
            sched = mc_compute_schedule(
                comm, "hpf", src, sor, "chaos", dst, index_sor(PERM)
            )
            mc_copy(comm, sched, src, dst)
            return dst.gather_global()

        got = run_spmd(2, spmd).values[0]
        expected = np.zeros(N)
        expected[PERM] = full
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("layout", END_TO_END_LAYOUTS)
    def test_strided_dst_storage_through_mc_copy(self, layout):
        full = np.random.default_rng(13).random(N)

        def spmd(comm):
            src = BlockPartiArray.from_global(comm, full)
            proto = HPFArray.distribute(comm, (N,), ("block",))
            dst = HPFArray(
                comm, proto.dist,
                strided_local(np.zeros(proto.local.size), layout),
            )
            sor = index_sor(np.arange(N))
            sched = mc_compute_schedule(
                comm, "blockparti", src, sor, "hpf", dst, sor
            )
            mc_copy(comm, sched, src, dst)
            return dst.gather_global()

        got = run_spmd(2, spmd).values[0]
        np.testing.assert_allclose(got, full)

    def test_layout_does_not_change_clocks(self):
        """The cost model sees element counts, never strides: the same
        copy over strided storage must produce byte-identical clocks."""
        full = np.random.default_rng(14).random(N)

        def spmd(comm, layout):
            src = BlockPartiArray.from_global(comm, full)
            proto = HPFArray.distribute(comm, (N,), ("block",))
            dst = HPFArray(
                comm, proto.dist,
                strided_local(np.zeros(proto.local.size), layout),
            )
            sor = index_sor(np.arange(N))
            sched = mc_compute_schedule(
                comm, "blockparti", src, sor, "hpf", dst, index_sor(PERM)
            )
            mc_copy(comm, sched, src, dst)
            return comm.process.clock

        clocks = {
            layout: run_spmd(3, spmd, layout).clocks
            for layout in END_TO_END_LAYOUTS
        }
        base = clocks["contiguous"]
        for layout, c in clocks.items():
            assert c == base, layout


# ---------------------------------------------------------------------------
# pack_into lossy-cast regression (the fused path must refuse exactly
# what unpack/copy_local refuse).
# ---------------------------------------------------------------------------


class TestPackIntoSafeCast:
    def test_lossy_pack_into_rejected(self):
        def spmd(comm):
            src = HPFArray.distribute(comm, (12,), ("block",), dtype=np.float64)
            adapter = get_adapter("hpf")
            offs = np.arange(src.local.size)
            adapter.pack_into(src, offs, np.empty(len(offs), dtype=np.int64))

        with pytest.raises(SPMDError, match="lossy element conversion"):
            run_spmd(2, spmd)

    def test_widening_pack_into_allowed(self):
        def spmd(comm):
            src = HPFArray.distribute(comm, (12,), ("block",), dtype=np.float32)
            src.local[:] = 1.5
            adapter = get_adapter("hpf")
            offs = np.arange(src.local.size)
            out = np.zeros(len(offs), dtype=np.float64)
            adapter.pack_into(src, offs, out)
            return bool((out == 1.5).all())

        assert all(run_spmd(2, spmd).values)

    def test_empty_pack_into_skips_cast_check(self):
        def spmd(comm):
            src = HPFArray.distribute(comm, (12,), ("block",), dtype=np.float64)
            adapter = get_adapter("hpf")
            adapter.pack_into(
                src, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
            return True

        assert all(run_spmd(2, spmd).values)

    def test_wrong_size_out_rejected(self):
        def spmd(comm):
            src = HPFArray.distribute(comm, (12,), ("block",))
            get_adapter("hpf").pack_into(
                src, np.arange(4), np.empty(3, dtype=np.float64)
            )

        with pytest.raises(SPMDError, match="slots for"):
            run_spmd(2, spmd)
