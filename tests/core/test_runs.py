"""RunList compression, structural-op and executor-fast-path tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dataplane import compile_offsets
from repro.core.runs import RunList, group_by_runs, run_starts
from repro.core.wire import count_runs


def _cases():
    rng = np.random.default_rng(42)
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "length1": np.array([17]),
        "length2": np.array([5, 100]),
        "constant": np.full(50, 9),
        "stride1": np.arange(1000),
        "strided": np.arange(0, 3000, 7),
        "descending": np.arange(100, 0, -1),
        "alternating": np.array([0, 5, 0, 5, 0, 5, 0, 5]),
        "blocky": np.concatenate([np.arange(r * 100, r * 100 + 20) for r in range(30)]),
        "random": rng.permutation(2000),
    }


class TestCompressExpand:
    @pytest.mark.parametrize("name,arr", _cases().items(), ids=_cases().keys())
    def test_roundtrip(self, name, arr):
        rl = RunList.from_dense(arr)
        np.testing.assert_array_equal(rl.dense(), arr)
        np.testing.assert_array_equal(np.asarray(rl), arr)
        assert len(rl) == len(arr)

    @pytest.mark.parametrize("name,arr", _cases().items(), ids=_cases().keys())
    def test_nruns_matches_count_runs(self, name, arr):
        """Wire accounting depends on this identity staying exact."""
        assert RunList.from_dense(arr).nruns == count_runs(arr)

    def test_empty(self):
        rl = RunList.from_dense(np.zeros(0, dtype=np.int64))
        assert len(rl) == 0 and rl.nruns == 0
        assert rl.dense().shape == (0,)
        assert count_runs(np.array([])) == 0

    def test_length_one_and_two_are_single_runs(self):
        assert RunList.from_dense(np.array([3])).nruns == 1
        assert RunList.from_dense(np.array([3, -40])).nruns == 1
        assert count_runs(np.array([3])) == 1
        assert count_runs(np.array([3, -40])) == 1

    def test_constant_array_is_one_step0_run(self):
        rl = RunList.from_dense(np.full(64, 7))
        assert rl.nruns == 1 and rl.is_compressed
        assert rl.runs.tolist() == [[7, 0, 64]]

    def test_alternating_steps_one_run_per_pair_boundary(self):
        arr = np.array([0, 5, 0, 5, 0, 5])
        rl = RunList.from_dense(arr)
        # Greedy: [0,5], then every change of step opens a new run.
        assert rl.nruns == count_runs(arr) == 5
        np.testing.assert_array_equal(rl.dense(), arr)

    def test_irregular_stays_dense_hybrid(self):
        arr = np.random.default_rng(0).permutation(5000)
        rl = RunList.from_dense(arr)
        assert not rl.is_compressed
        # Hybrid storage never exceeds the dense footprint (plus header).
        assert rl.nbytes_memory <= arr.nbytes + 16
        np.testing.assert_array_equal(rl.dense(), arr)

    def test_regular_is_layout_sized(self):
        rl = RunList.from_dense(np.arange(100_000))
        assert rl.is_compressed
        assert rl.nbytes_memory < 100  # vs 800 KB dense

    def test_input_never_aliased(self):
        src = np.random.default_rng(1).permutation(100)  # hybrid path
        rl = RunList.from_dense(src)
        src[0] = -999
        assert rl.dense()[0] != -999

    def test_greedy_vs_optimal_2x_bound(self):
        """The wire.py docstring claim: greedy <= 2x the optimal partition.

        Constructed families with known optimal counts: R contiguous rows
        at irregular row jumps (optimal R: one run per row) — the greedy
        splitter may add at most one singleton per jump.
        """
        rng = np.random.default_rng(7)
        for rows in (1, 2, 10, 100):
            jumps = np.cumsum(rng.integers(100, 1000, size=rows))
            arr = np.concatenate([j + np.arange(20) for j in jumps])
            greedy = count_runs(arr)
            assert rows <= greedy <= 2 * rows
        # A single arithmetic progression is optimal and greedy alike.
        assert count_runs(np.arange(0, 990, 3)) == 1


class TestArrayProtocol:
    def test_len_getitem_slice(self):
        arr = np.arange(0, 60, 3)
        rl = RunList.from_dense(arr)
        assert len(rl) == 20
        assert rl[4] == 12
        np.testing.assert_array_equal(rl[2:5], arr[2:5])
        np.testing.assert_array_equal(rl[:-1], arr[:-1])

    def test_min_max(self):
        for arr in (np.arange(5, 50, 7), np.arange(50, 5, -3),
                    np.array([4]), np.random.default_rng(3).permutation(100)):
            rl = RunList.from_dense(arr)
            assert rl.min() == arr.min()
            assert rl.max() == arr.max()

    def test_min_max_empty_raise(self):
        with pytest.raises(ValueError):
            RunList.empty().min()
        with pytest.raises(ValueError):
            RunList.empty().max()

    def test_copy_is_writable_and_detached(self):
        rl = RunList.from_dense(np.arange(10))
        c = rl.copy()
        c[0] = 99
        assert rl.dense()[0] == 0

    def test_immutable(self):
        rl = RunList.from_dense(np.arange(10))
        with pytest.raises(TypeError):
            rl[0] = 5  # no __setitem__
        with pytest.raises(ValueError):
            rl.dense()[0] = 5  # expansion is read-only
        with pytest.raises(ValueError):
            rl.runs[0, 0] = 5  # run table is read-only

    def test_numpy_interop(self):
        a = RunList.from_dense(np.arange(8))
        b = RunList.from_dense(np.arange(8, 16))
        np.testing.assert_array_equal(np.concatenate([a, b]), np.arange(16))
        data = np.arange(100.0)
        np.testing.assert_array_equal(data[np.asarray(a)], np.arange(8.0))


class TestStructuralOps:
    def test_reverse(self):
        for arr in _cases().values():
            rl = RunList.from_dense(arr)
            np.testing.assert_array_equal(rl.reverse().dense(), arr[::-1])
            assert len(rl.reverse()) == len(arr)

    def test_concat_compressed_stays_in_run_space(self):
        a = RunList.from_dense(np.arange(0, 100, 2))
        b = RunList.from_dense(np.arange(1000, 1100))
        cat = RunList.concat([a, b])
        assert cat.is_compressed and cat.nruns <= a.nruns + b.nruns
        np.testing.assert_array_equal(
            cat.dense(), np.concatenate([np.arange(0, 100, 2), np.arange(1000, 1100)])
        )

    def test_concat_mixed_and_empty(self):
        assert len(RunList.concat([])) == 0
        rng = np.random.default_rng(5)
        parts = [np.arange(10), rng.permutation(200), np.zeros(0, dtype=np.int64)]
        cat = RunList.concat([RunList.from_dense(p) for p in parts])
        np.testing.assert_array_equal(cat.dense(), np.concatenate(parts))

    def test_from_runs(self):
        rl = RunList.from_runs([(0, 1, 5), (100, -2, 3)])
        np.testing.assert_array_equal(rl.dense(), [0, 1, 2, 3, 4, 100, 98, 96])
        with pytest.raises(ValueError):
            RunList.from_runs([(0, 1, 0)])

    def test_group_by_runs(self):
        keys = np.array([1, 0, 1, 0, 1, 0])
        values = np.array([10, 20, 11, 21, 12, 22])
        groups = group_by_runs(keys, values)
        np.testing.assert_array_equal(groups[0].dense(), [20, 21, 22])
        np.testing.assert_array_equal(groups[1].dense(), [10, 11, 12])
        assert all(isinstance(g, RunList) for g in groups.values())
        assert group_by_runs(np.zeros(0, dtype=int), np.zeros(0, dtype=int)) == {}


class TestExecutorFastPaths:
    @pytest.mark.parametrize("name,arr", _cases().items(), ids=_cases().keys())
    def test_gather_matches_fancy_indexing(self, name, arr):
        data = np.random.default_rng(9).random(max(int(arr.max()) + 1 if len(arr) else 1, 1))
        rl = RunList.from_dense(arr)
        np.testing.assert_array_equal(compile_offsets(rl).gather(data), data[arr])

    @pytest.mark.parametrize("name,arr", _cases().items(), ids=_cases().keys())
    def test_scatter_matches_fancy_indexing(self, name, arr):
        n = max(int(arr.max()) + 1 if len(arr) else 1, 1)
        values = np.random.default_rng(10).random(len(arr))
        expect = np.zeros(n)
        expect[arr] = values
        got = np.zeros(n)
        compile_offsets(RunList.from_dense(arr)).scatter(got, values)
        np.testing.assert_array_equal(got, expect)

    def test_grid_fast_path_matches_fancy_indexing(self):
        """Rows-with-gap offsets: greedy brackets each row jump with a
        singleton; the executor's canonical table merges them back and the
        uniform grid executes as one strided-view copy."""
        rows, width, pitch = 64, 31, 40
        arr = np.concatenate([r * pitch + np.arange(width) for r in range(rows)])
        rl = RunList.from_dense(arr)
        # Wire accounting keeps the greedy count; execution canonicalizes.
        assert rl.nruns == count_runs(arr) == 2 * rows - 1
        assert len(rl._exec_runs()) == rows
        prog = compile_offsets(rl)
        assert prog.kind == "grid"
        assert prog.grids.tolist() == [[0, pitch, 1, rows, width]]
        data = np.random.default_rng(13).random(rows * pitch)
        np.testing.assert_array_equal(prog.gather(data), data[arr])
        vals = np.random.default_rng(14).random(len(arr))
        expect = np.zeros(rows * pitch)
        expect[arr] = vals
        got = np.zeros(rows * pitch)
        prog.scatter(got, vals)
        np.testing.assert_array_equal(got, expect)

    def test_grid_strided_columns(self):
        """Grid with strided (step > 1) runs also collapses to one view."""
        arr = np.concatenate([r * 100 + np.arange(0, 30, 3) for r in range(1, 20)])
        rl = RunList.from_dense(arr)
        prog = compile_offsets(rl)
        assert prog.kind == "grid"
        assert prog.grids.tolist() == [[100, 100, 3, 19, 10]]
        data = np.random.default_rng(15).random(2000)
        np.testing.assert_array_equal(prog.gather(data), data[arr])
        got = np.zeros(2000)
        vals = np.arange(float(len(arr)))
        got2 = np.zeros(2000)
        got2[arr] = vals
        prog.scatter(got, vals)
        np.testing.assert_array_equal(got, got2)

    def test_interleaved_grid_scatter_falls_back(self):
        """Rows that interleave (rowstep < count*step) must not take the
        vectorized store; the per-run loop handles them correctly."""
        arr = np.concatenate([r + np.arange(0, 40, 4) for r in range(4)])
        assert len(np.unique(arr)) == len(arr)
        rl = RunList.from_dense(arr)
        prog = compile_offsets(rl)
        assert prog.kind == "grid" and not prog.scatter_safe
        (_, rowstep, step, _, count), = prog.grids.tolist()
        assert rowstep < count * step  # interleaved
        vals = np.random.default_rng(16).random(len(arr))
        expect = np.zeros(60)
        expect[arr] = vals
        got = np.zeros(60)
        prog.scatter(got, vals)
        np.testing.assert_array_equal(got, expect)

    def test_canonicalization_is_internal_only(self):
        """dense()/nruns/runs are untouched by executor canonicalization."""
        arr = np.concatenate([r * 50 + np.arange(20) for r in range(10)])
        rl = RunList.from_dense(arr)
        before = rl.runs.copy()
        compile_offsets(rl).gather(np.zeros(500))  # forces _exec_runs
        np.testing.assert_array_equal(rl.runs, before)
        assert rl.nruns == count_runs(arr)
        np.testing.assert_array_equal(rl.dense(), arr)

    def test_constant_run_gather_scatter(self):
        rl = RunList.from_dense(np.full(6, 2))
        data = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(compile_offsets(rl).gather(data), np.full(6, 2.0))
        out = np.zeros(4)
        compile_offsets(rl).scatter(out, np.arange(6.0))
        assert out[2] == 5.0  # last write wins, like data[offs] = values


@given(st.lists(st.integers(0, 500), min_size=0, max_size=300))
def test_property_roundtrip_and_counts(values):
    arr = np.array(values, dtype=np.int64)
    rl = RunList.from_dense(arr)
    np.testing.assert_array_equal(rl.dense(), arr)
    assert rl.nruns == count_runs(arr)
    assert len(rl) == len(arr)
    np.testing.assert_array_equal(rl.reverse().dense(), arr[::-1])


@given(st.lists(st.integers(0, 200), min_size=1, max_size=200))
def test_property_gather_scatter_equivalence(values):
    arr = np.array(values, dtype=np.int64)
    rl = RunList.from_dense(arr)
    data = np.arange(201, dtype=float) * 1.5
    np.testing.assert_array_equal(compile_offsets(rl).gather(data), data[arr])
    vals = np.random.default_rng(0).random(len(arr))
    a = np.zeros(201)
    b = np.zeros(201)
    a[arr] = vals
    compile_offsets(rl).scatter(b, vals)
    np.testing.assert_array_equal(a, b)


@given(
    start=st.integers(-1000, 1000),
    step=st.integers(-50, 50),
    n=st.integers(1, 200),
)
def test_property_progressions_compress_to_one_run(start, step, n):
    arr = start + step * np.arange(n, dtype=np.int64)
    rl = RunList.from_dense(arr)
    assert rl.nruns == 1
    assert rl.is_compressed
    np.testing.assert_array_equal(rl.dense(), arr)
