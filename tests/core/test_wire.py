"""Wire forms: a schedule piece (a RunList, sized by its greedy runs) and
the fused data message."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.runs import RunList


def nruns(values) -> int:
    return RunList.from_dense(np.asarray(values, dtype=np.int64)).nruns


class TestCountRuns:
    """The greedy run count a piece is charged by (``RunList.nruns``)."""

    def test_empty(self):
        assert nruns([]) == 0

    def test_singleton(self):
        assert nruns([5]) == 1

    def test_pair_always_one_run(self):
        assert nruns([5, 100]) == 1

    def test_arithmetic_progression(self):
        assert nruns(np.arange(0, 1000, 7)) == 1

    def test_constant(self):
        assert nruns(np.zeros(50, dtype=int)) == 1

    def test_two_blocks(self):
        arr = np.concatenate([np.arange(10), np.arange(100, 105)])
        assert nruns(arr) <= 3  # greedy may add one singleton

    def test_random_is_many_runs(self):
        rng = np.random.default_rng(0)
        arr = rng.permutation(1000)
        assert nruns(arr) > 300


class TestRunEncoded:
    """A schedule piece on the wire: ``nbytes == 16 + 24 * nruns``."""

    def test_regular_offsets_compress(self):
        piece = RunList.from_dense(np.arange(0, 100_000, 3))
        assert piece.nbytes == 16 + 24 * piece.nruns < 100  # vs 800 KB raw

    def test_irregular_offsets_stay_data_sized(self):
        rng = np.random.default_rng(1)
        piece = RunList.from_dense(rng.permutation(10_000))
        assert piece.nbytes == 16 + 24 * piece.nruns > 10_000

    def test_array_is_copied(self):
        src = np.arange(10)
        piece = RunList.from_dense(src)
        src[0] = 99
        assert piece.dense()[0] == 0

    def test_len(self):
        assert len(RunList.from_dense(np.arange(7))) == 7

    def test_blockwise_structure(self):
        # 100 rows of 50 contiguous offsets each, row stride 1000: the
        # optimal encoding is 100 runs; the greedy splitter may emit one
        # extra singleton per row jump (its documented 2x bound).
        rows = [np.arange(r * 1000, r * 1000 + 50) for r in range(100)]
        piece = RunList.from_dense(np.concatenate(rows))
        assert 100 <= piece.nruns <= 200
        assert piece.nbytes <= 16 + 24 * 200  # ~5 KB vs 40 KB raw


@given(st.lists(st.integers(-1000, 1000), min_size=0, max_size=200))
def test_property_runs_bounded_by_length(values):
    r = nruns(values)
    assert 0 <= r <= max(1, len(values))
    if len(values) >= 1:
        assert r >= 1


@given(
    start=st.integers(-100, 100),
    step=st.integers(-10, 10),
    n=st.integers(1, 100),
)
def test_property_progressions_are_one_run(start, step, n):
    assert nruns(start + step * np.arange(n)) == 1


class TestSegmentLayout:
    def _headers(self):
        from repro.core.wire import SegmentHeader

        return (
            SegmentHeader(0, "<f8", 5),   # 40 B -> padded 48
            SegmentHeader(1, "<f4", 3),   # 12 B -> padded 16
            SegmentHeader(2, "<i8", 2),   # 16 B -> padded 16
        )

    def test_offsets_are_aligned(self):
        from repro.core.wire import SEGMENT_ALIGN, WireLayout

        layout = WireLayout(self._headers())
        offsets = tuple(lo for lo, _, _ in layout.views)
        assert offsets == (0, 48, 64)
        assert layout.total == 80
        assert all(o % SEGMENT_ALIGN == 0 for o in offsets)

    def test_header_sizes(self):
        from repro.core.wire import SegmentHeader

        h = SegmentHeader(3, "<f4", 7)
        assert h.itemsize == 4
        assert h.data_nbytes == 28

    def test_empty_headers(self):
        from repro.core.wire import WireLayout

        layout = WireLayout(())
        assert layout.views == () and layout.total == 0


class TestFusedBuffer:
    def _fused(self):
        from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout

        headers = (SegmentHeader(0, "<f8", 4), SegmentHeader(1, "<f4", 6))
        data = np.zeros(WireLayout(headers).total, dtype=np.uint8)
        fused = FusedBuffer(headers, data)
        fused.segment(0)[:] = np.arange(4, dtype=np.float64)
        fused.segment(1)[:] = np.arange(6, dtype=np.float32) * 0.5
        return fused

    def test_segment_views_roundtrip(self):
        fused = self._fused()
        np.testing.assert_array_equal(fused.segment(0), np.arange(4.0))
        np.testing.assert_array_equal(
            fused.segment(1), np.arange(6, dtype=np.float32) * 0.5
        )
        assert fused.segment(0).dtype == np.float64
        assert fused.segment(1).dtype == np.float32

    def test_segments_are_views_not_copies(self):
        fused = self._fused()
        fused.segment(0)[0] = 99.0
        assert fused.segment(0)[0] == 99.0  # both reads hit shared bytes

    def test_nbytes_charges_headers_and_padding(self):
        from repro.core.wire import FUSED_HEADER_BYTES, SEGMENT_HEADER_BYTES

        fused = self._fused()
        # 32 B f8 payload -> 32 padded; 24 B f4 payload -> 32 padded.
        assert fused.nbytes == FUSED_HEADER_BYTES + 2 * SEGMENT_HEADER_BYTES + 64
        assert len(fused) == 10  # logical elements across segments

    def test_short_data_rejected(self):
        from repro.core.wire import FusedBuffer, SegmentHeader

        with pytest.raises(ValueError):
            FusedBuffer(
                (SegmentHeader(0, "<f8", 4),), np.zeros(8, dtype=np.uint8)
            )

    def test_deepcopy_severs_lease(self):
        import copy

        from repro.vmachine.message import PackArena

        arena = PackArena({})
        from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout

        headers = (SegmentHeader(0, "<f8", 2),)
        lease = arena.checkout(WireLayout(headers).total)
        fused = FusedBuffer(headers, lease.buffer, lease=lease)
        clone = copy.deepcopy(fused)
        clone.segment(0)[:] = 7.0
        clone.release()  # releases nothing: the copy owns private bytes
        assert arena.pooled_bytes == 0
        fused.release()
        assert arena.pooled_bytes > 0
        assert not np.shares_memory(clone.data, fused.data)

    def test_release_idempotent(self):
        from repro.vmachine.message import PackArena
        from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout

        arena = PackArena({})
        headers = (SegmentHeader(0, "<f4", 2),)
        lease = arena.checkout(WireLayout(headers).total)
        fused = FusedBuffer(headers, lease.buffer, lease=lease)
        fused.release()
        fused.release()
        assert arena.pooled_bytes == 256  # pooled exactly once
