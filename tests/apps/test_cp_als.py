"""Sparse CP-ALS over one-sided containers vs the serial NumPy oracle."""

import numpy as np
import pytest

from repro.apps import cp_als
from repro.apps.cp_als import cp_als_serial, cp_als_spmd, sparse_entries
from repro.vmachine import VirtualMachine
from repro.vmachine.window import Window, fence

SHAPE = (12, 11, 10)
R = 3
NNZ = 200
ITERS = 3
SEED = 7


def run(nprocs, **kwargs):
    def spmd(comm):
        return cp_als_spmd(comm, shape=SHAPE, R=R, nnz=NNZ, iters=ITERS,
                           seed=SEED, **kwargs)

    return VirtualMachine(nprocs, recv_timeout_s=60.0).run(spmd)


@pytest.fixture(scope="module")
def oracle():
    return cp_als_serial(SHAPE, R, NNZ, ITERS, SEED)


class TestOracleMatch:
    @pytest.mark.parametrize("nprocs", [4, 8, 16])
    def test_accumulate_variant_matches(self, oracle, nprocs):
        res = run(nprocs)
        for r in range(nprocs):
            out = res.values[r]
            assert len(out.factors) == 3
            for mode in range(3):
                np.testing.assert_allclose(
                    out.factors[mode], oracle[mode], rtol=1e-10, atol=1e-12)

    def test_queue_variant_matches(self, oracle):
        res = run(4, use_queue=True)
        for mode in range(3):
            np.testing.assert_allclose(
                res.values[0].factors[mode], oracle[mode],
                rtol=1e-10, atol=1e-12)

    def test_assembly_partitions_all_nonzeros(self):
        res = run(4)
        coords, _ = sparse_entries(SHAPE, NNZ, SEED)
        keys = set(
            (int(c[0]) * SHAPE[1] + int(c[1])) * SHAPE[2] + int(c[2])
            for c in coords)
        assert sum(v.local_nnz for v in res.values) == len(keys)

    def test_one_sided_traffic_is_accounted(self):
        res = run(4)
        stats = res.values[0].stats
        total = lambda k: sum(v.stats.get(k, 0) for v in res.values)
        assert total("rma_gets") > 0
        assert total("rma_accs") > 0
        assert total("rma_bytes_got") > 0
        assert total("hashmap_writes") > 0
        assert stats["rma_fences"] > 0

    def test_deterministic_across_runs(self):
        a = run(4)
        b = run(4)
        for mode in range(3):
            assert (a.values[0].factors[mode].tobytes()
                    == b.values[0].factors[mode].tobytes())
        assert a.clocks == b.clocks

    def test_queue_and_accumulate_agree_closely(self):
        acc = run(4)
        que = run(4, use_queue=True)
        for mode in range(3):
            np.testing.assert_allclose(
                acc.values[0].factors[mode], que.values[0].factors[mode],
                rtol=1e-10, atol=1e-12)


class TestSweepTraffic:
    """What a sweep puts on the wire: only the factor that changed, and
    one op per run of consecutive rows on one owner."""

    def test_a_mode_fetches_only_the_factor_solved_before_it(self, monkeypatch):
        calls: dict[int, list[tuple[int, ...]]] = {}

        def spy(*windows):
            calls.setdefault(windows[0].comm.rank, []).append(
                tuple(w._wid for w in windows))
            return fence(*windows)

        monkeypatch.setattr(cp_als, "fence", spy)
        run(4)
        assert len(calls) == 4 and all(c == calls[0] for c in calls.values())
        # the factor windows are registered in factor order
        base = calls[0][0][0] - 1
        fetched = [tuple(wid - base for wid in c) for c in calls[0]]
        assert fetched == [(1, 2)] + [((step - 1) % 3,)
                                      for step in range(1, 3 * ITERS)]

    def test_one_op_per_run(self, monkeypatch):
        ops = []

        def spy(name, count):
            original = getattr(Window, name)

            def wrapped(self, target, *args, **kw):
                proc = self.comm.process
                if "cp_als:iterate" in proc.phase_path:
                    start, n = count(self, target, *args, **kw)
                    ops.append(((proc.rank, self._wid, self.epoch, target),
                                start, n))
                return original(self, target, *args, **kw)

            monkeypatch.setattr(Window, name, wrapped)

        spy("get", lambda w, t, start=0, count=None: (start, count))
        spy("accumulate",
            lambda w, t, data, start=0, op="sum": (start, np.size(data)))
        res = run(4)
        assert {n for _, _, n in ops} - {R}, "no run spans two rows"
        ranges: dict[tuple, list[tuple[int, int]]] = {}
        for key, start, n in ops:
            ranges.setdefault(key, []).append((start, start + n))
        for key, spans in ranges.items():
            ends = {end for _, end in spans}
            assert not any(start in ends for start, _ in spans), key
        for mode in range(3):
            for r in range(1, 4):
                assert (res.values[r].factors[mode].tobytes()
                        == res.values[0].factors[mode].tobytes())

    def test_ranks_without_nonzeros_still_match_the_oracle(self):
        nnz = 5
        res = VirtualMachine(8, recv_timeout_s=60.0).run(
            lambda comm: cp_als_spmd(comm, shape=SHAPE, R=R, nnz=nnz,
                                     iters=ITERS, seed=SEED))
        assert any(v.local_nnz == 0 for v in res.values)
        expect = cp_als_serial(SHAPE, R, nnz, ITERS, SEED)
        for out in res.values:
            for mode in range(3):
                np.testing.assert_allclose(
                    out.factors[mode], expect[mode], rtol=1e-10, atol=1e-12)

    def test_mttkrp_sums_each_row_in_nonzero_order(self):
        """The sweep's ``np.add.at`` MTTKRP equals, byte for byte, the
        per-nonzero loop it replaced: each target row sums its nonzeros'
        ``v * (a * b)`` in nonzero order."""
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 6, size=(300, 3))
        vals = rng.standard_normal(300)
        rows = [rng.standard_normal((6, R)) for _ in range(3)]
        mode, a, b = 1, 0, 2
        loop: dict[int, np.ndarray] = {}
        for i3, v in zip(coords, vals):
            t = int(i3[mode])
            contrib = v * (rows[a][int(i3[a])] * rows[b][int(i3[b])])
            loop[t] = loop[t] + contrib if t in loop else contrib
        part = np.zeros((6, R))
        np.add.at(part, coords[:, mode], vals[:, None] * (
            rows[a][coords[:, a]] * rows[b][coords[:, b]]))
        for t, row in loop.items():
            assert part[t].tobytes() == row.tobytes()
