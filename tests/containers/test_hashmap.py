"""Distributed hash map: insert/accumulate/find semantics, duplicate
combining, probing under collisions, determinism, and fault tolerance."""

import numpy as np
import pytest

from repro.containers import DistHashMap
from repro.containers.hashmap import _slot_hash
from repro.vmachine import VirtualMachine
from repro.vmachine.comm import Communicator
from repro.vmachine.faults import FaultPlan, FaultRates
from repro.vmachine.machine import SPMDError


def run(nprocs, fn, *, faults=None, recv_timeout_s=30.0, **kwargs):
    vm = VirtualMachine(nprocs, faults=faults, recv_timeout_s=recv_timeout_s)
    return vm.run(fn, **kwargs)


def homed_on(rank, nprocs, cap, count):
    """The first ``count`` keys whose home is ``rank`` in a map of
    ``nprocs`` ranks with ``cap`` slots each, and their home slots."""
    keys, slots = [], []
    for key in range(10_000):
        s = _slot_hash(key) % (nprocs * cap)
        if s // cap == rank:
            keys.append(key)
            slots.append(s % cap)
            if len(keys) == count:
                return keys, slots
    raise AssertionError("not enough keys")


class TestInsertFind:
    def test_insert_then_find_roundtrip(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=16, value_width=2)
            mine = [(comm.rank * 10 + i, [float(comm.rank), float(i)])
                    for i in range(4)]
            m.insert_all(mine)
            # Every rank looks up every key anyone inserted.
            all_keys = [r * 10 + i for r in range(comm.size)
                        for i in range(4)]
            found = m.find_all(all_keys)
            return found

        res = run(4, spmd)
        for found in res.values:
            for r in range(4):
                for i in range(4):
                    np.testing.assert_array_equal(
                        found[r * 10 + i], [float(r), float(i)])

    def test_find_missing_returns_none(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=8)
            m.insert_all([(comm.rank, [1.0])])
            found = m.find_all([comm.rank, 999 + comm.rank])
            return found

        res = run(2, spmd)
        for r, found in enumerate(res.values):
            assert found[999 + r] is None
            np.testing.assert_array_equal(found[r], [1.0])

    def test_insert_overwrites(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=8)
            m.insert_all([(5, [float(comm.rank + 1)])])
            m.insert_all([] if comm.rank else [(5, [42.0])])
            return m.find_all([5])[5]

        res = run(2, spmd)
        for v in res.values:
            np.testing.assert_array_equal(v, [42.0])

    def test_global_size(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=16)
            m.insert_all([(comm.rank * 2, [0.0]), (comm.rank * 2 + 1, [0.0])])
            return m.size(), m.local_size()

        res = run(4, spmd)
        assert all(v[0] == 8 for v in res.values)
        assert sum(v[1] for v in res.values) == 8

    def test_rejects_negative_keys_and_bad_shapes(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4, value_width=2)
            with pytest.raises(ValueError):
                m._write_all([(-1, [0.0, 0.0])], op="sum")
            with pytest.raises(ValueError):
                np.asarray([1.0], dtype=np.float64).reshape(2)
            return True

        assert all(run(2, spmd).values)

    def test_rejects_a_key_the_keys_window_cannot_hold(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4)
            with pytest.raises(ValueError, match=str(2**63)):
                m.insert_all([(2**63, [0.0])])
            m.insert_all([(2**63 - 1, [1.0])])  # the largest that fits
            return m.find_all([2**63 - 1])[2**63 - 1]

        for found in run(2, spmd).values:
            np.testing.assert_array_equal(found, [1.0])

    def test_slot_hash_is_the_uint64_splitmix_step(self):
        def numpy_hash(key):
            with np.errstate(over="ignore"):
                h = np.uint64(key) * np.uint64(0x9E3779B97F4A7C15)
            return int(h ^ (h >> np.uint64(31)))

        rng = np.random.default_rng(5)
        keys = [0, 1, 2**31, 2**32 - 1, 2**62, 2**63 - 1,
                *rng.integers(0, 2**63, size=500, dtype=np.int64).tolist()]
        assert [_slot_hash(k) for k in keys] == [numpy_hash(k) for k in keys]


class TestAccumulate:
    def test_duplicates_within_and_across_ranks_sum(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=16)
            # Same key from every rank, twice per rank.
            m.accumulate_all([(7, [1.0]), (7, [2.0]),
                              (comm.rank + 100, [0.5])])
            return m.find_all([7])[7]

        res = run(4, spmd)
        for v in res.values:
            np.testing.assert_array_equal(v, [12.0])  # 4 ranks * (1+2)

    def test_accumulate_into_existing_key(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=8, value_width=3)
            m.insert_all([(3, [1.0, 1.0, 1.0])] if comm.rank == 0 else [])
            m.accumulate_all([(3, [0.0, 1.0, 2.0])])
            return m.find_all([3])[3]

        res = run(2, spmd)
        np.testing.assert_array_equal(res.values[0], [1.0, 3.0, 5.0])

    def test_local_items_partition_entries(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=16)
            if comm.rank == 0:
                m.accumulate_all([(k, [float(k)]) for k in range(10)])
            else:
                m.accumulate_all([])
            return m.local_items()

        res = run(4, spmd)
        merged = {}
        for items in res.values:
            for key, vec in items:
                assert key not in merged  # ownership is disjoint
                merged[key] = vec
        assert sorted(merged) == list(range(10))
        for k, v in merged.items():
            np.testing.assert_array_equal(v, [float(k)])


class TestCollisionsAndLimits:
    def test_probing_resolves_collisions_in_tiny_table(self):
        # Rank 0's block of 4 slots takes 4 keys homed on it, two of them
        # on one home slot: every slot fills, probing must resolve.
        keys, slots = homed_on(0, 2, 4, 4)
        assert len(set(slots)) < len(slots)

        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4)
            m.insert_all([(k, [float(k * k)]) for k in keys[comm.rank::2]])
            return m.find_all(keys), m.local_size()

        res = run(2, spmd)
        for found, _ in res.values:
            for k in keys:
                np.testing.assert_array_equal(found[k], [float(k * k)])
        assert [n for _, n in res.values] == [4, 0]

    def test_a_full_home_rank_raises_after_the_fence(self):
        # Rank 1 of 3 is home to 5 keys, one more than its block holds,
        # sent from two origins whose runs fit or from one whose run does
        # not; ranks 0 and 2 have room.  Only rank 1 raises, after the
        # fence: every other rank returns.
        keys, _ = homed_on(1, 3, 4, 5)
        spare = [homed_on(r, 3, 4, 1)[0][0] for r in (0, 2)]
        for split in ({0: keys[:3], 2: keys[3:]}, {0: keys}):
            def spmd(comm):
                m = DistHashMap(comm, capacity_per_rank=4)
                m.insert_all([(k, [1.0])
                               for k in split.get(comm.rank, []) + spare])
                return m.local_size()

            with pytest.raises(SPMDError) as info:
                run(3, spmd, recv_timeout_s=5.0)
            [error] = info.value.errors
            assert error.rank == 1
            assert str(error.exception) == (
                "DistHashMap is full: rank 1 is home to more than 4 keys")

    def test_a_lookup_probes_at_most_its_home_block(self):
        # A missing key homed on a full block: one get round per slot of
        # the block, then the fence nobody looked up in.
        keys, _ = homed_on(0, 2, 4, 5)

        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4)
            m.insert_all([(k, [1.0]) for k in keys[:4]] if comm.rank else [])
            before = comm.process.stats["rma_fences"]
            found = m.find_all([keys[4]] if comm.rank else [])
            return found, comm.process.stats["rma_fences"] - before

        res = run(2, spmd)
        assert res.values == [({}, 5), ({keys[4]: None}, 5)]

    def test_overfull_table_raises(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=2)
            m.insert_all([(k, [0.0]) for k in range(5)]
                         if comm.rank == 0 else [])

        with pytest.raises(SPMDError):
            run(2, spmd)


class TestRoundsEndOnAFence:
    """A write is exactly one fence; a lookup's round loop ends at the
    first fence nobody issued in — the fence reports it.  Neither runs a
    collective of its own."""

    @staticmethod
    def _fences(comm, body):
        before = comm.process.stats.get("rma_fences", 0)
        body()
        return comm.process.stats.get("rma_fences", 0) - before

    def test_writes_and_finds_make_no_allreduce(self, monkeypatch):
        calls = []
        original = Communicator.allreduce

        def spy(self, value, op):
            calls.append(self.rank)
            return original(self, value, op)

        monkeypatch.setattr(Communicator, "allreduce", spy)

        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=8)
            m.accumulate_all([(k, [1.0]) for k in range(comm.rank, 8, 2)])
            return m.find_all(range(10))

        res = run(2, spmd)
        assert calls == []
        for found in res.values:
            assert [found[k][0] for k in range(8)] == [1.0] * 8
            assert found[8] is None and found[9] is None

    def test_a_write_is_one_fence(self):
        keys, _ = homed_on(0, 2, 4, 4)

        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4)
            # a full block, from both origins: no probe rounds on the wire
            return self._fences(comm, lambda: m.insert_all(
                [(k, [float(k)]) for k in keys[comm.rank::2]]))

        assert run(2, spmd).values == [1, 1]

    def test_an_all_empty_write_is_one_fence_and_no_round(self):
        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=4)
            return self._fences(comm, lambda: m.accumulate_all([]))

        assert run(3, spmd).values == [1] * 3


class TestDeterminismAndFaults:
    def test_same_seed_same_clocks_and_content(self):
        def spmd(comm):
            rng = np.random.default_rng(comm.rank)
            m = DistHashMap(comm, capacity_per_rank=32)
            m.accumulate_all([(int(k), [rng.standard_normal()])
                              for k in rng.integers(0, 50, size=12)])
            items = sorted((k, v.tobytes()) for k, v in m.local_items())
            return items, comm.process.clock

        a = run(4, spmd)
        b = run(4, spmd)
        assert a.values == b.values
        assert a.clocks == b.clocks

    def test_reliable_map_survives_rma_chaos(self):
        plan = FaultPlan(
            seed=23,
            rates=FaultRates(drop=0.15, dup=0.15, reorder=0.15),
            classes=("rma",),
        )

        def spmd(comm):
            m = DistHashMap(comm, capacity_per_rank=16, reliable=True)
            m.accumulate_all([(k, [1.0]) for k in range(comm.rank,
                                                        comm.rank + 4)])
            found = m.find_all(list(range(8)))
            return found, dict(comm.process.stats)

        res = run(4, spmd, faults=plan)
        # keys 0..6 overlap across ranks; expected multiplicity:
        expect = {k: sum(1 for r in range(4) if r <= k <= r + 3)
                  for k in range(8)}
        dropped = 0
        for found, stats in res.values:
            for k, n in expect.items():
                if n == 0:
                    assert found[k] is None
                else:
                    np.testing.assert_array_equal(found[k], [float(n)])
            dropped += stats.get("faults_drop", 0)
        assert dropped > 0
