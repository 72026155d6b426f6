"""Translation-table tests (replicated and paged)."""

import numpy as np
import pytest

from repro.chaos import ChaosArray, PagedTranslationTable, TranslationTable
from repro.distrib.cartesian import BLOCK, cartesian_dist

from helpers import run_spmd

OWNERS = np.random.default_rng(12).integers(0, 4, 64)


class TestReplicatedTable:
    def test_dereference_matches_dist(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            g = np.arange(64)
            r, o = t.dereference(g)
            r2, o2 = t.dist.owner_of_flat(g)
            return bool((r == r2).all() and (o == o2).all())

        assert all(run_spmd(4, spmd).values)

    def test_dereference_charges_per_element(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            t0 = comm.process.clock
            t.dereference(np.arange(64))
            per_elem = (comm.process.clock - t0) / 64
            return per_elem

        per_elem = run_spmd(2, spmd).values[0]
        assert per_elem == pytest.approx(30e-6)  # IBM_SP2 deref

    def test_memory_footprint_is_data_sized(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            return t.nbytes

        assert run_spmd(2, spmd).values[0] == 16 * 64

    def test_local_indices_partition(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            return t.local_indices(comm.rank)

        res = run_spmd(4, spmd)
        allidx = np.concatenate(res.values)
        assert sorted(allidx.tolist()) == list(range(64))

    def test_from_distribution_pointwise_wraps_regular(self):
        """The Table 2 baseline step: wrapping a regular mesh costs O(n)."""

        def spmd(comm):
            dist = cartesian_dist((8, 8), ((BLOCK, 0),) * 2, comm.size)
            t0 = comm.process.clock
            t = TranslationTable.from_distribution(dist, 64)
            cost = comm.process.clock - t0
            r1, _ = t.dist.owner_of_flat(np.arange(64))
            r2, _ = dist.owner_of_flat(np.arange(64))
            return bool((r1 == r2).all()) and cost > 0

        assert all(run_spmd(4, spmd).values)


class TestPagedTable:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_collective_dereference_matches_replicated(self, nprocs):
        def spmd(comm):
            owners = OWNERS % comm.size
            replicated = TranslationTable.from_owners(owners, comm.size)
            paged = PagedTranslationTable(comm, owners)
            # every rank queries a different, overlapping slice
            q = np.arange(64)[comm.rank::2] if comm.size > 1 else np.arange(64)
            r1, o1 = paged.dereference(q)
            r2, o2 = replicated.dist.owner_of_flat(q)
            return bool((r1 == r2).all() and (o1 == o2).all())

        assert all(run_spmd(nprocs, spmd).values)

    def test_memory_scales_down(self):
        def spmd(comm):
            paged = PagedTranslationTable(comm, OWNERS % comm.size)
            return paged.nbytes

        res = run_spmd(4, spmd)
        assert all(v <= 16 * 64 / 4 + 16 for v in res.values)

    def test_dereference_requires_communication(self):
        def spmd(comm):
            paged = PagedTranslationTable(comm, OWNERS % comm.size)
            comm.barrier()
            before = comm.process.stats["messages_sent"]
            paged.dereference(np.arange(64))
            return comm.process.stats["messages_sent"] - before

        res = run_spmd(4, spmd)
        assert sum(res.values) > 0

    def test_local_sizes_match(self):
        def spmd(comm):
            owners = OWNERS % comm.size
            paged = PagedTranslationTable(comm, owners)
            expected = int(np.sum(owners == comm.rank))
            return paged.local_size(comm.rank) == expected

        assert all(run_spmd(4, spmd).values)
