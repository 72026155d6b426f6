"""Schedule-cache tests: request keys, and the request-keyed paths into
the store.  The store's own contract (LRU order, plans, counters) is in
``test_store_contract.py``, run against this class's store too."""

import gc
import weakref

import numpy as np

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    IndexRegion,
    ScheduleCache,
    ScheduleMethod,
    SectionRegion,
    mc_copy,
    mc_new_set_of_regions,
    region_key,
    sor_key,
)
from repro.distrib.section import Section

from helpers import run_spmd

N = 36
PERM = np.random.default_rng(90).permutation(N)


def _sors():
    src = mc_new_set_of_regions(SectionRegion(Section.full((6, 6))))
    dst = mc_new_set_of_regions(IndexRegion(PERM))
    return src, dst


class TestKeys:
    def test_section_key_is_content(self):
        a = SectionRegion(Section((0, 0), (4, 4), (1, 1)))
        b = SectionRegion(Section((0, 0), (4, 4), (1, 1)))
        c = SectionRegion(Section((0, 0), (4, 4), (1, 1)), order="F")
        assert region_key(a) == region_key(b)
        assert region_key(a) != region_key(c)

    def test_index_key_is_content(self):
        a = IndexRegion(np.array([3, 1, 2]))
        b = IndexRegion(np.array([3, 1, 2]))
        c = IndexRegion(np.array([1, 3, 2]))
        assert region_key(a) == region_key(b)
        assert region_key(a) != region_key(c)

    def test_sor_key_ordered(self):
        r1, r2 = IndexRegion(np.arange(3)), IndexRegion(np.arange(4))
        from repro.core import SetOfRegions

        assert sor_key(SetOfRegions([r1, r2])) != sor_key(SetOfRegions([r2, r1]))


class TestCache:
    def test_hit_skips_rebuild(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (6, 6))
            B = ChaosArray.zeros(comm, PERM % comm.size)
            cache = ScheduleCache(comm)
            src, dst = _sors()
            s1 = cache.get_or_build("blockparti", A, src, "chaos", B, dst)
            t0 = comm.process.clock
            m0 = comm.process.stats["messages_sent"]
            # Equivalent request, new region objects: must hit.
            src2, dst2 = _sors()
            s2 = cache.get_or_build("blockparti", A, src2, "chaos", B, dst2)
            assert s2 is s1
            assert comm.process.stats["messages_sent"] == m0  # no collective
            assert cache.hits == 1 and cache.misses == 1
            snap = cache.snapshot()
            assert snap["schedule_hits"] == 1
            assert snap["schedule_misses"] == 1
            assert snap["schedule_entries"] == 1
            return comm.process.clock - t0

        elapsed = run_spmd(4, spmd).values[0]
        assert elapsed < 1e-3  # key hashing only

    def test_distinct_requests_miss(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (6, 6))
            B = ChaosArray.zeros(comm, PERM % comm.size)
            cache = ScheduleCache(comm)
            src, dst = _sors()
            cache.get_or_build("blockparti", A, src, "chaos", B, dst)
            cache.get_or_build(
                "blockparti", A, src, "chaos", B, dst,
                ScheduleMethod.DUPLICATION,
            )
            other_dst = mc_new_set_of_regions(IndexRegion(np.arange(N)))
            cache.get_or_build("blockparti", A, src, "chaos", B, other_dst)
            return (cache.misses, len(cache))

        misses, size = run_spmd(2, spmd).values[0]
        assert misses == 3 and size == 3

    def test_cached_schedule_still_copies_correctly(self):
        values = np.random.default_rng(91).random((6, 6))

        def spmd(comm):
            A = BlockPartiArray.from_global(comm, values)
            B = ChaosArray.zeros(comm, PERM % comm.size)
            cache = ScheduleCache(comm)
            for _ in range(3):
                src, dst = _sors()
                sched = cache.get_or_build("blockparti", A, src, "chaos", B, dst)
                mc_copy(comm, sched, A, B)
            return B.gather_global()

        got = run_spmd(3, spmd).values[0]
        expected = np.zeros(N)
        expected[PERM] = values.ravel()
        np.testing.assert_allclose(got, expected)

    def test_different_distributions_key_apart(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (6, 6))
            B1 = ChaosArray.zeros(comm, PERM % comm.size)
            B2 = ChaosArray.zeros(comm, (PERM + 1) % comm.size)
            cache = ScheduleCache(comm)
            src, dst = _sors()
            cache.get_or_build("blockparti", A, src, "chaos", B1, dst)
            src2, dst2 = _sors()
            cache.get_or_build("blockparti", A, src2, "chaos", B2, dst2)
            return cache.misses

        assert run_spmd(2, spmd).values[0] == 2


class TestBoundedLRU:
    def _nth_dst(self, n):
        return mc_new_set_of_regions(IndexRegion(np.roll(np.arange(N), n)))

    def test_cached_schedules_are_compact(self):
        """The cache stores run-compressed schedules: a cached regular
        section move costs KBs per rank, not MBs."""
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (64, 64))
            B = BlockPartiArray.zeros(comm, (64, 64))
            src = mc_new_set_of_regions(
                SectionRegion(Section((0, 0), (31, 63), (1, 1)))
            )
            dst = mc_new_set_of_regions(
                SectionRegion(Section((32, 0), (63, 63), (1, 1)))
            )
            cache = ScheduleCache(comm)
            sched = cache.get_or_build("blockparti", A, src, "blockparti", B, dst)
            return sched.nbytes_memory, sched.nbytes_dense

        for mem, dense in run_spmd(4, spmd).values:
            assert dense == 0 or mem < dense / 5

    def test_eviction_is_rank_deterministic(self):
        def spmd(comm):
            A = BlockPartiArray.zeros(comm, (6, 6))
            B = ChaosArray.zeros(comm, PERM % comm.size)
            src, _ = _sors()
            cache = ScheduleCache(comm, maxsize=3)
            for n in [0, 1, 2, 0, 3, 1, 4]:
                cache.get_or_build("blockparti", A, src, "chaos", B, self._nth_dst(n))
            return cache.hits, cache.misses, cache.evictions

        res = run_spmd(4, spmd)
        assert set(res.values) == {(1, 6, 3)}  # on every rank alike


class TestPlanCache:
    """get_or_build_plan: members resolve through the store; one member's
    plan is memoised on its schedule, several members' is assembled from
    their memoised rows and kept by no one."""

    def _nth_dst(self, n):
        return mc_new_set_of_regions(IndexRegion(np.roll(np.arange(N), n)))

    def _requests(self, comm, ns):
        A = BlockPartiArray.zeros(comm, (6, 6))
        src, _ = _sors()
        reqs = []
        for n in ns:
            B = ChaosArray.zeros(comm, np.roll(PERM, n) % comm.size)
            reqs.append(("blockparti", A, src, "chaos", B, self._nth_dst(n)))
        return reqs

    def test_plan_hit_reuses_compiled_plan(self):
        def spmd(comm):
            cache = ScheduleCache(comm)
            reqs = self._requests(comm, [0, 1])
            p1 = cache.get_or_build_plan(reqs[:1])
            assert cache.get_or_build_plan(reqs[:1]) is p1
            # Two requests: assembled, over the same memoised schedule.
            fused = cache.get_or_build_plan(reqs)
            assert fused.schedules[0] is p1.schedules[0]
            return (cache.plan_hits, cache.plan_misses, cache.misses,
                    fused.nschedules)

        assert run_spmd(2, spmd).values[0] == (1, 2, 2, 2)

    def test_plan_warms_schedule_store(self):
        def spmd(comm):
            cache = ScheduleCache(comm)
            reqs = self._requests(comm, [0, 1])
            plan = cache.get_or_build_plan(reqs)
            # Single-schedule requests now hit the store the plan warmed.
            s0 = cache.get_or_build(*reqs[0])
            assert plan.schedules[0] is s0
            return cache.hits, cache.misses

        assert run_spmd(2, spmd).values[0] == (1, 2)

    def test_invalidated_plan_rebuilds_against_fresh_member(self):
        def spmd(comm):
            cache = ScheduleCache(comm, maxsize=2)
            reqs = self._requests(comm, [0, 1])
            p1 = cache.get_or_build_plan(reqs)
            for n in (2, 3):
                cache.get_or_build(*self._requests(comm, [n])[0])
            p2 = cache.get_or_build_plan(reqs)
            assert p2 is not p1
            # The recompiled plan holds the *rebuilt* members, not stale ones.
            assert p2.schedules[0] is cache.get_or_build(*reqs[0])
            return cache.plan_misses

        assert run_spmd(2, spmd).values[0] == 2

    def test_midbuild_eviction_never_caches_stale_plan(self):
        """Three members through a maxsize-2 store: inserting member 2
        evicts member 0 before the plan is assembled.  The caller still
        gets its plan, and the store keeps nothing of it, so no later
        request can hit a plan holding the evicted schedule."""
        def spmd(comm):
            cache = ScheduleCache(comm, maxsize=2)
            reqs = self._requests(comm, [0, 1, 2])
            plan = cache.get_or_build_plan(reqs)
            assert plan.nschedules == 3
            kept = weakref.ref(plan)
            del plan
            gc.collect()
            assert kept() is None
            # A repeat request rebuilds the evicted member, on every rank.
            plan2 = cache.get_or_build_plan(reqs)
            assert plan2.schedules[2] is cache.get_or_build(*reqs[2])
            return cache.snapshot()

        snaps = run_spmd(2, spmd).values
        assert snaps[0] == snaps[1]  # counters collective-deterministic

    def test_eviction_rebuild_then_plan_serves_fresh_members(self):
        """Evict a member, rebuild it under the same key, then request the
        plan: the plan must reference the rebuilt store objects."""
        def spmd(comm):
            cache = ScheduleCache(comm, maxsize=2)
            reqs = self._requests(comm, [0, 1])
            cache.get_or_build_plan(reqs)
            # Eviction: a third schedule pushes member 0 out...
            cache.get_or_build(*self._requests(comm, [2])[0])
            # ...rebuild: the same key re-enters the store as a new object.
            rebuilt = cache.get_or_build(*reqs[0])
            plan = cache.get_or_build_plan(reqs)
            assert plan.schedules[0] is rebuilt
            assert plan.schedules[1] is cache.get_or_build(*reqs[1])
            return True

        assert all(run_spmd(2, spmd).values)

    def test_cached_plan_executes_correctly(self):
        from repro.core import mc_copy_many

        def spmd(comm):
            A = BlockPartiArray.from_function(
                comm, (6, 6), lambda i, j: i * 6.0 + j
            )
            src, _ = _sors()
            B1 = ChaosArray.zeros(comm, PERM % comm.size)
            B2 = ChaosArray.zeros(comm, np.roll(PERM, 1) % comm.size)
            reqs = [
                ("blockparti", A, src, "chaos", B1, self._nth_dst(0)),
                ("blockparti", A, src, "chaos", B2, self._nth_dst(1)),
            ]
            cache = ScheduleCache(comm)
            for _ in range(3):
                plan = cache.get_or_build_plan(reqs)
                mc_copy_many(comm, plan, [A, A], [B1, B2])
            return B1.gather_global(), B2.gather_global(), cache.plan_misses

        values = run_spmd(2, spmd).values
        flat = np.arange(36, dtype=float)
        g1, g2, _ = values[0]  # gathers land on rank 0
        e1 = np.zeros(36)
        e1[np.roll(np.arange(N), 0)] = flat
        e2 = np.zeros(36)
        e2[np.roll(np.arange(N), 1)] = flat
        np.testing.assert_array_equal(g1, e1)
        np.testing.assert_array_equal(g2, e2)
        # assembled afresh on every request, on every rank
        assert all(v[2] == 3 for v in values)
