"""Satellite: every caching layer reports through one ``cache_*``
namespace on the rank's MetricsRegistry (documented in
``repro.observe.metrics``)."""

import numpy as np

from repro.core import mc_new_set_of_regions
from repro.core.cache import ScheduleCache
from repro.core.region import SectionRegion
from repro.distrib.section import Section
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core.region import IndexRegion
from repro.vmachine import VirtualMachine


def _spmd_cached_copies(comm):
    n = 64
    perm = np.random.default_rng(0).permutation(n)
    cache = ScheduleCache(comm, maxsize=1)
    src = BlockPartiArray.from_global(comm, np.arange(n, dtype=float))
    dst = ChaosArray.zeros(comm, perm % comm.size)
    sor_s = mc_new_set_of_regions(SectionRegion(Section.full((n,))))
    sor_d = mc_new_set_of_regions(IndexRegion(perm))
    req = ("blockparti", src, sor_s, "chaos", dst, sor_d)
    cache.get_or_build(*req)          # miss
    cache.get_or_build(*req)          # hit
    cache.get_or_build_plan([req])    # plan miss (schedule hit)
    cache.get_or_build_plan([req])    # plan hit (schedule hit)
    # A different request evicts under maxsize=1.
    dst2 = ChaosArray.zeros(comm, (perm[::-1]) % comm.size)
    req2 = ("blockparti", src, sor_s, "chaos", dst2,
            mc_new_set_of_regions(IndexRegion(perm[::-1].copy())))
    cache.get_or_build(*req2)
    return dict(comm.process.metrics.counters)


class TestScheduleCacheMirror:
    def test_counters_surface_in_metrics(self):
        counters = VirtualMachine(2).run(_spmd_cached_copies).values[0]
        assert counters["cache_schedule_misses"] == 2
        assert counters["cache_schedule_hits"] == 3
        assert counters["cache_schedule_evictions"] == 1
        assert counters["cache_plan_misses"] == 1
        assert counters["cache_plan_hits"] == 1

    def test_attribute_counters_agree_with_mirror(self):
        def spmd(comm):
            _spmd_cached_copies(comm)
            return None

        VirtualMachine(2).run(spmd)  # just must not raise

    def test_outside_vm_is_silent(self):
        # Host-side construction: no current process, no mirror, no error.
        cache = ScheduleCache(None)
        assert cache.metrics is None


class TestProgramCacheMirror:
    def test_program_memo_hits_and_misses(self):
        n = 64
        perm = np.random.default_rng(0).permutation(n)

        def spmd(comm):
            from repro.core import mc_compute_schedule, mc_copy

            src = BlockPartiArray.from_global(
                comm, np.arange(n, dtype=float)
            )
            dst = ChaosArray.zeros(comm, perm % comm.size)
            sched = mc_compute_schedule(
                comm, "blockparti", src,
                mc_new_set_of_regions(SectionRegion(Section.full((n,)))),
                "chaos", dst, mc_new_set_of_regions(IndexRegion(perm)),
            )
            mc_copy(comm, sched, src, dst)   # lowers programs: misses
            mc_copy(comm, sched, src, dst)   # replays memos: hits
            c = comm.process.metrics.counters
            return c.get("cache_program_misses", 0), \
                c.get("cache_program_hits", 0)

        for misses, hits in VirtualMachine(2).run(spmd).values:
            assert misses > 0
            assert hits >= misses  # second copy replays every lowered half

    def test_mirror_is_clock_free(self):
        """Observed clocks are identical whether or not counters exist —
        guaranteed structurally (incr never touches the clock), asserted
        here by running the same move twice and comparing clock deltas."""
        n = 64
        perm = np.random.default_rng(0).permutation(n)

        def spmd(comm):
            from repro.core import mc_compute_schedule, mc_copy

            src = BlockPartiArray.from_global(
                comm, np.arange(n, dtype=float)
            )
            dst = ChaosArray.zeros(comm, perm % comm.size)
            sched = mc_compute_schedule(
                comm, "blockparti", src,
                mc_new_set_of_regions(SectionRegion(Section.full((n,)))),
                "chaos", dst, mc_new_set_of_regions(IndexRegion(perm)),
            )
            comm.barrier()
            t0 = comm.process.clock
            mc_copy(comm, sched, src, dst)
            d1 = comm.process.clock - t0
            comm.barrier()
            t1 = comm.process.clock
            mc_copy(comm, sched, src, dst)
            d2 = comm.process.clock - t1
            return d1, d2

        for d1, d2 in VirtualMachine(2).run(spmd).values:
            assert d1 == d2
