"""Contract of the one schedule store (``repro.core.cache``).

Every case runs against both configurations of
:class:`~repro.core.cache.LayeredStore` the repo ships — the one
:class:`~repro.core.ScheduleCache` builds (``cache_`` prefix) and the
service's :class:`~repro.service.ServiceCache` (``cache_svc_`` prefix) —
through the store's whole surface: ``lookup``, ``store``, ``resolve``
and ``plan``.  The store keys schedules only: a plan is memoised on its
schedule (:func:`~repro.core.plan.plan_of`) or assembled for its caller,
so no plan outlives the schedules it moves along.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ScheduleCache, ScheduleMethod
from repro.core.cache import COUNTERS
from repro.core.plan import plan_of
from repro.core.schedule import CommSchedule
from repro.service import ServiceCache
from repro.vmachine import VirtualMachine


class Registry:
    """The slice of MetricsRegistry the store mirrors into."""

    def __init__(self):
        self.counts = {}

    def incr(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


CONFIGS = {
    "schedule_cache": (
        "cache_", lambda size, reg: ScheduleCache(None, maxsize=size, metrics=reg)
    ),
    "service_cache": (
        "cache_svc_", lambda size, reg: ServiceCache(size, metrics=reg)
    ),
}


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


@pytest.fixture
def make(config):
    """``make(maxsize=None, metrics=None)`` → a store bounded by
    ``maxsize``."""
    return lambda maxsize=None, metrics=None: config[1](maxsize, metrics)


def key(i):
    return ("bind", "obj", "attr", ("lib", f"sig{i}"))


def sched(i=0):
    """A hand-built 2x2 schedule (no VM needed: plans compile locally)."""
    return CommSchedule(
        "srclib", "dstlib", 4, 2, 2, ScheduleMethod.COOPERATION,
        sends={1: np.arange(i, i + 4)}, recvs={0: np.arange(4)},
    )


def filled(store, n):
    scheds = [sched(i) for i in range(n)]
    for i, s in enumerate(scheds):
        store.store(key(i), s)
    return scheds


class TestScheduleLayer:
    def test_miss_then_hit(self, make):
        c = make()
        assert c.lookup(key(0)) is None
        s0 = sched()
        c.store(key(0), s0)
        assert c.lookup(key(0)) is s0
        assert c.counters["schedule_misses"] == 1
        assert c.counters["schedule_hits"] == 1
        assert len(c) == 1

    def test_lru_order_hits_refresh_recency(self, make):
        c = make(maxsize=2)
        s0, _ = filled(c, 2)
        assert c.resolve(key(0), None) is s0   # a hit: refreshes key 0
        c.store(key(2), sched(2))              # evicts key 1, not key 0
        assert c.lookup(key(0)) is s0
        assert c.lookup(key(1)) is None
        assert c.counters["schedule_evictions"] == 1

    def test_eviction_accounting(self, make):
        c = make(maxsize=2)
        for n in range(4):  # 4 distinct keys through a 2-entry layer
            c.resolve(key(n), lambda: sched(n))
        snap = c.snapshot()
        assert (snap["schedule_hits"], snap["schedule_misses"],
                snap["schedule_evictions"], snap["schedule_entries"]) == (0, 4, 2, 2)

    def test_unbounded_by_default(self, make):
        c = make()
        filled(c, 5)
        assert len(c) == 5
        assert c.counters["schedule_evictions"] == 0

    @pytest.mark.parametrize("size", [0, -1])
    def test_invalid_sizes_rejected(self, make, size):
        with pytest.raises(ValueError):
            make(maxsize=size)

    def test_resolve_builds_once(self, make):
        c = make()
        built = []

        def build():
            built.append(sched())
            return built[-1]

        assert c.resolve(key(0), build) is c.resolve(key(0), build)
        assert len(built) == 1
        assert c.counters["schedule_misses"] == 1
        assert c.counters["schedule_hits"] == 1


class TestPlanLayer:
    """The store's ``plan``: plans live on their schedules, never in the
    store, so a plan leaves with the schedules it moves along."""

    def test_plan_compiles_once_per_key(self, make, monkeypatch):
        """A plan compiles once per (schedule, direction) — the key of the
        memo on the schedule; a fused plan is assembled from those rows
        on every call, lowering nothing again."""
        reversals = []
        real_reverse = CommSchedule.reverse
        monkeypatch.setattr(
            CommSchedule, "reverse",
            lambda self: reversals.append(self) or real_reverse(self),
        )
        c = make()
        s1, s2 = filled(c, 2)
        p1 = c.plan([s1])
        assert c.plan([s1]) is p1 is plan_of(s1)
        r1 = c.plan([s1], reverse=True)
        assert c.plan([s1], reverse=True) is r1 is plan_of(s1, 1, True)
        fused = c.plan([s1, s2], reverse=True)
        assert c.plan([s1, s2], reverse=True) is not fused
        own = [plan_of(s, 1, True) for s in (s1, s2)]
        assert fused.schedules == tuple(p.schedules[0] for p in own)
        assert [s.src_lib for s in fused.schedules] == ["dstlib", "dstlib"]
        assert [seg.program for seg in fused.send_programs[0]] == [
            p.send_programs[0][0].program for p in own]
        assert reversals == [s1, s2]
        assert (c.counters["plan_hits"], c.counters["plan_misses"]) == (2, 4)

    def test_plan_lru_eviction(self, make):
        """A schedule's plans follow it out of the store: LRU-evicting the
        schedule frees them, the refreshed one keeps its own."""
        c = make(maxsize=2)
        for i in range(2):
            c.store(key(i), sched(i))
        refs = [weakref.ref(c.plan([c.lookup(key(i))])) for i in range(2)]
        c.lookup(key(0))                           # refresh: key 1 is LRU
        c.store(key(2), sched(2))                  # evicts key 1
        gc.collect()
        assert refs[0]() is c.plan([c.lookup(key(0))])
        assert refs[1]() is None
        assert c.counters["schedule_evictions"] == 1

    def test_eviction_invalidates_plans_over_member(self, make):
        """No plan over an evicted member survives: its own plans go with
        it, and a fused plan over it was never kept at all."""
        c = make(maxsize=2)
        for i in range(2):
            c.store(key(i), sched(i))
        fused = weakref.ref(c.plan([c.lookup(key(0)), c.lookup(key(1))]))
        own = weakref.ref(c.plan([c.lookup(key(0))], reverse=True))
        gc.collect()
        assert fused() is None                     # while both are resident
        assert own() is not None
        c.lookup(key(1))
        c.store(key(2), sched(2))                  # evicts key 0
        gc.collect()
        assert own() is None
        # A plan over the surviving member is memoised again.
        kept = c.plan([c.lookup(key(1))])
        assert c.plan([c.lookup(key(1))]) is kept

    def test_replacement_invalidates_plans_over_member(self, make):
        """Storing a different object under a resident key frees the
        plans memoised on the old object."""
        c = make()
        c.store(key(0), sched(0))
        s1 = sched(1)
        c.store(key(1), s1)
        old = weakref.ref(c.plan([c.lookup(key(0))]))
        other = c.plan([s1])
        c.store(key(0), c.lookup(key(0)))          # same object: no-op
        gc.collect()
        assert old() is not None
        fresh = sched(7)
        c.store(key(0), fresh)
        gc.collect()
        assert old() is None
        assert c.plan([s1]) is other               # untouched
        assert c.plan([fresh, s1]).schedules == (fresh, s1)

    def test_non_resident_members_compile_uncached(self, make):
        """Mid-build eviction (the member set does not fit the bounded
        store) and a caller holding a schedule the store has since
        replaced both get a plan — and the store keeps none of it."""
        c = make(maxsize=2)
        members = [c.resolve(key(i), lambda: sched(i)) for i in range(3)]
        assert c.lookup(key(0)) is None            # key 0 already evicted
        plan = c.plan(members)
        assert plan.schedules == tuple(members)
        assert c.plan(members) is not plan         # assembled again
        assert c.counters["plan_hits"] == 0
        held = members[1]
        c.store(key(1), sched(9))                  # replaced behind a caller
        assert c.plan([held]) is plan_of(held)     # the caller's own memo


def _exercise_every_counter(c):
    s0, s1 = filled(c, 2)
    c.lookup(key(0))
    c.lookup(key(5))
    c.plan([s0])                                   # compiled
    c.plan([s0])                                   # memoised on s0
    c.plan([s0, s1])                               # assembled
    c.store(key(2), sched(2))                      # schedule eviction
    return c.snapshot()


class TestCounters:
    def test_snapshot_equals_mirrored_counters(self, make, config):
        """``snapshot()[name]`` is the mirrored ``<prefix><name>`` for
        every counter."""
        prefix, _ = config
        reg = Registry()
        snap = _exercise_every_counter(make(maxsize=2, metrics=reg))
        assert set(COUNTERS) | {"schedule_entries"} == set(snap)
        for name in COUNTERS:
            assert snap[name] > 0, name
            assert snap[name] == reg.counts[prefix + name], name
        assert set(reg.counts) == {prefix + name for name in COUNTERS}

    def test_rank_deterministic(self, config):
        """The same op stream gives every rank the same hits, misses and
        evictions — what keeps a bounded store collective-safe."""
        def spmd(comm):
            return _exercise_every_counter(config[1](2, None))

        snaps = VirtualMachine(4).run(spmd).values
        assert all(s == snaps[0] for s in snaps)

    def test_schedule_cache_attributes_read_the_table(self):
        c = ScheduleCache(None, maxsize=2)
        snap = _exercise_every_counter(c)
        assert (c.hits, c.misses, c.evictions) == (
            snap["schedule_hits"], snap["schedule_misses"],
            snap["schedule_evictions"])
        assert (c.plan_hits, c.plan_misses) == (snap["plan_hits"], snap["plan_misses"])
