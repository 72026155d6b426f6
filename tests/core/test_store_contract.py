"""Contract of the one schedule → plan store (``repro.core.cache``).

Every case runs against both configurations of
:class:`~repro.core.cache.LayeredStore` the repo ships — the one
:class:`~repro.core.ScheduleCache` builds (``cache_`` prefix) and the
service's :class:`~repro.service.ServiceCache` (``cache_svc_`` prefix) —
through the store's whole surface: ``peek``, ``lookup``, ``store``,
``resolve`` and ``plan``.  The single rule under test: a plan is cached
only while every member is the resident object under its key, and
evicting *or replacing* a member drops every plan over it.
"""

import numpy as np
import pytest

from repro.core import ScheduleCache, ScheduleMethod
from repro.core.cache import COUNTERS
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
        "cache_svc_", lambda size, reg: ServiceCache(size, size, metrics=reg)
    ),
}


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


@pytest.fixture
def make(config):
    """``make(maxsize=None, metrics=None)`` → a store, both layers
    bounded by ``maxsize``."""
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

    def test_peek_moves_no_counters_and_no_recency(self, make):
        c = make(maxsize=2)
        assert not c.peek(key(0))
        filled(c, 2)
        assert c.peek(key(0))
        assert c.counters["schedule_hits"] == 0
        assert c.counters["schedule_misses"] == 0
        c.store(key(2), sched(2))          # key 0 is still the LRU entry
        assert not c.peek(key(0)) and c.peek(key(1))

    def test_lru_order_hits_refresh_recency(self, make):
        c = make(maxsize=2)
        s0, _ = filled(c, 2)
        assert c.resolve(key(0), None) is s0   # a hit: refreshes key 0
        c.store(key(2), sched(2))              # evicts key 1, not key 0
        assert c.lookup(key(0)) is s0
        assert not c.peek(key(1))
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
        for i in range(5):
            c.plan([key(i)], [c.lookup(key(i))])
        assert (len(c), c.plan_count) == (5, 5)
        assert c.counters["schedule_evictions"] == 0
        assert c.counters["plan_evictions"] == 0

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

    def test_forced_rebuild_accounting(self, make):
        c = make()
        s0 = c.resolve(key(0), sched, force=True)   # plain cold miss
        assert c.counters["schedule_forced_rebuilds"] == 0
        s1 = c.resolve(key(0), sched, force=True)   # held it, peer missed
        assert c.counters["schedule_forced_rebuilds"] == 1
        assert c.counters["schedule_misses"] == 2
        assert c.counters["schedule_hits"] == 0
        assert s1 is not s0 and c.lookup(key(0)) is s1


class TestPlanLayer:
    def test_plan_compiles_once_per_key(self, make, monkeypatch):
        reversals = []
        real_reverse = CommSchedule.reverse
        monkeypatch.setattr(
            CommSchedule, "reverse",
            lambda self: reversals.append(self) or real_reverse(self),
        )
        c = make()
        s1, s2 = filled(c, 2)
        keys = [key(0), key(1)]
        p1 = c.plan(keys, [s1, s2])
        assert c.plan(keys, [s1, s2]) is p1
        assert p1.schedules == (s1, s2)
        # Different direction or member order is a different plan; the
        # reverse plan fuses the members' reverses, materialized by the
        # store on the miss only.
        p3 = c.plan(keys, [s1, s2], reverse=True)
        assert c.plan(keys, [s1, s2], reverse=True) is p3
        assert reversals == [s1, s2]
        assert [s.src_lib for s in p3.schedules] == ["dstlib", "dstlib"]
        p4 = c.plan(keys[::-1], [s2, s1])
        assert p3 is not p1 and p4 is not p1
        assert (c.counters["plan_hits"], c.counters["plan_misses"],
                c.plan_count) == (2, 3, 3)
        assert c.validate() == []

    def test_plan_lru_eviction(self, make):
        c = make(maxsize=2)
        s0, s1 = filled(c, 2)
        p0 = c.plan([key(0)], [s0])
        c.plan([key(1)], [s1])
        assert c.plan([key(0)], [s0]) is p0        # refresh
        c.plan([key(0), key(1)], [s0, s1])         # evicts plan (1,)
        assert c.plan([key(0)], [s0]) is p0
        assert (c.counters["plan_evictions"], c.plan_count) == (1, 2)
        assert c.counters["schedule_evictions"] == 0
        assert c.counters["plan_invalidations"] == 0

    def test_eviction_invalidates_plans_over_member(self, make):
        c = make(maxsize=2)
        s0, s1 = filled(c, 2)
        c.plan([key(0), key(1)], [s0, s1])
        c.plan([key(0)], [s0], reverse=True)
        assert c.plan_count == 2
        c.lookup(key(1))
        c.store(key(2), sched(2))                  # evicts key 0
        assert c.plan_count == 0
        assert c.counters["plan_invalidations"] == 2
        assert c.counters["plan_evictions"] == 0
        # A plan over the surviving members caches again.
        kept = c.plan([key(1)], [s1])
        assert c.plan([key(1)], [s1]) is kept
        assert c.validate() == []

    @pytest.mark.parametrize("forced", [False, True])
    def test_replacement_invalidates_plans_over_member(self, make, forced):
        """Storing a different object under a resident key (a negotiated
        forced rebuild does exactly this) drops the plans fused over the
        old object — at the parent commit the service store kept them."""
        c = make()
        s0, s1 = filled(c, 2)
        stale = c.plan([key(0), key(1)], [s0, s1])
        other = c.plan([key(1)], [s1])
        c.store(key(0), s0)                        # same object: no-op
        assert c.plan_count == 2
        fresh = sched(7)
        if forced:
            assert c.resolve(key(0), lambda: fresh, force=True) is fresh
        else:
            c.store(key(0), fresh)
        assert c.counters["plan_invalidations"] == 1
        assert c.plan([key(1)], [s1]) is other     # untouched
        rebuilt = c.plan([key(0), key(1)], [fresh, s1])
        assert rebuilt is not stale and rebuilt.schedules == (fresh, s1)
        assert c.validate() == []

    def test_non_resident_members_compile_uncached(self, make):
        """Mid-build eviction (the member set does not fit the bounded
        store) and a caller holding a schedule the store has since
        replaced both get a plan — never a cached one."""
        c = make(maxsize=2)
        members = [c.resolve(key(i), lambda: sched(i)) for i in range(3)]
        keys = [key(0), key(1), key(2)]            # key 0 already evicted
        plan = c.plan(keys, members)
        assert plan.nschedules == 3
        assert c.plan(keys, members) is not plan   # recompiled, not a hit
        assert (c.plan_count, c.counters["plan_uncached"]) == (0, 2)
        assert c.counters["plan_hits"] == 0
        held = members[1]
        c.store(key(1), sched(9))                  # replaced behind a caller
        c.plan([key(1)], [held])
        assert (c.plan_count, c.counters["plan_uncached"]) == (0, 3)
        assert c.validate() == []


def _exercise_every_counter(c):
    s0, s1 = filled(c, 2)
    c.lookup(key(0))
    c.lookup(key(5))
    c.plan([key(0)], [s0])
    c.plan([key(0)], [s0])
    c.plan([key(1)], [s1])
    c.plan([key(0), key(1)], [s0, s1])             # plan eviction
    c.resolve(key(0), sched, force=True)           # forced; invalidates
    c.plan([key(3)], [sched(3)])                   # uncached
    c.store(key(2), sched(2))                      # schedule eviction
    return c.snapshot()


class TestCounters:
    def test_snapshot_equals_mirrored_counters(self, make, config):
        """``snapshot()[name]`` is the mirrored ``<prefix><name>`` for
        every counter (at the parent commit ``ScheduleCache`` reported
        plan evictions as schedule evictions and had no plan_evictions
        key at all)."""
        prefix, _ = config
        reg = Registry()
        snap = _exercise_every_counter(make(maxsize=2, metrics=reg))
        assert set(COUNTERS) | {"schedule_entries", "plan_entries"} == set(snap)
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
        assert (c.hits, c.misses) == (snap["schedule_hits"], snap["schedule_misses"])
        assert (c.plan_hits, c.plan_misses) == (snap["plan_hits"], snap["plan_misses"])
        assert c.plan_invalidations == snap["plan_invalidations"]
        assert c.plan_uncached == snap["plan_uncached"]
        # The historical total: evictions from either layer.
        assert c.evictions == snap["schedule_evictions"] + snap["plan_evictions"]
