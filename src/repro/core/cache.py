"""Content-keyed schedule and plan reuse: one layered store.

"Since the schedule can often be computed once and reused for multiple
data transfers ... the cost of creating the schedule can be amortized"
(§4.1.4).  The paper's programs hold schedules in variables; this module
makes the reuse automatic, once, for every caller:

- :class:`LayeredStore` is the storage — a bounded-LRU *schedule* layer
  and a bounded-LRU *plan* layer over it, one counter table mirrored
  into the rank's metrics registry under a prefix.  Its single rule:
  **a plan is cached only while every member is the resident object
  under its key; evicting or replacing a member drops every plan over
  it.**  A member set that is not resident (the bounded store cannot
  hold it, or a caller kept a schedule the store has since dropped)
  still gets its plan compiled, but never cached (``plan_uncached``).
- :class:`ScheduleCache` is that store keyed by the *content* of a copy
  request — library names, method, both distributions and both
  SetOfRegions — so a repeated ``get_or_build`` with an equivalent
  request returns the stored schedule without communication.
- :class:`repro.service.ServiceCache` is the same store keyed by bind
  signatures, mirrored under ``cache_svc_``.

Keys are computed locally and deterministically, so every rank hits,
misses and evicts together (the store never desynchronizes a
collective).  Irregular distributions and index regions hash their full
index content (cached on the object after the first use — the arrays are
immutable by convention).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.api import mc_compute_schedule
from repro.core.plan import MovePlan, compile_plan
from repro.core.policy import ExecutorPolicy
from repro.core.region import IndexRegion, MaskRegion, Region, SectionRegion
from repro.core.registry import get_adapter
from repro.core.schedule import CommSchedule, ScheduleMethod
from repro.core.setofregions import SetOfRegions

__all__ = ["LayeredStore", "ScheduleCache", "region_key", "sor_key", "dist_key"]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def region_key(region: Region) -> tuple:
    """Deterministic content key of one region."""
    if isinstance(region, SectionRegion):
        s = region.section
        return ("section", s.starts, s.stops, s.steps, region.order)
    if isinstance(region, (IndexRegion, MaskRegion)):
        cached = getattr(region, "_content_key", None)
        if cached is None:
            cached = ("indices", len(region.indices), _digest(region.indices))
            region._content_key = cached
        return cached
    raise TypeError(f"cannot key region type {type(region).__name__}")


def sor_key(sor: SetOfRegions) -> tuple:
    """Deterministic content key of a SetOfRegions."""
    return tuple(region_key(r) for r in sor.regions)


def dist_key(dist) -> tuple:
    """Deterministic content key of a distribution."""
    desc = dist.descriptor()
    if desc.kind == "irregular":
        cached = getattr(dist, "_content_key", None)
        if cached is None:
            owners, nprocs = desc.payload
            cached = ("irregular", nprocs, len(owners), _digest(owners))
            dist._content_key = cached
        return cached
    # Regular descriptors have small, hashable payloads.
    return (desc.kind, _freeze(desc.payload))


def _freeze(obj: Any):
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, _digest(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_freeze(o) for o in obj)
    return obj


#: every counter of the store, in snapshot order; each is mirrored into the
#: metrics registry as ``<prefix><name>``
COUNTERS = (
    "schedule_hits", "schedule_misses", "schedule_evictions",
    "schedule_forced_rebuilds",
    "plan_hits", "plan_misses", "plan_evictions", "plan_invalidations",
    "plan_uncached",
)


class LayeredStore:
    """One rank's schedule → plan store (see the module docstring).

    ``schedule_maxsize`` / ``plan_maxsize`` bound each layer with LRU
    eviction (hits, rebuilds and stores refresh recency); ``None`` is
    unbounded.  Eviction is as deterministic as the keys, so a bounded
    store stays collective-safe: every rank evicts the same entry at the
    same call.

    Entries hold :class:`~repro.core.schedule.CommSchedule` objects whose
    halves are run-compressed, so cached regular schedules cost KBs (a
    few runs per peer), not MBs of dense offsets.

    Every counter movement mirrors into ``metrics`` (a
    :class:`~repro.observe.metrics.MetricsRegistry`, or ``None``) as
    ``<prefix><name>``, so ``snapshot()[name]`` always equals the
    mirrored counter.  Mirroring is clock-free: enabling it never
    perturbs modelled logical time.
    """

    def __init__(
        self,
        schedule_maxsize: int | None,
        plan_maxsize: int | None,
        metrics,
        prefix: str,
    ):
        if any(v is not None and v < 1 for v in (schedule_maxsize, plan_maxsize)):
            raise ValueError("store sizes must be positive integers or None")
        self.schedule_maxsize = schedule_maxsize
        self.plan_maxsize = plan_maxsize
        self.metrics = metrics
        self._prefix = prefix
        self._schedules: OrderedDict[tuple, CommSchedule] = OrderedDict()
        #: (member keys, reverse) -> (plan, the resident members it fuses)
        self._plans: OrderedDict[tuple, tuple[MovePlan, tuple]] = OrderedDict()
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def _bump(self, name: str) -> None:
        self.counters[name] += 1
        if self.metrics is not None:
            self.metrics.incr(self._prefix + name)

    def __len__(self) -> int:
        return len(self._schedules)

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    def snapshot(self) -> dict[str, int]:
        """Copy of the counters plus current layer sizes."""
        return {
            **self.counters,
            "schedule_entries": len(self._schedules),
            "plan_entries": len(self._plans),
        }

    def validate(self) -> list[tuple]:
        """Check the store's one rule over every cached plan.

        Every member a cached :class:`~repro.core.plan.MovePlan` fuses
        must be *the* object the schedule layer currently holds under
        the member's key.  Returns ``(plan_key, member_key)`` pairs for
        each violation — always empty unless the store has a bug; tests
        assert exactly that.
        """
        return [
            (pk, k)
            for pk, (_, members) in self._plans.items()
            for k, sched in zip(pk[0], members)
            if self._schedules.get(k) is not sched
        ]

    def _resident(self, keys: Sequence[tuple], schedules: Sequence) -> bool:
        """Is every schedule the resident object under its key?"""
        return all(self._schedules.get(k) is s for k, s in zip(keys, schedules))

    # -- schedule layer -----------------------------------------------------

    def peek(self, key: tuple) -> bool:
        """Would ``key`` hit?  No counter movement, no LRU touch — the
        service's bind negotiation asks before committing to an answer."""
        return key in self._schedules

    def lookup(self, key: tuple) -> CommSchedule | None:
        """Hit (refreshing recency) or miss; counters move either way."""
        hit = self._schedules.get(key)
        if hit is None:
            self._bump("schedule_misses")
            return None
        self._bump("schedule_hits")
        self._schedules.move_to_end(key)
        return hit

    def store(self, key: tuple, sched: CommSchedule) -> None:
        """Make ``sched`` the resident object under ``key`` (most recent).

        Replacing a different resident object drops every plan over the
        key, exactly as evicting it would: those plans fuse the old
        object.  (A first insert has nothing to drop — no plan is ever
        cached over a non-resident key.)
        """
        if self._schedules.get(key, sched) is not sched:
            self._drop_plans_over(key)
        self._schedules[key] = sched
        self._schedules.move_to_end(key)
        if self.schedule_maxsize is not None:
            while len(self._schedules) > self.schedule_maxsize:
                evicted, _ = self._schedules.popitem(last=False)
                self._bump("schedule_evictions")
                self._drop_plans_over(evicted)

    def resolve(
        self, key: tuple, build: Callable[[], CommSchedule], force: bool = False
    ) -> CommSchedule:
        """Get-or-build: the resident schedule under ``key``, else
        ``build()`` stored under it.

        ``force`` skips the lookup: someone else decided the (collective)
        build must run — the service's bind negotiation, when the peer
        program's replica missed — so whatever this store holds is moot.
        Counted as a miss, and additionally as a forced rebuild when this
        store *did* hold the key: the cost of keeping two independent
        stores coherent.
        """
        if force:
            if key in self._schedules:
                self._bump("schedule_forced_rebuilds")
            self._bump("schedule_misses")
        else:
            hit = self.lookup(key)
            if hit is not None:
                return hit
        sched = build()
        self.store(key, sched)
        return sched

    def _drop_plans_over(self, member_key: tuple) -> None:
        for pk in [pk for pk in self._plans if member_key in pk[0]]:
            del self._plans[pk]
            self._bump("plan_invalidations")

    # -- plan layer ---------------------------------------------------------

    def plan(
        self,
        member_keys: Sequence[tuple],
        schedules: Sequence[CommSchedule],
        reverse: bool = False,
    ) -> MovePlan:
        """The fused plan over ``schedules`` (or, with ``reverse``, over
        their reverses — materialized here, and only on a miss).

        Keyed by the ordered member keys and the direction, so a hit
        costs the key tuple and one lookup.  Residency is checked once,
        when a plan is about to be cached: if any of ``schedules`` is not
        the resident object under its key the plan is compiled for the
        caller but not cached.  Compilation is local and never
        collective, so plan hits/misses need no cross-rank agreement —
        but they get it anyway, for free.
        """
        key = (tuple(member_keys), reverse)
        hit = self._plans.get(key)
        if hit is not None:
            self._bump("plan_hits")
            self._plans.move_to_end(key)
            return hit[0]
        self._bump("plan_misses")
        members = tuple(schedules)
        plan = compile_plan([s.reverse() for s in members] if reverse else members)
        if not self._resident(key[0], members):
            self._bump("plan_uncached")
            return plan
        self._plans[key] = (plan, members)
        if self.plan_maxsize is not None:
            while len(self._plans) > self.plan_maxsize:
                self._plans.popitem(last=False)
                self._bump("plan_evictions")
        return plan

    # -- program layer (derived view) ---------------------------------------

    def program_stats(self) -> dict[str, int]:
        """Lowering state of the MovePrograms behind the cached schedules.

        The program layer lives on the RunList halves themselves
        (memoized by :func:`repro.core.dataplane.compile_offsets` at
        first execution), so it needs no storage here — this walks the
        cached schedules and reports how many halves have been lowered.
        Shared halves (e.g. a schedule and its reverse inside a plan)
        count once: the memo slot *is* the dedup.
        """
        halves = {
            id(half): half
            for sched in self._schedules.values()
            for half in (*sched.sends.values(), *sched.recvs.values())
        }
        lowered = sum(
            getattr(half, "_program", None) is not None
            for half in halves.values()
        )
        return {"halves": len(halves), "halves_lowered": lowered}


def _counter(*names: str) -> property:
    return property(lambda self: sum(self.counters[n] for n in names))


class ScheduleCache(LayeredStore):
    """The store keyed by copy-request content (collective-safe keys).

    One instance per SPMD context (create it inside the SPMD function).
    ``get_or_build`` is collective exactly when it misses — which, because
    keys are pure functions of the request content, happens on every rank
    or on none.  ``maxsize`` bounds both layers; the default ``None`` is
    unbounded.  Counters mirror as ``cache_schedule_*`` / ``cache_plan_*``
    (see the metrics module docstring) into ``metrics``, by default the
    calling rank's registry.
    """

    hits = _counter("schedule_hits")
    misses = _counter("schedule_misses")
    #: evictions from either layer
    evictions = _counter("schedule_evictions", "plan_evictions")
    plan_hits = _counter("plan_hits")
    plan_misses = _counter("plan_misses")
    plan_invalidations = _counter("plan_invalidations")
    plan_uncached = _counter("plan_uncached")

    def __init__(self, where, maxsize: int | None = None, metrics=None):
        if metrics is None:
            # Inside an SPMD run, mirror into the calling rank's registry.
            try:
                from repro.vmachine.process import current_process

                metrics = current_process().metrics
            except (ImportError, RuntimeError):
                metrics = None
        super().__init__(maxsize, maxsize, metrics, "cache_")
        self._where = where
        self.maxsize = maxsize

    def _request(self, req: tuple, method, policy) -> tuple:
        """``(key, build)`` of one ``(src_lib, src_array, src_sor, dst_lib,
        dst_array, dst_sor)`` copy request, as :meth:`resolve` takes them."""
        src_lib, src_array, src_sor, dst_lib, dst_array, dst_sor = req
        key = (
            src_lib,
            dst_lib,
            method,
            dist_key(get_adapter(src_lib).dist_of(src_array)),
            sor_key(src_sor),
            dist_key(get_adapter(dst_lib).dist_of(dst_array)),
            sor_key(dst_sor),
        )
        return key, lambda: mc_compute_schedule(
            self._where, *req, method, policy=policy
        )

    def get_or_build(
        self,
        src_lib: str,
        src_array,
        src_sor: SetOfRegions,
        dst_lib: str,
        dst_array,
        dst_sor: SetOfRegions,
        method: ScheduleMethod = ScheduleMethod.COOPERATION,
        policy: ExecutorPolicy = ExecutorPolicy.ORDERED,
    ) -> CommSchedule:
        """Return a cached schedule for this request, building on miss.

        Single-program only (both arrays local): the key includes both
        distributions, which must be inspectable here.

        ``policy`` is honored on the *build* (it orders the schedule-build
        exchanges) but deliberately excluded from the cache key: the
        schedule content is policy-invariant, so ORDERED and OVERLAP
        requests share entries.  Because a hit skips communication, the
        policy only matters on the collective miss — which the
        deterministic keys guarantee happens on every rank together.
        """
        req = (src_lib, src_array, src_sor, dst_lib, dst_array, dst_sor)
        return self.resolve(*self._request(req, method, policy))

    def get_or_build_plan(
        self,
        requests: Sequence[tuple],
        method: ScheduleMethod = ScheduleMethod.COOPERATION,
        policy: ExecutorPolicy = ExecutorPolicy.ORDERED,
    ) -> MovePlan:
        """Return a cached fused plan for a sequence of copy requests.

        Each request is a ``(src_lib, src_array, src_sor, dst_lib,
        dst_array, dst_sor)`` tuple; member schedules resolve through the
        schedule layer exactly as :meth:`get_or_build` would (collective
        exactly on schedule misses, which the deterministic keys keep
        synchronized across ranks), so a plan request warms both layers.
        The plan key is the ordered tuple of member keys, so two requests
        fusing the same schedules in the same order share one compiled
        plan.
        """
        resolvers = [self._request(req, method, policy) for req in requests]
        keys = [key for key, _ in resolvers]
        schedules = [self.resolve(key, build) for key, build in resolvers]
        # Building a later member can evict an earlier one (the store is
        # smaller than the member set, or was near-full).  One re-resolve
        # pass restores residency whenever the store can hold the full
        # member set (re-touched members are most-recent, so the pass only
        # ever evicts older strangers); when it cannot, :meth:`plan`
        # compiles for the caller without caching.
        if not self._resident(keys, schedules):
            schedules = [self.resolve(key, build) for key, build in resolvers]
        return self.plan(keys, schedules)
