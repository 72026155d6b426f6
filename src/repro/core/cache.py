"""Content-keyed schedule reuse: one store, with plans memoised on schedules.

"Since the schedule can often be computed once and reused for multiple
data transfers ... the cost of creating the schedule can be amortized"
(§4.1.4).  The paper's programs hold schedules in variables; this module
makes the reuse automatic, once, for every caller:

- :class:`LayeredStore` is the storage — a bounded-LRU store of
  *schedules*, one counter table mirrored into the rank's metrics
  registry under a prefix.  It keys schedules only: what derives from a
  schedule stays on it — its plans (:func:`~repro.core.plan.plan_of`),
  the reverse its pulls run on, and its halves' lowered programs — so
  evicting a schedule drops them with it.
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
from repro.core.plan import MovePlan, compile_plan, plan_memoised, plan_of
from repro.core.policy import ExecutorPolicy
from repro.core.region import IndexRegion, MaskRegion, Region, SectionRegion
from repro.core.registry import get_adapter
from repro.core.schedule import CommSchedule, ScheduleMethod
from repro.core.setofregions import SetOfRegions
from repro.vmachine.process import current_process

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
    "plan_hits", "plan_misses",
)


class LayeredStore:
    """One rank's schedule store (see the module docstring).

    ``schedule_maxsize`` bounds it with LRU eviction (hits and stores
    refresh recency); ``None`` is unbounded.  Eviction is as
    deterministic as the keys, so a bounded store stays collective-safe:
    every rank evicts the same entry at the same call.

    Entries hold :class:`~repro.core.schedule.CommSchedule` objects whose
    halves are run-compressed, so cached regular schedules cost KBs (a
    few runs per peer), not MBs of dense offsets.

    Every counter movement mirrors into ``metrics`` (a
    :class:`~repro.observe.metrics.MetricsRegistry`, or ``None``) as
    ``<prefix><name>``, so ``snapshot()[name]`` always equals the
    mirrored counter.  Mirroring is clock-free: enabling it never
    perturbs modelled logical time.
    """

    def __init__(self, schedule_maxsize: int | None, metrics, prefix: str):
        if schedule_maxsize is not None and schedule_maxsize < 1:
            raise ValueError("store sizes must be positive integers or None")
        self.schedule_maxsize = schedule_maxsize
        self.metrics = metrics
        self._prefix = prefix
        self._schedules: OrderedDict[tuple, CommSchedule] = OrderedDict()
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def _bump(self, name: str) -> None:
        self.counters[name] += 1
        if self.metrics is not None:
            self.metrics.incr(self._prefix + name)

    def __len__(self) -> int:
        return len(self._schedules)

    def snapshot(self) -> dict[str, int]:
        """Copy of the counters plus the number of stored schedules."""
        return {**self.counters, "schedule_entries": len(self._schedules)}

    # -- schedules ----------------------------------------------------------

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
        """Make ``sched`` the resident object under ``key`` (most recent)."""
        self._schedules[key] = sched
        self._schedules.move_to_end(key)
        if self.schedule_maxsize is not None:
            while len(self._schedules) > self.schedule_maxsize:
                self._schedules.popitem(last=False)
                self._bump("schedule_evictions")

    def resolve(self, key: tuple, build: Callable[[], CommSchedule]) -> CommSchedule:
        """Get-or-build: the resident schedule under ``key``, else
        ``build()`` stored under it."""
        hit = self.lookup(key)
        if hit is not None:
            return hit
        sched = build()
        self.store(key, sched)
        return sched

    # -- plans (memoised on their schedules, not here) ----------------------

    def plan(
        self, schedules: Sequence[CommSchedule], reverse: bool = False
    ) -> MovePlan:
        """The plan moving along ``schedules`` (or their memoised
        reverses), in member order.

        One member's plan is its :func:`~repro.core.plan.plan_of` plan, a
        hit when that memo already holds it.  Several members' plan is
        assembled (a miss) from those memoised rows and kept by no one,
        so it lives as long as its caller holds it.  Local and never
        collective, like every compile.
        """
        if len(schedules) == 1:
            (sched,) = schedules
            self._bump("plan_hits" if plan_memoised(sched, 1, reverse) else "plan_misses")
            return plan_of(sched, 1, reverse)
        self._bump("plan_misses")
        return compile_plan([plan_of(s, 1, reverse).schedules[0] for s in schedules])

    # -- program layer (derived view) ---------------------------------------

    def program_stats(self) -> dict[str, int]:
        """Lowering state of the MovePrograms behind the cached schedules.

        The program layer lives on the RunList halves themselves
        (memoized by :func:`repro.core.dataplane.compile_offsets` at
        first execution), so it needs no storage here — this walks the
        cached schedules and reports how many halves have been lowered.
        Shared halves (one RunList held by two stored schedules) count
        once: the memo slot *is* the dedup.
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


def _counter(name: str) -> property:
    return property(lambda self: self.counters[name])


class ScheduleCache(LayeredStore):
    """The store keyed by copy-request content (collective-safe keys).

    One instance per SPMD context (create it inside the SPMD function).
    ``get_or_build`` is collective exactly when it misses — which, because
    keys are pure functions of the request content, happens on every rank
    or on none.  ``maxsize`` bounds the store; the default ``None`` is
    unbounded.  Counters mirror as ``cache_schedule_*`` / ``cache_plan_*``
    (see the metrics module docstring) into ``metrics``, by default the
    calling rank's registry.
    """

    hits = _counter("schedule_hits")
    misses = _counter("schedule_misses")
    evictions = _counter("schedule_evictions")
    plan_hits = _counter("plan_hits")
    plan_misses = _counter("plan_misses")

    def __init__(self, where, maxsize: int | None = None, metrics=None):
        if metrics is None:
            # Inside an SPMD run, mirror into the calling rank's registry.
            try:
                metrics = current_process().metrics
            except RuntimeError:
                metrics = None
        super().__init__(maxsize, metrics, "cache_")
        self._where = where

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
        """Return the plan moving along a sequence of copy requests.

        Each request is a ``(src_lib, src_array, src_sor, dst_lib,
        dst_array, dst_sor)`` tuple; member schedules resolve through the
        store exactly as :meth:`get_or_build` would (collective exactly on
        schedule misses, which the deterministic keys keep synchronized
        across ranks), so a plan request warms the store.  The plan is
        :meth:`plan` over them: one request's is memoised on its schedule,
        several requests' is assembled from their memoised rows.
        """
        return self.plan([
            self.resolve(*self._request(req, method, policy)) for req in requests
        ])
