"""The service's keys into the shared schedule → plan → program store.

Every expensive artifact of the coupling service is a deterministic
function of canonical content signatures:

- a **CommSchedule** depends on ``(object, attribute, client signature)``
  — where the client signature is ``(lib, distribution, region-set,
  dtype)`` — because the server's export for ``(object, attribute)`` is
  stable for the service's lifetime;
- a **MovePlan** depends on the ordered tuple of member schedule keys and
  the transfer direction;
- the **MovePrograms** behind each schedule half are memoized on the
  half's RunList (:func:`repro.core.dataplane.compile_offsets`), so any
  two tenants whose bindings share a cached schedule share its lowered
  programs for free.

So one :class:`~repro.core.cache.LayeredStore` per rank serves *every*
tenant: the first tenant with a given signature pays the collective
schedule build, plan fusion and program lowering; all later tenants hit.
Keys are computed locally and deterministically, so all ranks of a
program hit or miss together, and the gateway's and the server's stores
are replicas coordinated only by the op stream; the one place they could
disagree — a schedule one side holds and the other evicted — is settled
by the bind negotiation, which both sides apply as
``resolve(key, build, force=grant.need_build)``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.cache import LayeredStore, dist_key, sor_key
from repro.core.registry import get_adapter
from repro.core.setofregions import SetOfRegions

__all__ = ["ServiceCache", "array_signature", "bind_key"]


def array_signature(lib: str, array: Any, sor: SetOfRegions) -> tuple:
    """Canonical ``(lib, distribution, region-set, dtype)`` content key.

    Deterministic and cheap after first use (irregular distributions and
    index regions cache their content digests on the object), identical
    on every rank — the currency of the service's shared caches and of
    the bind negotiation on the wire.
    """
    adapter = get_adapter(lib)
    handle = adapter.resolve_handle(array)
    dtype = np.dtype(adapter.local_data(handle).dtype)
    return (lib, dist_key(adapter.dist_of(handle)), sor_key(sor), dtype.str)


def bind_key(obj: str, attr: str, signature: tuple) -> tuple:
    """Schedule-cache key of one binding request."""
    return ("bind", obj, attr, signature)


class ServiceCache(LayeredStore):
    """One rank's shared cross-tenant store: the layered store keyed by
    :func:`bind_key`, counters mirrored as ``cache_svc_*``."""

    def __init__(
        self,
        schedule_maxsize: int | None = None,
        plan_maxsize: int | None = None,
        metrics=None,
    ):
        super().__init__(schedule_maxsize, plan_maxsize, metrics, "cache_svc_")
