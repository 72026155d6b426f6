"""Meta-Chaos interface functions for pC++/Tulip (§4.1.3).

Tulip dereferences an element through the collection's alignment objects
— a virtual call and a few divisions, cheaper than a Chaos table lookup
but costlier than raw block arithmetic.  The adapter charges a fixed
multiple of the regular dereference rate to reflect that; its elements
are enumerated by the generic dereference-and-filter scan.
"""

from __future__ import annotations

from repro.core.registry import LibraryAdapter, register_adapter
from repro.pcxx.collection import DistributedCollection
from repro.vmachine.process import current_process

__all__ = ["PCxxAdapter"]

# Tulip element dereference ~ one virtual dispatch + alignment arithmetic.
_TULIP_DEREF_FACTOR = 8.0


class PCxxAdapter(LibraryAdapter):
    """Interface functions for ``"pcxx"`` collections."""

    name = "pcxx"
    array_type = DistributedCollection

    def charge_deref(self, n: int) -> None:
        proc = current_process()
        proc.charge(n * _TULIP_DEREF_FACTOR * proc.cost.profile.deref_regular)


register_adapter(PCxxAdapter())
