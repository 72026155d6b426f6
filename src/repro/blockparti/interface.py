"""Meta-Chaos interface functions for Multiblock Parti (§4.1.3).

The adapter exposes regular block-distributed arrays to Meta-Chaos:
dereferencing is closed-form block arithmetic (cheap), and locally-owned
elements of a SetOfRegions are enumerated by block intersection.
"""

from __future__ import annotations

from repro.blockparti.array import BlockPartiArray
from repro.core.registry import (
    LibraryAdapter,
    cartesian_local_elements,
    register_adapter,
)
from repro.vmachine.process import current_process

__all__ = ["BlockPartiAdapter"]


class BlockPartiAdapter(LibraryAdapter):
    """Interface functions for ``"blockparti"``-distributed arrays."""

    name = "blockparti"
    array_type = BlockPartiArray
    local_elements = cartesian_local_elements

    def charge_deref(self, n: int) -> None:
        current_process().charge_deref_regular(n)


register_adapter(BlockPartiAdapter())
