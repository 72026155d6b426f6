"""Meta-Chaos interface functions for the HPF runtime (§4.1.3).

Functionally the same closed-form Cartesian dereferencing as Multiblock
Parti — HPF's regular distributions answer ownership questions in O(1)
arithmetic per element — but registered as its own library: the paper's
whole point is that each library plugs in its own implementation of the
same small interface.
"""

from __future__ import annotations

from repro.core.registry import (
    LibraryAdapter,
    cartesian_local_elements,
    register_adapter,
)
from repro.hpf.array import HPFArray
from repro.vmachine.process import current_process

__all__ = ["HPFAdapter"]


class HPFAdapter(LibraryAdapter):
    """Interface functions for ``"hpf"``-distributed arrays."""

    name = "hpf"
    array_type = HPFArray
    local_elements = cartesian_local_elements

    def charge_deref(self, n: int) -> None:
        current_process().charge_deref_regular(n)


register_adapter(HPFAdapter())
