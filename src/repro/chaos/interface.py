"""Meta-Chaos interface functions for Chaos (§4.1.3).

Dereferencing goes through the translation table and is charged the full
per-element table-lookup cost; enumerating locally-owned elements of an
IndexRegion is one membership scan of the region's index list against the
local table plus a lookup per owned element — the "twice" of the
duplication method's cost story comes from this adapter being consulted
once per element in each role.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.chaos.array import ChaosArray
from repro.core.registry import LibraryAdapter, register_adapter
from repro.core.setofregions import SetOfRegions
from repro.vmachine.process import current_process

__all__ = ["ChaosAdapter"]


class ChaosAdapter(LibraryAdapter):
    """Interface functions for ``"chaos"``-distributed arrays."""

    name = "chaos"
    array_type = ChaosArray

    def charge_deref(self, n: int) -> None:
        current_process().charge_deref_irregular(n)

    def local_elements(
        self, handle: Any, sor: SetOfRegions, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """My elements of the SetOfRegions: one hashed membership scan of
        the region index lists, then a table lookup per owned element."""
        proc = current_process()
        shape = self.shape_of(handle)
        dist = self.dist_of(handle)
        gidx = sor.range_to_global(0, sor.size, shape)  # read-only: no copy
        proc.charge_hash(len(gidx))
        mask = dist.owners[gidx] == rank if hasattr(dist, "owners") else None
        if mask is None:
            ranks, offsets = dist.owner_of_flat(gidx)
            self.charge_deref(len(gidx))
            mask = ranks == rank
            return np.flatnonzero(mask).astype(np.int64, copy=False), offsets[mask]
        positions = np.flatnonzero(mask).astype(np.int64, copy=False)
        self.charge_deref(len(positions))
        offsets = dist.offset_within_owner(gidx[positions])
        return positions, offsets


register_adapter(ChaosAdapter())
