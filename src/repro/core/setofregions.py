"""SetOfRegions: ordered groups of Regions (§4.1.1-4.1.2).

"Regions are gathered into an ordered group called a SetOfRegions ...
the linearization of a SetOfRegions is the linearization of the first
Region in the set followed by the linearization of the remaining
Regions."
"""

from __future__ import annotations

import numpy as np

from repro.core.region import Region
from repro.core.runs import KeyGroups

__all__ = ["SetOfRegions"]


class SetOfRegions:
    """An ordered collection of Regions with a concatenated linearization."""

    def __init__(self, regions: list[Region] | None = None):
        self.regions: list[Region] = list(regions) if regions else []
        self._starts: np.ndarray | None = None

    def add(self, region: Region) -> "SetOfRegions":
        """Append a region (the paper's ``MC_AddRegion2Set``)."""
        if not isinstance(region, Region):
            raise TypeError(f"expected a Region, got {type(region).__name__}")
        self.regions.append(region)
        self._starts = None
        return self

    @property
    def size(self) -> int:
        """Total element count across all regions."""
        return sum(r.size for r in self.regions)

    @property
    def starts(self) -> np.ndarray:
        """Linearization start offset of each region (plus a final sentinel
        equal to the total size)."""
        if self._starts is None or len(self._starts) != len(self.regions) + 1:
            sizes = [r.size for r in self.regions]
            self._starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        return self._starts

    def check_fits(self, shape: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless every region's elements exist in a
        data structure of global shape ``shape``."""
        for region in self.regions:
            region.check_fits(shape)

    def lin_to_global(
        self, positions: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Flat global index of each linearization position (vectorized)."""
        out = np.empty(len(positions), dtype=np.int64)
        for region, sel, pos in self.split_lin(positions):
            out[sel] = region.lin_to_global(pos, shape)
        return out

    def split_lin(self, positions: np.ndarray) -> list[tuple]:
        """``(region, selector, region-relative positions)`` per region the
        ``positions`` fall in (a lone part selects all of them, in order):
        one searchsorted over the region start offsets, one stable
        grouping of the region ids (ascending positions split into slices)."""
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return []
        if positions.min() < 0 or positions.max() >= self.size:
            raise IndexError("linearization position out of range")
        if len(self.regions) == 1:
            return [(self.regions[0], slice(None), positions)]
        starts = self.starts
        groups = KeyGroups(np.searchsorted(starts, positions, side="right") - 1)
        return [
            (self.regions[rid], sel, positions[sel] - starts[rid])
            for rid, sel in zip(groups.keys, groups.selectors())
        ]

    def split_range(self, lo: int, hi: int) -> list[tuple[Region, int, int]]:
        """``(region, lo_r, hi_r)`` for every region the linearization
        range ``[lo, hi)`` intersects, in order, with the bounds made
        relative to the region's own linearization."""
        if not 0 <= lo <= hi <= self.size:
            raise IndexError("linearization position out of range")
        starts = self.starts.tolist()
        return [
            (region, max(lo, a) - a, min(hi, b) - a)
            for region, a, b in zip(self.regions, starts, starts[1:])
            if max(lo, a) < min(hi, b)
        ]

    def range_to_global(
        self, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """:meth:`lin_to_global` for the contiguous range ``[lo, hi)``,
        resolved region by region without materialising the positions."""
        parts = [
            region.range_to_global(a, b, shape)
            for region, a, b in self.split_range(lo, hi)
        ]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def global_flat(self, shape: tuple[int, ...]) -> np.ndarray:
        """All selected flat global indices in linearization order."""
        if not self.regions:
            return np.zeros(0, dtype=np.int64)
        if len(self.regions) == 1:
            return self.regions[0].global_flat(shape)
        return np.concatenate([r.global_flat(shape) for r in self.regions])

    def nbytes_descriptor(self) -> int:
        """Shipping size of the set's compact description."""
        return 16 + sum(r.nbytes_descriptor() for r in self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def __repr__(self) -> str:
        return f"SetOfRegions({self.regions!r})"
