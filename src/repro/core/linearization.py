"""The virtual linearization (§4.1.2).

A :class:`Linearization` is the abstract total order over the elements of
one SetOfRegions, bound to the global shape of the data structure the
regions describe.  It is *virtual*: no buffer of the linearized elements is
ever allocated — the object only answers index arithmetic, and the data
move copies directly from source storage to destination storage.

Moving data from SetOfRegions ``SA`` to ``SB`` is the paper's three-phase
operation ``LSA = l(SA); LSB = LSA; SB = l^-1(LSB)`` with "the same number
of elements in SA as in SB" as the only constraint — enforced by
:func:`check_conformance`.
"""

from __future__ import annotations

import numpy as np

from repro.core.setofregions import SetOfRegions

__all__ = ["Linearization", "check_conformance"]


class Linearization:
    """Total order over one SetOfRegions' elements, bound to a shape."""

    def __init__(self, sor: SetOfRegions, shape: tuple[int, ...]):
        self.sor = sor
        self.shape = tuple(shape)
        # Binding is where a region that does not fit its data structure
        # is caught — once, with a message naming it — so per-call
        # dereferences need no bounds scans of their own.
        sor.check_fits(self.shape)

    @property
    def size(self) -> int:
        return self.sor.size

    def to_global(self, positions: np.ndarray) -> np.ndarray:
        """Flat global indices of the given linearization positions."""
        return self.sor.lin_to_global(positions, self.shape)

    def range_to_global(self, lo: int, hi: int) -> np.ndarray:
        """Flat global indices of the contiguous position range [lo, hi)."""
        return self.sor.range_to_global(lo, hi, self.shape)

    def all_global(self) -> np.ndarray:
        """Every element's flat global index in linearization order."""
        return self.sor.global_flat(self.shape)

    def check_bijection(self) -> None:
        """Verify no global element appears twice (test helper, O(N log N))."""
        g = self.all_global()
        if len(np.unique(g)) != len(g):
            raise ValueError("SetOfRegions selects some element more than once")


def check_conformance(src: Linearization, dst: Linearization) -> int:
    """Validate that a one-to-one lin-to-lin mapping exists; return its size.

    The mapping between source and destination "is implicit in the separate
    linearizations" — position i of the source linearization is copied to
    position i of the destination linearization — which only requires the
    two sizes to agree.
    """
    if src.size != dst.size:
        raise ValueError(
            f"source SetOfRegions has {src.size} elements but destination "
            f"has {dst.size}; Meta-Chaos copies require equal counts"
        )
    return src.size
