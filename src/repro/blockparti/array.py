"""Block-distributed multidimensional arrays (the Parti data structure)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.registry import DistArray
from repro.distrib.cartesian import BLOCK, cartesian_dist
from repro.vmachine.comm import Communicator

__all__ = ["BlockPartiArray"]


class BlockPartiArray(DistArray):
    """One rank's piece of a regularly block-distributed array.

    Canonical local storage is the rank's sub-block, flattened C-order
    (``self.local``); ``local_nd`` is the shaped view.  Stencil sweeps use
    a separate ghost-extended scratch buffer filled by a
    :class:`~repro.blockparti.schedule.GhostSchedule` (ghosts are not part
    of the canonical storage, so Meta-Chaos local offsets stay dense).

    Every rank of the distributing communicator holds one instance,
    created collectively by the class methods.
    """

    # -- collective constructors ---------------------------------------------

    @classmethod
    def zeros(
        cls,
        comm: Communicator,
        shape: tuple[int, ...],
        nprocs_grid: tuple[int, ...] | None = None,
        dtype=np.float64,
    ) -> "BlockPartiArray":
        """Block-distributed array of zeros over a (given or balanced) grid."""
        dist = cartesian_dist(shape, ((BLOCK, 0),) * len(shape), comm.size, nprocs_grid)
        return cls.zeros_over(comm, dist, dtype)

    @classmethod
    def from_function(
        cls,
        comm: Communicator,
        shape: tuple[int, ...],
        fn: Callable[..., np.ndarray],
        nprocs_grid: tuple[int, ...] | None = None,
        dtype=np.float64,
    ) -> "BlockPartiArray":
        """Initialize from ``fn(*index_grids) -> values`` (owner computes).

        ``fn`` receives one integer array per dimension (the global indices
        of the rank's local block, broadcastable) and returns the values —
        e.g. ``lambda i, j: np.sin(i) * j``.
        """
        arr = cls.zeros(comm, shape, nprocs_grid, dtype)
        grids = np.meshgrid(
            *[np.arange(lo, hi) for lo, hi in arr.owned_block()],
            indexing="ij", sparse=True,
        )
        arr.local_nd[...] = fn(*grids)
        return arr

    @classmethod
    def from_global(
        cls,
        comm: Communicator,
        full: np.ndarray,
        nprocs_grid: tuple[int, ...] | None = None,
    ) -> "BlockPartiArray":
        """Each rank slices its block out of a replicated global array."""
        dist = cartesian_dist(
            full.shape, ((BLOCK, 0),) * full.ndim, comm.size, nprocs_grid)
        block = dist.owned_block(comm.rank)
        return cls(comm, dist, full[tuple(slice(lo, hi) for lo, hi in block)].copy())

    def owned_block(self) -> tuple[tuple[int, int], ...]:
        """This rank's per-dim global index intervals ``[lo, hi)``."""
        return self.dist.owned_block(self.comm.rank)
