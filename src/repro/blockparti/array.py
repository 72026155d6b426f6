"""Block-distributed multidimensional arrays (the Parti data structure)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.dataplane import accept_local, read_flat
from repro.distrib.cartesian import BLOCK, CartesianDist, cartesian_dist
from repro.vmachine.comm import Communicator

__all__ = ["BlockPartiArray"]


class BlockPartiArray:
    """One rank's piece of a regularly block-distributed array.

    Canonical local storage is the rank's sub-block, flattened C-order
    (``self.local``); ``local_nd`` is the shaped view.  Stencil sweeps use
    a separate ghost-extended scratch buffer filled by a
    :class:`~repro.blockparti.schedule.GhostSchedule` (ghosts are not part
    of the canonical storage, so Meta-Chaos local offsets stay dense).

    Every rank of the distributing communicator holds one instance,
    created collectively by the class methods.
    """

    def __init__(self, comm: Communicator, dist: CartesianDist, local: np.ndarray):
        if dist.nprocs != comm.size:
            raise ValueError(
                f"distribution spans {dist.nprocs} procs but communicator "
                f"has {comm.size}"
            )
        expected = dist.local_size(comm.rank)
        if local.size != expected:
            raise ValueError(
                f"rank {comm.rank}: local storage has {local.size} elements, "
                f"distribution expects {expected}"
            )
        self.comm = comm
        self.dist = dist
        # Zero-copy: any strided ndarray is first-class local storage.
        self.local = accept_local(local)

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
        return cls(comm, dist, np.zeros(dist.local_size(comm.rank), dtype=dtype))

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
        dist = cartesian_dist(shape, ((BLOCK, 0),) * len(shape), comm.size, nprocs_grid)
        arr = cls(comm, dist, np.zeros(dist.local_size(comm.rank), dtype=dtype))
        block = dist.owned_block(comm.rank)
        grids = np.meshgrid(
            *[np.arange(lo, hi) for lo, hi in block], indexing="ij", sparse=True
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
        local = full[tuple(slice(lo, hi) for lo, hi in block)]
        return cls(comm, dist, local.astype(full.dtype, copy=True))

    # -- views -----------------------------------------------------------------

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self.dist.global_shape

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.dist.local_shape(self.comm.rank)

    @property
    def local_nd(self) -> np.ndarray:
        """Shaped view of the local block."""
        if self.local.ndim > 1:
            if self.local.shape != self.local_shape:
                raise ValueError(
                    f"strided local storage {self.local.shape} does not "
                    f"admit a {self.local_shape} view"
                )
            return self.local
        return self.local.reshape(self.local_shape)

    @property
    def dtype(self):
        return self.local.dtype

    @property
    def itemsize(self) -> int:
        return self.local.dtype.itemsize

    def owned_block(self) -> tuple[tuple[int, int], ...]:
        """This rank's per-dim global index intervals ``[lo, hi)``."""
        return self.dist.owned_block(self.comm.rank)

    # -- test/debug helpers ------------------------------------------------------

    def gather_global(self) -> np.ndarray | None:
        """Collect the full global array on rank 0 (testing oracle)."""
        pieces = self.comm.gather((self.comm.rank, read_flat(self.local).copy()))
        if pieces is None:
            return None
        out = np.zeros(self.global_shape, dtype=self.dtype)
        for rank, local in pieces:
            block = self.dist.owned_block(rank)
            shape = tuple(hi - lo for lo, hi in block)
            out[tuple(slice(lo, hi) for lo, hi in block)] = local.reshape(shape)
        return out

    def __repr__(self) -> str:
        return (
            f"BlockPartiArray(shape={self.global_shape}, "
            f"rank={self.comm.rank}/{self.comm.size}, local={self.local_shape})"
        )
