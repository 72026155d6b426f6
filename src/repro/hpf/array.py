"""HPF distributed arrays.

:class:`HPFArray` carries an ``!hpf$ distribute``-style mapping given as
one spec per dimension:

- ``"block"`` — contiguous blocks,
- ``"cyclic"`` — round robin,
- ``"cyclic(k)"`` — block-cyclic with block size k,
- ``"*"`` — dimension not distributed.

The processor-grid axis lengths are chosen automatically (balanced over
the distributed dimensions) or given explicitly.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from repro.core.dataplane import accept_local, read_flat
from repro.distrib.cartesian import (
    BLOCK,
    BLOCK_CYCLIC,
    COLLAPSED,
    CYCLIC,
    CartesianDist,
    cartesian_dist,
)
from repro.vmachine.comm import Communicator

__all__ = ["HPFArray", "parse_dist_spec"]

_CYCLIC_K = re.compile(r"^cyclic\((\d+)\)$")


def parse_dist_spec(spec: str) -> tuple[str, int]:
    """Parse one per-dimension spec into (kind, block size)."""
    spec = spec.strip().lower()
    if spec == "block":
        return BLOCK, 0
    if spec == "cyclic":
        return CYCLIC, 0
    if spec == "*":
        return COLLAPSED, 0
    m = _CYCLIC_K.match(spec)
    if m:
        return BLOCK_CYCLIC, int(m.group(1))
    raise ValueError(f"unknown HPF distribution spec {spec!r}")


class HPFArray:
    """One rank's piece of an HPF-distributed array."""

    def __init__(self, comm: Communicator, dist: CartesianDist, local: np.ndarray):
        if dist.nprocs != comm.size:
            raise ValueError(
                f"distribution spans {dist.nprocs} procs, communicator has {comm.size}"
            )
        expected = dist.local_size(comm.rank)
        if local.size != expected:
            raise ValueError(
                f"rank {comm.rank}: local storage {local.size} != {expected}"
            )
        self.comm = comm
        self.dist = dist
        # Zero-copy: any strided ndarray (transposed, sliced,
        # non-contiguous) is first-class local storage; the compiled
        # data plane addresses it in place in logical (C) order.
        self.local = accept_local(local)

    # -- collective constructors ------------------------------------------------

    @classmethod
    def distribute(
        cls,
        comm: Communicator,
        shape: tuple[int, ...],
        specs: tuple[str, ...],
        grid: tuple[int, ...] | None = None,
        dtype=np.float64,
    ) -> "HPFArray":
        """``!hpf$ distribute A(spec, spec, ...)``: zeros with the mapping."""
        dist = cartesian_dist(
            shape, tuple(map(parse_dist_spec, specs)), comm.size, grid)
        return cls(comm, dist, np.zeros(dist.local_size(comm.rank), dtype=dtype))

    @classmethod
    def from_global(
        cls,
        comm: Communicator,
        full: np.ndarray,
        specs: tuple[str, ...],
        grid: tuple[int, ...] | None = None,
    ) -> "HPFArray":
        """Each rank takes its elements of a replicated global array."""
        dist = cartesian_dist(
            full.shape, tuple(map(parse_dist_spec, specs)), comm.size, grid)
        mine = dist.owned_global(comm.rank)
        local = full.reshape(-1)[mine]
        return cls(comm, dist, local.copy())

    @classmethod
    def from_function(
        cls,
        comm: Communicator,
        shape: tuple[int, ...],
        fn: Callable[..., np.ndarray],
        specs: tuple[str, ...],
        grid: tuple[int, ...] | None = None,
        dtype=np.float64,
    ) -> "HPFArray":
        """Owner-computes init from ``fn(*global_index_arrays)``.

        ``fn`` receives one flat index array per dimension (the global
        coordinates of this rank's elements, element-aligned) and returns
        the element values.
        """
        dist = cartesian_dist(
            shape, tuple(map(parse_dist_spec, specs)), comm.size, grid)
        arr = cls(comm, dist, np.zeros(dist.local_size(comm.rank), dtype=dtype))
        mine = dist.owned_global(comm.rank)
        coords = np.unravel_index(mine, shape)
        arr.local[:] = fn(*coords)
        return arr

    # -- views --------------------------------------------------------------------

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self.dist.global_shape

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.dist.local_shape(self.comm.rank)

    @property
    def local_nd(self) -> np.ndarray:
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

    def aligned_with(self, other: "HPFArray") -> bool:
        """True when both arrays share the same distribution."""
        return self.dist == other.dist

    # -- test/debug helpers ----------------------------------------------------------

    def gather_global(self) -> np.ndarray | None:
        """Collect the full global array on rank 0 (testing oracle)."""
        pieces = self.comm.gather((self.comm.rank, read_flat(self.local).copy()))
        if pieces is None:
            return None
        out = np.zeros(int(np.prod(self.global_shape)), dtype=self.dtype)
        for rank, local in pieces:
            out[self.dist.owned_global(rank)] = local
        return out.reshape(self.global_shape)

    def __repr__(self) -> str:
        return (
            f"HPFArray(shape={self.global_shape}, dist={self.dist}, "
            f"rank={self.comm.rank}/{self.comm.size})"
        )
