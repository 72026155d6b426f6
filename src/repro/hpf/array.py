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

from repro.core.registry import DistArray
from repro.distrib.cartesian import (
    BLOCK,
    BLOCK_CYCLIC,
    COLLAPSED,
    CYCLIC,
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


class HPFArray(DistArray):
    """One rank's piece of an HPF-distributed array."""

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
        return cls.zeros_over(comm, dist, dtype)

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
        return cls.from_global_over(comm, dist, full)

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
        arr = cls.distribute(comm, shape, specs, grid, dtype)
        arr.local[:] = fn(*np.unravel_index(arr.my_globals(), shape))
        return arr

    def aligned_with(self, other: "HPFArray") -> bool:
        """True when both arrays share the same distribution."""
        return self.dist == other.dist
