"""Distributed collections of elements (the pC++ data model).

A collection distributes ``n`` elements over the ranks with a cyclic,
block, or explicit layout (pC++ aligns collections to "processor object"
grids; cyclic is its default for load balance).  Methods are invoked
element-parallel, owner-computes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.dataplane import read_flat, write_flat
from repro.core.registry import DistArray
from repro.distrib.cartesian import BLOCK, CYCLIC, cartesian_dist
from repro.distrib.base import Distribution
from repro.distrib.irregular import IrregularDist
from repro.vmachine.comm import Communicator
from repro.vmachine.process import current_process

__all__ = ["DistributedCollection"]


class DistributedCollection(DistArray):
    """One rank's slice of a distributed element collection."""

    @classmethod
    def create(
        cls,
        comm: Communicator,
        n: int,
        layout: str = "cyclic",
        owners: np.ndarray | None = None,
        dtype=np.float64,
    ) -> "DistributedCollection":
        """Collection of ``n`` zero elements.

        ``layout`` is ``"cyclic"`` (pC++ default), ``"block"``, or
        ``"explicit"`` with an ``owners`` map.
        """
        if layout in ("cyclic", "block"):
            kind = CYCLIC if layout == "cyclic" else BLOCK
            dist: Distribution = cartesian_dist((n,), ((kind, 0),), comm.size)
        elif layout == "explicit":
            if owners is None:
                raise ValueError("explicit layout needs an owners map")
            dist = IrregularDist(owners, comm.size)
        else:
            raise ValueError(f"unknown layout {layout!r}")
        return cls.zeros_over(comm, dist, dtype)

    @classmethod
    def from_global(
        cls, comm: Communicator, full: np.ndarray, layout: str = "cyclic",
        owners: np.ndarray | None = None,
    ) -> "DistributedCollection":
        coll = cls.create(comm, len(full), layout, owners, dtype=full.dtype)
        coll.local[:] = full[coll.my_globals()]
        return coll

    # -- element-parallel methods ---------------------------------------------------

    def apply(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
              flops_per_elem: float = 1.0) -> None:
        """Element-parallel method invocation: ``e = fn(global_index, e)``."""
        write_flat(self.local, fn(self.my_globals(), read_flat(self.local)))
        current_process().charge_flops(flops_per_elem * self.local.size)

    def reduce(self, op: Callable[[float, float], float], initial: float = 0.0) -> float:
        """Collection-wide reduction (collective, returns on every rank)."""
        import functools

        local_val = functools.reduce(op, read_flat(self.local).tolist(), initial)
        current_process().charge_flops(self.local.size)
        return self.comm.allreduce(local_val, op)
