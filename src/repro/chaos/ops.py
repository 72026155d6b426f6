"""Unstructured-mesh executors (the paper's Figure 1, loop 3)::

    forall (i = 1:Nedges)
        y(ia(i)) = y(ia(i)) + (x(ia(i)) + x(ib(i))) / 4
        y(ib(i)) = y(ib(i)) + (x(ia(i)) + x(ib(i))) / 4

``x`` and ``y`` are irregularly distributed node arrays (same
distribution); ``ia``/``ib`` are edge endpoint indices, block-distributed
over the ranks.  :class:`EdgeSweep` is the inspector/executor pair: the
inspector localizes both endpoint reference streams once
(:func:`~repro.chaos.schedule.build_gather_schedule`); the executor runs
the vectorized edge loop every timestep.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.array import ChaosArray
from repro.chaos.schedule import build_gather_schedule
from repro.vmachine.process import current_process

__all__ = ["EdgeSweep"]


class EdgeSweep:
    """Inspector/executor for the 2-endpoint edge accumulation sweep."""

    def __init__(self, x: ChaosArray, my_ia: np.ndarray, my_ib: np.ndarray):
        """Inspector: ``my_ia``/``my_ib`` are this rank's slice of the edge
        endpoint arrays (global node indices)."""
        if len(my_ia) != len(my_ib):
            raise ValueError("ia and ib must be the same length")
        self.nedges = len(my_ia)
        refs = np.concatenate([my_ia, my_ib])
        self.schedule, localized = build_gather_schedule(x, refs)
        self.loc_ia = localized[: self.nedges]
        self.loc_ib = localized[self.nedges :]

    def execute(self, x: ChaosArray, y: ChaosArray) -> None:
        """One edge sweep: gather x, accumulate into y (6 flops/edge)."""
        if y.table is not x.table and y.table.dist != x.table.dist:
            raise ValueError("x and y must share a distribution")
        buffer = self.schedule.gather(x)
        contrib = np.zeros_like(buffer)
        flux = (buffer[self.loc_ia] + buffer[self.loc_ib]) / 4.0
        np.add.at(contrib, self.loc_ia, flux)
        np.add.at(contrib, self.loc_ib, flux)
        current_process().charge_flops(6 * self.nedges)
        self.schedule.scatter_add(y, contrib)

