"""Data-distribution descriptors.

Pure, vectorized index arithmetic shared by all the data parallel library
analogues.  Nothing in this subpackage touches the cost model or the
communicator: a :class:`~repro.distrib.base.Distribution` answers "which
rank owns global element g, and at which local offset?" as NumPy array
operations, and the runtime libraries layer cost accounting and messaging
on top.

- :mod:`repro.distrib.cartesian` — HPF-style per-dimension BLOCK /
  CYCLIC / BLOCK_CYCLIC(k) / COLLAPSED distributions over a processor
  grid (used by the HPF runtime and Multiblock Parti analogues);
- :mod:`repro.distrib.irregular` — explicit owner maps (used by the
  Chaos analogue's translation tables and the pC++ collection).
"""

from repro.distrib.base import Distribution, DistDescriptor
from repro.distrib.cartesian import (
    BLOCK,
    BLOCK_CYCLIC,
    COLLAPSED,
    CYCLIC,
    CartesianDist,
    DimDist,
    cartesian_dist,
    proc_grid,
)
from repro.distrib.irregular import IrregularDist
from repro.distrib.section import Section

__all__ = [
    "Section",
    "Distribution",
    "DistDescriptor",
    "DimDist",
    "BLOCK",
    "CYCLIC",
    "BLOCK_CYCLIC",
    "COLLAPSED",
    "CartesianDist",
    "cartesian_dist",
    "proc_grid",
    "IrregularDist",
]
