"""Irregularly distributed one-dimensional arrays (the Chaos data type)."""

from __future__ import annotations

import numpy as np

from repro.chaos.translation import TranslationTable
from repro.core.registry import DistArray
from repro.vmachine.comm import Communicator

__all__ = ["ChaosArray"]


class ChaosArray(DistArray):
    """One rank's piece of an irregularly distributed 1-D array.

    Local storage holds the rank's elements ordered by ascending global
    index (the Chaos convention baked into
    :class:`~repro.distrib.irregular.IrregularDist`).  The distribution is
    the translation table's, ``table.dist``.
    """

    def __init__(self, comm: Communicator, table: TranslationTable, local: np.ndarray):
        super().__init__(comm, table.dist, local)
        self.table = table

    # -- collective constructors ------------------------------------------------

    @classmethod
    def zeros(
        cls, comm: Communicator, owners: np.ndarray, dtype=np.float64
    ) -> "ChaosArray":
        """Distributed zeros from a partitioner's owner map."""
        table = TranslationTable.from_owners(owners, comm.size)
        return cls.zeros_over(comm, table, dtype)

    @classmethod
    def from_global(
        cls, comm: Communicator, full: np.ndarray, owners: np.ndarray
    ) -> "ChaosArray":
        """Each rank slices its elements out of a replicated global array."""
        table = TranslationTable.from_owners(owners, comm.size)
        return cls(comm, table, full[table.local_indices(comm.rank)])

    @classmethod
    def like(cls, other: "ChaosArray", dtype=None) -> "ChaosArray":
        """Same distribution (shared table), fresh zero storage."""
        return cls.zeros_over(other.comm, other.table, dtype or other.dtype)
