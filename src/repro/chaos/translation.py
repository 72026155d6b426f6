"""Chaos translation tables.

A translation table maps every global index of an irregularly distributed
array to its (owner processor, local offset).  Dereferencing through the
table is the expensive primitive that dominates Chaos-style schedule
building ("the cost of the schedule computation for Chaos is dominated by
the calls to the Chaos dereference function", paper §5.1) — every lookup
is charged :attr:`~repro.vmachine.cost_model.MachineProfile.deref`.

Two storage layouts:

- :class:`TranslationTable` — fully replicated on every rank (the common
  Chaos configuration; memory cost equals the data size per rank);
- :class:`PagedTranslationTable` — pages block-distributed across ranks;
  dereferencing unowned pages requires a collective request/reply round
  (memory-scalable, slower — the trade-off the ablation benchmark
  ``bench_ablation_paged_table`` quantifies).
"""

from __future__ import annotations

import numpy as np

from repro.core.runs import KeyGroups
from repro.distrib.irregular import IrregularDist
from repro.vmachine.comm import Communicator
from repro.vmachine.process import current_process

__all__ = ["TranslationTable", "PagedTranslationTable"]

_TAG_TTABLE_REQ = 1 << 18
_TAG_TTABLE_REP = (1 << 18) + 1


class TranslationTable:
    """Replicated translation table over an :class:`IrregularDist`."""

    def __init__(self, dist: IrregularDist):
        self.dist = dist

    @classmethod
    def from_owners(cls, owners: np.ndarray, nprocs: int) -> "TranslationTable":
        """Build from a per-element owner array (a partitioner's output)."""
        return cls(IrregularDist(owners, nprocs))

    @classmethod
    def from_distribution(cls, dist, size: int) -> "TranslationTable":
        """Pointwise-ify any distribution into an explicit table.

        This is what the paper's Table 2 baseline does to make Chaos copy
        a *regular* mesh: "a Chaos-style translation table has to be
        created to describe the pointwise data distribution".  The rank
        calling this is charged the O(size) construction (one cheap
        dereference per element plus table memory traffic).
        """
        gidx = np.arange(size, dtype=np.int64)
        owners, _ = dist.owner_of_flat(gidx)
        proc = current_process()
        proc.charge_deref_regular(size)
        proc.charge_mem(16 * size)
        return cls(IrregularDist(owners, dist.nprocs))

    @property
    def size(self) -> int:
        return self.dist.size

    @property
    def nprocs(self) -> int:
        return self.dist.nprocs

    @property
    def nbytes(self) -> int:
        """Memory footprint per rank (replicated: owner + offset words)."""
        return 16 * self.dist.size

    def local_size(self, rank: int) -> int:
        return self.dist.local_size(rank)

    def dereference(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner rank and local offset of each global index (charged)."""
        gidx = np.asarray(gidx, dtype=np.int64)
        current_process().charge_deref_irregular(len(gidx))
        return self.dist.owner_of_flat(gidx)

    def local_indices(self, rank: int) -> np.ndarray:
        """Global indices owned by ``rank`` (ascending; uncharged metadata)."""
        return self.dist.owned_global(rank)

    def __repr__(self) -> str:
        return f"TranslationTable(size={self.size}, nprocs={self.nprocs})"


class PagedTranslationTable:
    """Translation table with pages block-distributed across the ranks.

    Rank ``r`` stores the owner/offset entries for global indices in its
    page interval.  :meth:`dereference` is collective: queries are routed
    to page owners, answered there, and returned — trading one
    request/reply communication round for O(size/P) instead of O(size)
    memory per rank.
    """

    def __init__(self, comm: Communicator, owners: np.ndarray):
        owners = np.asarray(owners, dtype=np.int64)
        self.comm = comm
        self.size = len(owners)
        self.nprocs = comm.size
        self._page = -(-self.size // comm.size) if comm.size else self.size
        # Build the full dist once (host-side construction), keep my page.
        full = IrregularDist(owners, comm.size)
        lo = comm.rank * self._page
        hi = min(self.size, lo + self._page)
        gidx = np.arange(lo, hi, dtype=np.int64)
        my_owners, my_offsets = full.owner_of_flat(gidx)
        self._lo = lo
        self._my_owners = my_owners
        self._my_offsets = my_offsets
        self._local_sizes = [full.local_size(r) for r in range(comm.size)]
        current_process().charge_mem(16 * (hi - lo))

    @property
    def nbytes(self) -> int:
        """Per-rank memory: one page only."""
        return 16 * len(self._my_owners)

    def local_size(self, rank: int) -> int:
        return self._local_sizes[rank]

    def dereference(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Collective paged dereference (all ranks must call).

        Queries hitting the local page are answered locally; others are
        shipped to the page owner, looked up there (charged there), and
        shipped back.
        """
        comm = self.comm
        proc = current_process()
        gidx = np.asarray(gidx, dtype=np.int64)
        pages = np.clip(gidx // self._page if self._page else 0, 0, comm.size - 1)
        groups = KeyGroups(pages)
        by_page = dict(zip(groups.keys, groups.selectors()))
        incoming = comm.alltoall_sparse(
            {p: gidx[sel] for p, sel in by_page.items()}
        )
        replies: dict[int, tuple] = {}
        for src, queried in incoming.items():
            local = queried - self._lo
            proc.charge_deref_irregular(len(local))
            replies[src] = (self._my_owners[local], self._my_offsets[local])
        answered = comm.alltoall_sparse(replies)
        ranks = np.empty(len(gidx), dtype=np.int64)
        offsets = np.empty(len(gidx), dtype=np.int64)
        for p, sel in by_page.items():
            ranks[sel], offsets[sel] = answered[p]
        return ranks, offsets
