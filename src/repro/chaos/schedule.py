"""Chaos communication schedules: inspector/executor and pointwise copy.

Two schedule kinds:

- :class:`GatherSchedule` (from :func:`build_gather_schedule`) — the
  classic Chaos *inspector* for indirection-array accesses [Saltz et al.]:
  references are hashed and deduplicated, the unique off-processor ones
  are dereferenced through the translation table, and request lists are
  exchanged so owners know what to ship.  The *executor*
  (:meth:`GatherSchedule.gather` / :meth:`GatherSchedule.scatter_add`)
  then moves data with one aggregated message per processor pair per
  sweep.

- :class:`ChaosCopySchedule` (from :func:`build_chaos_copy_schedule`) —
  a pointwise copy between two translation-table-managed arrays given an
  explicit index mapping.  This is how plain Chaos implements the
  regular<->irregular mesh remap of paper Table 2: the regular mesh must
  first be wrapped in a pointwise translation table, and the copy
  executor pays an extra internal buffer copy and an extra level of
  indirection — the overheads the paper contrasts with Meta-Chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.array import ChaosArray
from repro.chaos.translation import TranslationTable
from repro.core.runs import KeyGroups, RunList
from repro.vmachine.comm import Communicator
from repro.vmachine.process import current_process

__all__ = [
    "GatherSchedule",
    "build_gather_schedule",
    "ChaosCopySchedule",
    "build_chaos_copy_schedule",
]

_TAG_GATHER = 1 << 17
_TAG_SCATTER = (1 << 17) + 1
_TAG_COPY = (1 << 17) + 2

# Extra internal-copy factor of the Chaos copy executor (paper §5.1: "the
# Chaos implementation internally requires an extra copy of the data and
# also an extra level of indirect data access").
_CHAOS_COPY_OVERHEAD = 1.35


@dataclass
class GatherSchedule:
    """Executor-side state for one indirection access pattern.

    ``positions`` maps each original reference to a slot of the *gather
    buffer*, whose layout is ``[all local elements | halo]``.  ``sends``
    are, per requesting rank, the local offsets they need; ``halo`` are,
    per owner rank, the buffer slots their shipment fills.
    """

    nlocal: int
    positions: np.ndarray
    sends: dict[int, np.ndarray] = field(default_factory=dict)
    halo: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def halo_size(self) -> int:
        return int(sum(len(v) for v in self.halo.values()))

    def gather(self, array: ChaosArray) -> np.ndarray:
        """Fill and return the gather buffer (one message per owner pair)."""
        comm = array.comm
        proc = current_process()
        buffer = np.empty(self.nlocal + self.halo_size, dtype=array.dtype)
        buffer[: self.nlocal] = array.local
        proc.charge_mem(array.local.nbytes)
        for requester in sorted(self.sends):
            offs = self.sends[requester]
            proc.charge_pack(len(offs))
            comm.send(requester, array.local[offs], _TAG_GATHER)
        for owner in sorted(self.halo):
            slots = self.halo[owner]
            values = comm.recv(owner, _TAG_GATHER)
            proc.charge_pack(len(slots))
            buffer[slots] = values
        return buffer

    def scatter_add(self, array: ChaosArray, contrib: np.ndarray) -> None:
        """Accumulate buffer-shaped contributions back into the owners.

        The local slice adds in place; halo contributions travel to their
        owners (reverse of :meth:`gather`) and are added there.
        """
        comm = array.comm
        proc = current_process()
        array.local += contrib[: self.nlocal]
        proc.charge_mem(array.local.nbytes)
        for owner in sorted(self.halo):
            slots = self.halo[owner]
            proc.charge_pack(len(slots))
            comm.send(owner, contrib[slots], _TAG_SCATTER)
        for requester in sorted(self.sends):
            offs = self.sends[requester]
            values = comm.recv(requester, _TAG_SCATTER)
            proc.charge_pack(len(offs))
            np.add.at(array.local, offs, values)


def build_gather_schedule(
    array: ChaosArray, global_refs: np.ndarray
) -> tuple[GatherSchedule, np.ndarray]:
    """Chaos inspector (collective): localize ``global_refs``.

    Returns the schedule and the *localized* reference array: positions
    into the gather buffer, aligned with ``global_refs``.  References are
    deduplicated first (hash cost per reference), so the translation
    table is dereferenced once per *unique* reference.
    """
    comm = array.comm
    proc = current_process()
    proc.charge_startup()
    refs = np.asarray(global_refs, dtype=np.int64)
    proc.charge_hash(len(refs))
    uniq, inverse = np.unique(refs, return_inverse=True)
    owners, offsets = array.table.dereference(uniq)

    me = comm.rank
    mine = owners == me
    positions_of_unique = np.empty(len(uniq), dtype=np.int64)
    positions_of_unique[mine] = offsets[mine]

    sched = GatherSchedule(nlocal=array.local.size, positions=np.empty(0, dtype=np.int64))
    # Group the off-processor references by owner; halo slots are assigned
    # in (owner, reference) order after the local block.
    requests: dict[int, np.ndarray] = {}
    halo_base = array.local.size
    other = np.flatnonzero(~mine)
    if len(other):
        order = other[np.argsort(owners[other], kind="stable")]
        owner_sorted = owners[order]
        bounds_idx = np.flatnonzero(np.diff(owner_sorted)) + 1
        groups = np.split(order, bounds_idx)
        for group in groups:
            owner = int(owners[group[0]])
            slots = halo_base + np.arange(len(group), dtype=np.int64)
            halo_base += len(group)
            positions_of_unique[group] = slots
            sched.halo[owner] = slots
            requests[owner] = offsets[group]
    # Tell each owner which of its elements we need (offset lists; for
    # irregular meshes these barely compress, matching Chaos reality).
    incoming = comm.alltoall_sparse(
        {owner: RunList.from_dense(offs) for owner, offs in requests.items()}
    )
    for requester, enc in incoming.items():
        if requester != me:
            sched.sends[requester] = enc.dense()
    sched.positions = positions_of_unique
    return sched, positions_of_unique[inverse]


@dataclass
class ChaosCopySchedule:
    """Pointwise copy schedule between two irregular arrays (one rank)."""

    sends: dict[int, np.ndarray] = field(default_factory=dict)
    recvs: dict[int, np.ndarray] = field(default_factory=dict)
    n_elements: int = 0

    def reverse(self) -> "ChaosCopySchedule":
        return ChaosCopySchedule(
            sends=dict(self.recvs), recvs=dict(self.sends), n_elements=self.n_elements
        )

    def execute(
        self, src_local: np.ndarray, dst_local: np.ndarray, comm: Communicator
    ) -> None:
        """Move the data.  Pays the Chaos extra-internal-copy overhead on
        both the pack and unpack sides, and stages even the local part
        through a buffer."""
        proc = current_process()
        for d in sorted(self.sends):
            offs = self.sends[d]
            if not len(offs):
                continue
            proc.charge_pack(len(offs) * _CHAOS_COPY_OVERHEAD)
            buf = src_local[offs]
            if d == comm.rank:
                dst_local[self.recvs[d]] = buf
                proc.charge_pack(len(offs) * _CHAOS_COPY_OVERHEAD)
            else:
                comm.send(d, buf, _TAG_COPY)
        for s in sorted(self.recvs):
            offs = self.recvs[s]
            if not len(offs) or s == comm.rank:
                continue
            buf = comm.recv(s, _TAG_COPY)
            proc.charge_pack(len(offs) * _CHAOS_COPY_OVERHEAD)
            dst_local[offs] = buf


def build_chaos_copy_schedule(
    comm: Communicator,
    src_table: TranslationTable,
    src_gidx: np.ndarray,
    dst_table: TranslationTable,
    dst_gidx: np.ndarray,
) -> ChaosCopySchedule:
    """Chaos-native inspector for ``dst[dst_gidx[k]] = src[src_gidx[k]]``.

    The (replicated) mapping is scanned once per rank (hash cost); each
    rank handles the entries whose destination element it owns, looks its
    own addresses up locally, dereferences the *source* side through the
    source translation table (the dominating cost), and ships each source
    owner its send list.
    """
    src_gidx = np.asarray(src_gidx, dtype=np.int64)
    dst_gidx = np.asarray(dst_gidx, dtype=np.int64)
    if len(src_gidx) != len(dst_gidx):
        raise ValueError("mapping sides differ in length")
    proc = current_process()
    proc.charge_startup()
    me = comm.rank

    # Which mapping entries land on me?  One scan of the replicated
    # mapping against my ownership (hash per entry).
    proc.charge_hash(len(dst_gidx))
    dst_owner = dst_table.dist.owners[dst_gidx]
    k_mine = np.flatnonzero(dst_owner == me)
    my_dst_offsets = dst_table.dist.offset_within_owner(dst_gidx[k_mine])

    # Dereference the source side for my entries (the expensive pass).
    sranks, soffs = src_table.dereference(src_gidx[k_mine])

    sched = ChaosCopySchedule(n_elements=len(src_gidx))
    by_src = KeyGroups(sranks)
    requests: dict[int, RunList] = {}
    for s, so, do in zip(
        by_src.keys, by_src.split(soffs), by_src.split(my_dst_offsets)
    ):
        sched.recvs[s] = do
        requests[s] = RunList.from_dense(so)
    incoming = comm.alltoall_sparse(requests)
    for requester, enc in incoming.items():
        sched.sends[requester] = enc.dense()
    return sched
