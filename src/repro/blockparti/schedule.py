"""Native Multiblock Parti communication schedules.

Two schedule kinds, both built by closed-form block intersection (no
per-element table lookups — the library's defining optimization):

- :class:`GhostSchedule` — overlap/ghost-cell fill along the block
  boundaries of one array, for stencil sweeps;
- :class:`PartiCopySchedule` — regular-section copy between two block
  arrays ("inter-block boundaries must be updated at every time-step" in
  multiblock CFD codes; the baseline of paper Table 5).

The regular-section copy is built in a *single* ownership pass: each rank
intersects the source section with its own block, computes — still in
closed form — both the destination owners *and* destination offsets of
those elements, keeps its send lists, and ships each receiver its
receive-half piece.  Meta-Chaos cannot collapse the two sides like this
(it must dereference source and destination through the opaque
linearization interface), which is exactly the small extra overhead
Table 5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockparti.array import BlockPartiArray
from repro.core.region import SectionRegion
from repro.core.runs import KeyGroups
from repro.core.wire import RunEncoded
from repro.distrib.section import Section
from repro.vmachine.process import current_process

__all__ = [
    "GhostSchedule",
    "build_ghost_schedule",
    "PartiCopySchedule",
    "build_copy_schedule",
]

_TAG_GHOST = 1 << 16
_TAG_PIECES = (1 << 16) + 1
_TAG_COPY = (1 << 16) + 2


# ---------------------------------------------------------------------------
# ghost-cell fill
# ---------------------------------------------------------------------------


@dataclass
class _Face:
    """One ghost exchange along one dimension with one neighbor."""

    dim: int
    direction: int  # -1: neighbor at lower indices, +1: higher
    neighbor: int   # communicator rank


@dataclass
class GhostSchedule:
    """Overlap-fill schedule for one BlockPartiArray."""

    width: int
    faces: list[_Face]
    local_shape: tuple[int, ...]

    def exchange(self, arr: BlockPartiArray) -> np.ndarray:
        """Fill and return a ghost-extended copy of the local block.

        The returned array extends every dimension by ``width`` on both
        sides; ghosts beyond the global boundary remain zero.  One message
        per face (aggregated slab).
        """
        w = self.width
        comm = arr.comm
        proc = current_process()
        local = arr.local_nd
        ext_shape = tuple(n + 2 * w for n in local.shape)
        ext = np.zeros(ext_shape, dtype=arr.dtype)
        interior = tuple(slice(w, w + n) for n in local.shape)
        ext[interior] = local
        proc.charge_mem(local.nbytes)

        # Send boundary slabs (pack cost per element), then receive.
        for face in self.faces:
            slab = self._boundary_slab(local, face.dim, face.direction, w)
            proc.charge_pack(slab.size)
            # .copy(): the transport is zero-copy, and the sweep mutates
            # the local block right after the exchange.
            comm.send(face.neighbor, slab.copy(), _TAG_GHOST + face.dim * 2 + (face.direction > 0))
        for face in self.faces:
            # The matching message comes from the opposite direction.
            recv_tag = _TAG_GHOST + face.dim * 2 + (face.direction < 0)
            slab = comm.recv(face.neighbor, recv_tag)
            proc.charge_pack(slab.size)
            self._ghost_slab(ext, face.dim, face.direction, w)[...] = slab
        return ext

    @staticmethod
    def _boundary_slab(local: np.ndarray, dim: int, direction: int, w: int) -> np.ndarray:
        sl = [slice(None)] * local.ndim
        sl[dim] = slice(0, w) if direction < 0 else slice(local.shape[dim] - w, None)
        return local[tuple(sl)]

    def _ghost_slab(self, ext: np.ndarray, dim: int, direction: int, w: int) -> np.ndarray:
        sl = [slice(w, w + n) for n in self.local_shape]
        sl[dim] = slice(0, w) if direction < 0 else slice(ext.shape[dim] - w, None)
        return ext[tuple(sl)]


def build_ghost_schedule(arr: BlockPartiArray, width: int = 1) -> GhostSchedule:
    """Inspector for the overlap fill: find neighbor ranks per dimension.

    Purely local closed-form work on the processor grid (charged as a few
    block intersections).
    """
    proc = current_process()
    proc.charge_startup()
    dist = arr.dist
    coords = dist.coords_of_rank(arr.comm.rank)
    faces: list[_Face] = []
    for dim, d in enumerate(dist.dims):
        if d.procs <= 1:
            continue
        for direction in (-1, +1):
            ncoord = coords[dim] + direction
            if 0 <= ncoord < d.procs:
                ncoords = list(coords)
                ncoords[dim] = ncoord
                neighbor = int(np.ravel_multi_index(tuple(ncoords), dist.grid))
                faces.append(_Face(dim, direction, neighbor))
    proc.charge_locate(len(faces) + 1, 0)
    return GhostSchedule(width=width, faces=faces, local_shape=arr.local_shape)


# ---------------------------------------------------------------------------
# regular-section copy
# ---------------------------------------------------------------------------


@dataclass
class PartiCopySchedule:
    """Send/receive lists for one regular-section copy (one rank's view)."""

    sends: dict[int, np.ndarray] = field(default_factory=dict)
    recvs: dict[int, np.ndarray] = field(default_factory=dict)
    n_elements: int = 0

    def execute(self, src: BlockPartiArray, dst: BlockPartiArray) -> None:
        """Move the data.  Unlike Meta-Chaos, Parti stages *all* transfers
        through a communication buffer — including a processor's
        transfers to itself (the paper's §5.3 inefficiency at small P) —
        so the local path is charged two packing passes.
        """
        comm = src.comm
        proc = current_process()
        for d in sorted(self.sends):
            offs = self.sends[d]
            if len(offs) == 0:
                continue
            buf = src.local[offs]
            proc.charge_pack(len(offs))
            if d == comm.rank:
                # Through the intermediate buffer, then scatter.
                dst.local[self.recvs[d]] = buf
                proc.charge_pack(len(offs))
            else:
                comm.send(d, buf, _TAG_COPY)
        for s in sorted(self.recvs):
            offs = self.recvs[s]
            if len(offs) == 0 or s == comm.rank:
                continue
            buf = comm.recv(s, _TAG_COPY)
            dst.local[offs] = buf
            proc.charge_pack(len(offs))


def build_copy_schedule(
    src: BlockPartiArray,
    src_region: SectionRegion | Section,
    dst: BlockPartiArray,
    dst_region: SectionRegion | Section,
) -> PartiCopySchedule:
    """Inspector for a regular-section copy (collective on the comm).

    Single ownership pass: the sender side computes everything in closed
    form, including receiver offsets, and distributes the receive halves.
    """
    src_sec = src_region.section if isinstance(src_region, SectionRegion) else src_region
    dst_sec = dst_region.section if isinstance(dst_region, SectionRegion) else dst_region
    if src_sec.size != dst_sec.size:
        raise ValueError(
            f"section element counts differ: {src_sec.size} vs {dst_sec.size}"
        )
    comm = src.comm
    if dst.comm is not comm:
        raise ValueError("both arrays must be distributed by the same program")
    proc = current_process()
    proc.charge_startup()

    sched = PartiCopySchedule(n_elements=src_sec.size)

    # My source elements: closed-form intersection with my owned block.
    block = src.dist.owned_block(comm.rank)
    sub = src_sec.intersect_block(
        tuple(b[0] for b in block), tuple(b[1] for b in block)
    )
    recv_pieces: list[tuple | None] = [None] * comm.size
    if sub is not None and sub.size:
        lin = src_sec.lin_offset_of(sub)
        _, soffs = src.dist.owner_of_flat(sub.global_flat(src.global_shape))
        # Destination owners/offsets of the same linearization positions —
        # still closed form, one combined pass.
        dsub = _section_positions(dst_sec, lin)
        dranks, doffs = dst.dist.owner_of_flat(
            np.ravel_multi_index(dsub, dst.global_shape)
        )
        # Native Parti never dereferences element-by-element: ownership on
        # both sides comes from per-run block intersections, with only the
        # offset-array expansion paid per element.  (Meta-Chaos pays the
        # full per-element dereference through its opaque interface — the
        # small Table 5 overhead.)
        nruns = max(1, sub.size // max(1, sub.counts[-1]))
        proc.charge_locate(nruns * 2, 2 * len(lin))
        by_dst = KeyGroups(dranks)
        for d, so, do in zip(
            by_dst.keys, by_dst.split(soffs), by_dst.split(doffs)
        ):
            sched.sends[d] = so
            recv_pieces[d] = RunEncoded(do)

    # Dense distribution of receive halves (every rank to every rank, so
    # receivers know exactly what to expect).
    for d in range(comm.size):
        if d == comm.rank:
            continue
        comm.send(d, recv_pieces[d], _TAG_PIECES)
    for s in range(comm.size):
        piece = recv_pieces[s] if s == comm.rank else comm.recv(s, _TAG_PIECES)
        if piece is not None and len(piece):
            sched.recvs[s] = piece.array
    return sched


def _section_positions(section: Section, lin: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-dim global indices of section linearization positions."""
    return section.lin_to_multi(lin)
