"""HPF-style Cartesian distributions.

Each dimension of a global array is distributed independently over one
axis of a processor grid with one of the classic HPF patterns::

    BLOCK            contiguous equal blocks (last block may be short)
    CYCLIC           round-robin single elements
    BLOCK_CYCLIC(k)  round-robin blocks of k elements
    COLLAPSED        dimension not distributed (every rank spans it)

All index arithmetic is closed-form and vectorized — this is the reason
regular-library dereferencing is orders of magnitude cheaper than Chaos
translation-table lookups (paper Tables 2 vs 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distrib.base import DistDescriptor, Distribution
from repro.distrib.section import Section

__all__ = [
    "BLOCK",
    "CYCLIC",
    "BLOCK_CYCLIC",
    "COLLAPSED",
    "DimDist",
    "CartesianDist",
    "proc_grid",
]

BLOCK = "block"
CYCLIC = "cyclic"
BLOCK_CYCLIC = "block_cyclic"
COLLAPSED = "collapsed"


def proc_grid(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nprocs`` into a balanced ``ndims``-dimensional grid.

    Mirrors ``MPI_Dims_create``: repeatedly peel the largest prime factor
    onto the currently smallest grid axis, then sort descending so earlier
    (slower-varying) dimensions get the larger factors.
    """
    if nprocs < 1 or ndims < 1:
        raise ValueError("nprocs and ndims must be positive")
    dims = [1] * ndims
    n = nprocs
    factors: list[int] = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


@dataclass(frozen=True)
class DimDist:
    """Distribution of one dimension over ``procs`` grid slots."""

    kind: str
    size: int
    procs: int
    block: int = 0  # only for BLOCK_CYCLIC

    def __post_init__(self):
        if self.kind not in (BLOCK, CYCLIC, BLOCK_CYCLIC, COLLAPSED):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.size < 0 or self.procs < 1:
            raise ValueError("bad size/procs")
        if self.kind == COLLAPSED and self.procs != 1:
            raise ValueError("COLLAPSED dimensions use exactly one grid slot")
        if self.kind == BLOCK_CYCLIC and self.block < 1:
            raise ValueError("BLOCK_CYCLIC needs a positive block size")

    # -- forward map: global index -> (proc coord, local coord) -------------

    def map(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = np.asarray(g, dtype=np.int64)
        if self.kind == COLLAPSED:
            return np.zeros_like(g), g
        if self.kind == BLOCK:
            b = -(-self.size // self.procs)
            pc = g // b
            return pc, g - pc * b
        if self.kind == CYCLIC:
            return g % self.procs, g // self.procs
        # BLOCK_CYCLIC
        k, p = self.block, self.procs
        blk = g // k
        pc = blk % p
        lc = (blk // p) * k + (g % k)
        return pc, lc

    # -- inverse map ---------------------------------------------------------

    def unmap(self, pc: np.ndarray, lc: np.ndarray) -> np.ndarray:
        """Global index of local coordinate ``lc`` on proc coordinate ``pc``."""
        pc = np.asarray(pc, dtype=np.int64)
        lc = np.asarray(lc, dtype=np.int64)
        if self.kind == COLLAPSED:
            return lc.copy()
        if self.kind == BLOCK:
            b = -(-self.size // self.procs)
            return pc * b + lc
        if self.kind == CYCLIC:
            return lc * self.procs + pc
        k, p = self.block, self.procs
        return (lc // k * p + pc) * k + (lc % k)

    # -- extents -------------------------------------------------------------

    def extent(self, pc: np.ndarray | int) -> np.ndarray | int:
        """Number of indices owned by proc coordinate(s) ``pc``."""
        scalar = np.isscalar(pc)
        pc = np.asarray(pc, dtype=np.int64)
        if self.kind == COLLAPSED:
            out = np.full_like(pc, self.size)
        elif self.kind == BLOCK:
            b = -(-self.size // self.procs)
            out = np.clip(self.size - pc * b, 0, b)
        elif self.kind == CYCLIC:
            out = (self.size - pc + self.procs - 1) // self.procs
            out = np.clip(out, 0, None)
        else:
            k, p = self.block, self.procs
            full = self.size // (k * p)
            rem = self.size - full * k * p
            out = full * k + np.clip(rem - pc * k, 0, k)
        return int(out) if scalar else out

    def block_bounds(self, pc: int) -> tuple[int, int]:
        """Contiguous owned interval ``[lo, hi)`` for BLOCK/COLLAPSED dims.

        Raises for CYCLIC/BLOCK_CYCLIC, whose ownership is not an interval.
        """
        if self.kind == COLLAPSED:
            return 0, self.size
        if self.kind == BLOCK:
            b = -(-self.size // self.procs)
            lo = min(pc * b, self.size)
            return lo, min(lo + b, self.size)
        raise ValueError(f"{self.kind} ownership is not contiguous")


class CartesianDist(Distribution):
    """Per-dimension Cartesian distribution of an n-D global array.

    ``dims[d].procs`` defines the processor-grid axis lengths; their
    product must equal ``nprocs``.  Ranks map to grid coordinates in C
    order (last axis fastest).  Local storage on each rank is its local
    block flattened in C order.
    """

    def __init__(self, dims: tuple[DimDist, ...]):
        if not dims:
            raise ValueError("need at least one dimension")
        self.dims = tuple(dims)
        self.global_shape = tuple(d.size for d in dims)
        self.grid = tuple(d.procs for d in dims)
        self.nprocs = int(np.prod(self.grid))
        self.size = int(np.prod(self.global_shape)) if self.global_shape else 0
        # Per-dim local extent by proc coordinate: a plain int when every
        # grid slot holds the same number (dividing sizes, COLLAPSED), so
        # the owner map multiplies by a constant instead of recomputing
        # the extent of every element's owner.
        extents = [d.extent(np.arange(d.procs)) for d in dims]
        self._extents = tuple(
            int(e[0]) if (e == e[0]).all() else e for e in extents
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def block_nd(cls, shape: tuple[int, ...], nprocs: int) -> "CartesianDist":
        """(BLOCK, BLOCK, ...) over a balanced processor grid."""
        grid = proc_grid(nprocs, len(shape))
        return cls(
            tuple(DimDist(BLOCK, n, p) for n, p in zip(shape, grid))
        )

    @classmethod
    def block_1d(cls, shape: tuple[int, ...], nprocs: int, axis: int = 0) -> "CartesianDist":
        """BLOCK along one axis, COLLAPSED elsewhere."""
        dims = []
        for d, n in enumerate(shape):
            if d == axis:
                dims.append(DimDist(BLOCK, n, nprocs))
            else:
                dims.append(DimDist(COLLAPSED, n, 1))
        return cls(tuple(dims))

    # -- grid/rank conversions -------------------------------------------------

    def rank_of_coords(self, coords: tuple[np.ndarray, ...]) -> np.ndarray:
        return np.ravel_multi_index(coords, self.grid).astype(np.int64)

    def coords_of_rank(self, rank: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(rank, self.grid))

    def local_shape(self, rank: int) -> tuple[int, ...]:
        coords = self.coords_of_rank(rank)
        return tuple(int(d.extent(c)) for d, c in zip(self.dims, coords))

    def local_size(self, rank: int) -> int:
        return int(np.prod(self.local_shape(rank)))

    def owned_block(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Per-dim contiguous owned intervals (BLOCK/COLLAPSED dims only)."""
        coords = self.coords_of_rank(rank)
        return tuple(d.block_bounds(c) for d, c in zip(self.dims, coords))

    # -- Distribution API ------------------------------------------------------

    def owner_of_flat(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gidx = np.asarray(gidx, dtype=np.int64)
        # unravel_index is also the bounds check (ValueError outside
        # [0, size)).  Rank and local offset are both C-order ravels —
        # of the proc coords against the grid, and of the local coords
        # against the owner's local shape — accumulated dimension by
        # dimension: r = r * procs_d + pc_d, o = o * extent_d(pc_d) + lc_d.
        multi = np.unravel_index(gidx, self.global_shape)
        ranks = offsets = None
        for d, g, extent in zip(self.dims, multi, self._extents):
            lc = g  # a dimension on one grid slot: proc coord 0 throughout
            if d.procs > 1:
                pc, lc = d.map(g)
                ranks = pc if ranks is None else ranks * d.procs + pc
                if not isinstance(extent, int):
                    extent = extent[pc]
            offsets = lc if offsets is None else offsets * extent + lc
        if ranks is None:
            ranks = np.zeros_like(gidx)
        return ranks, offsets

    def local_to_global(self, rank: int, offsets: np.ndarray) -> np.ndarray:
        offsets = np.asarray(offsets, dtype=np.int64)
        coords = self.coords_of_rank(rank)
        lshape = self.local_shape(rank)
        lcs = np.unravel_index(offsets, lshape)
        gcoords = [
            d.unmap(np.full_like(lc, c), lc)
            for d, c, lc in zip(self.dims, coords, lcs)
        ]
        return np.ravel_multi_index(gcoords, self.global_shape).astype(np.int64)

    # -- regular-section dereference (the cheap path) ---------------------------

    def section_map(
        self, section: Section, order: str = "C"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owners and local offsets of every element of ``section``.

        Element order is the section's ``order`` linearization
        (row-major over the section's index grid by default): position
        ``i`` of the returned arrays is linearization index ``i``.

        Closed form: each dimension's indices are mapped once (O(sum of
        the section's per-dim counts)) and the per-element rank and
        offset are built by broadcasting those per-dim tables — a few
        whole-array operations, no per-element un-ravelling and no table
        lookups.
        """
        if len(section.starts) != len(self.dims):
            raise ValueError("section rank mismatch")
        if section.exceeds(self.global_shape):
            raise IndexError(
                f"section {section} exceeds global shape {self.global_shape}"
            )
        ranks = offsets = None
        for d, dim in enumerate(self.dims):
            pc, lc = dim.map(section.dim_indices(d))
            if ranks is None:
                ranks, offsets = pc, lc
            else:
                ranks = ranks[..., None] * dim.procs + pc
                offsets = offsets[..., None] * dim.extent(pc) + lc
        return ranks.ravel(order=order), offsets.ravel(order=order)

    # -- descriptor ------------------------------------------------------------

    def descriptor(self) -> DistDescriptor:
        payload = tuple(
            (d.kind, d.size, d.procs, d.block) for d in self.dims
        )
        # A few words per dimension — compact, cheap to exchange.
        return DistDescriptor(kind="cartesian", payload=payload, nbytes=32 * len(self.dims))

    @classmethod
    def from_descriptor_payload(cls, payload) -> "CartesianDist":
        return cls(
            tuple(DimDist(kind, size, procs, block) for kind, size, procs, block in payload)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, CartesianDist) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{d.kind}({d.size}/{d.procs}{',' + str(d.block) if d.kind == BLOCK_CYCLIC else ''})"
            for d in self.dims
        )
        return f"CartesianDist({parts})"
