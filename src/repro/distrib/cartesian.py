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

import threading
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
    "cartesian_dist",
    "proc_grid",
]

BLOCK = "block"
CYCLIC = "cyclic"
BLOCK_CYCLIC = "block_cyclic"
COLLAPSED = "collapsed"

#: distributions :func:`cartesian_dist` keeps (oldest evicted first): arrays
#: of one shape share one, immutable apart from its per-rank ``local_shape``
#: memo
DIST_MEMO_SIZE = 128


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
        self._local_shapes: dict[int, tuple[int, ...]] = {}  # rank -> shape

    # -- grid/rank conversions -------------------------------------------------

    def rank_of_coords(self, coords: tuple[np.ndarray, ...]) -> np.ndarray:
        return np.ravel_multi_index(coords, self.grid).astype(np.int64)

    def coords_of_rank(self, rank: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(rank, self.grid))

    def local_shape(self, rank: int) -> tuple[int, ...]:
        shape = self._local_shapes.get(rank)
        if shape is None:  # the dist is immutable: compute once per rank
            coords = self.coords_of_rank(rank)
            shape = self._local_shapes[rank] = tuple(
                int(d.extent(c)) for d, c in zip(self.dims, coords))
        return shape

    def local_size(self, rank: int) -> int:
        return int(np.prod(self.local_shape(rank)))

    def owned_block(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Per-dim contiguous owned intervals (BLOCK/COLLAPSED dims only)."""
        coords = self.coords_of_rank(rank)
        return tuple(d.block_bounds(c) for d, c in zip(self.dims, coords))

    # -- Distribution API ------------------------------------------------------

    def owner_of_flat(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gidx = np.asarray(gidx, dtype=np.int64)
        # unravel_index is also the bounds check (ValueError outside [0, size))
        return self.owner_of_coords(np.unravel_index(gidx, self.global_shape))

    def owner_of_coords(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """The one Cartesian dereference kernel: owner rank and local offset
        of per-dimension global coordinates (int64 arrays that broadcast
        together; not bounds-checked).  Both are C-order ravels — of the
        proc coords against the grid, of the local coords against the
        owner's local shape — accumulated dimension by dimension:
        r = r * procs_d + pc_d, o = o * extent_d(pc_d) + lc_d."""
        ranks = offsets = None
        for d, g, extent in zip(self.dims, coords, self._extents):
            lc = g  # a dimension on one grid slot: proc coord 0 throughout
            if d.procs > 1:
                pc, lc = d.map(g)
                ranks = pc if ranks is None else ranks * d.procs + pc
                if not isinstance(extent, int):
                    extent = extent[pc]
            offsets = lc if offsets is None else offsets * extent + lc
        return (np.zeros_like(offsets) if ranks is None else ranks), offsets

    def owned_global(self, rank: int) -> np.ndarray:
        # The C-order product of the per-dim owned indices, ravelled once.
        flat = None
        for d, c, e, n in zip(self.dims, self.coords_of_rank(rank),
                              self.local_shape(rank), self.global_shape):
            g = d.unmap(c, np.arange(e))
            flat = g if flat is None else flat[..., None] * n + g
        return flat.ravel()

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
        the section's per-dim counts)) and :meth:`owner_of_coords`
        broadcasts those per-dim tables into the per-element rank and
        offset — a few whole-array operations, no per-element
        un-ravelling and no table lookups.
        """
        if len(section.starts) != len(self.dims):
            raise ValueError("section rank mismatch")
        if section.exceeds(self.global_shape):
            raise IndexError(
                f"section {section} exceeds global shape {self.global_shape}"
            )
        nd = len(self.dims)  # dimension d's indices along axis d of the grid
        ranks, offsets = self.owner_of_coords([
            section.dim_indices(d).reshape((-1,) + (1,) * (nd - 1 - d))
            for d in range(nd)])
        if ranks.shape != offsets.shape:  # trailing dims on one grid slot
            ranks = np.broadcast_to(ranks, offsets.shape)
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


_memo: dict[tuple, CartesianDist] = {}  # cartesian_dist's arguments -> dist
_memo_lock = threading.Lock()


def cartesian_dist(
    shape: tuple[int, ...],
    kinds: tuple[tuple[str, int], ...],
    nprocs: int,
    grid: tuple[int, ...] | None = None,
) -> CartesianDist:
    """The distribution every regular library builds: one ``(kind, block)``
    per axis of ``shape`` (what :func:`repro.hpf.array.parse_dist_spec`
    returns) over ``nprocs`` processors.

    ``grid`` gives one processor-grid extent per axis; by default the
    distributed (non-COLLAPSED) axes share a balanced grid.  An axis on
    one grid slot is COLLAPSED whatever its kind.  Equal (tuple)
    arguments return one shared object, for the last
    :data:`DIST_MEMO_SIZE` of them: a miss builds under a lock, so ranks
    asking together still share it, and a build that raises stores
    nothing.
    """
    key = (shape, kinds, nprocs, grid)
    dist = _memo.get(key)
    if dist is None:
        with _memo_lock:
            dist = _memo.get(key)
            if dist is None:
                dist = _build(shape, kinds, nprocs, grid)
                if len(_memo) >= DIST_MEMO_SIZE:
                    del _memo[next(iter(_memo))]
                _memo[key] = dist
    return dist


def _build(shape, kinds, nprocs, grid) -> CartesianDist:
    if len(kinds) != len(shape):
        raise ValueError("one distribution spec per dimension required")
    if grid is None:
        distributed = [i for i, (k, _) in enumerate(kinds) if k != COLLAPSED]
        if distributed:
            axis_lengths = proc_grid(nprocs, len(distributed))
        else:
            axis_lengths = ()
            if nprocs != 1:
                raise ValueError(
                    "a fully collapsed array can only live on one processor"
                )
        full = [1] * len(shape)
        for i, p in zip(distributed, axis_lengths):
            full[i] = p
        grid = tuple(full)
    elif len(grid) != len(shape):
        raise ValueError(f"grid {grid} does not have one axis per dimension")
    if int(np.prod(grid)) != nprocs:
        raise ValueError(f"grid {grid} does not cover {nprocs} processors")
    dims = []
    for (kind, k), n, p in zip(kinds, shape, grid):
        if kind == COLLAPSED and p != 1:
            raise ValueError("COLLAPSED ('*') dimensions must have grid extent 1")
        dims.append(DimDist(kind if p > 1 else COLLAPSED, n, p, k))
    return CartesianDist(tuple(dims))
