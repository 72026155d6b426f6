"""HPF TEMPLATE / ALIGN directives: affine-aligned distributions.

Real HPF programs rarely distribute every array directly; they declare an
abstract ``TEMPLATE``, distribute *it*, and ``ALIGN`` arrays to template
cells::

    !hpf$ template T(100, 100)
    !hpf$ distribute T(block, block)
    !hpf$ align A(i, j) with T(i + 2, 2*j)       ! offset and stride
    !hpf$ align x(i)    with T(i, *)             ! collapse a template axis

Aligned arrays inherit the template's distribution through the affine map:
element ``A[i0, i1, ...]`` lives where template cell
``(offset[k] + stride[k] * i_axis(k))`` lives.  Ownership of each array
dimension is therefore an *interval* of the dimension's index space
whenever the targeted template axis is BLOCK-distributed — which keeps the
derived :class:`AlignedDist` closed-form (the property the regular
libraries' cheap dereferencing rests on).  CYCLIC template axes are not
supported for alignment targets (their ownership is not an interval);
distribute such arrays directly instead.

Alignment with ``*`` (an unused template axis) is allowed only when that
axis is not distributed — true replication across processor rows would
break the unique-owner model every library here shares.
"""

from __future__ import annotations

import numpy as np

from repro.distrib.base import DistDescriptor, Distribution, register_descriptor_kind
from repro.distrib.cartesian import BLOCK, COLLAPSED, CartesianDist, cartesian_dist
from repro.hpf.array import HPFArray, parse_dist_spec
from repro.vmachine.comm import Communicator

__all__ = ["Template", "AlignedDist", "align_array"]


class Template:
    """An abstract distributed index space (``!hpf$ template`` +
    ``!hpf$ distribute``)."""

    def __init__(
        self,
        shape: tuple[int, ...],
        specs: tuple[str, ...],
        nprocs: int,
        grid: tuple[int, ...] | None = None,
    ):
        self.dist = cartesian_dist(
            shape, tuple(map(parse_dist_spec, specs)), nprocs, grid)
        for d in self.dist.dims:
            if d.kind not in (BLOCK, COLLAPSED):
                raise ValueError(
                    "alignment templates support BLOCK/'*' axes only "
                    f"(axis kind {d.kind!r} not alignable)"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dist.global_shape

    @property
    def ndim(self) -> int:
        return len(self.shape)


class AlignedDist(Distribution):
    """Distribution of an array aligned to a template by an affine map.

    ``axes[d]`` is the template axis array dimension ``d`` targets;
    ``offsets[d]``/``strides[d]`` give the affine map
    ``t = offset + stride * i``.  Template axes not targeted by any array
    dimension must be undistributed (grid extent 1).
    """

    def __init__(
        self,
        template: CartesianDist,
        array_shape: tuple[int, ...],
        axes: tuple[int, ...],
        offsets: tuple[int, ...],
        strides: tuple[int, ...],
    ):
        if not (len(array_shape) == len(axes) == len(offsets) == len(strides)):
            raise ValueError("axes/offsets/strides must match the array rank")
        if len(set(axes)) != len(axes):
            raise ValueError("two array dimensions target the same template axis")
        tdims = template.dims
        for d, (ax, off, st, n) in enumerate(zip(axes, offsets, strides, array_shape)):
            if not 0 <= ax < len(tdims):
                raise ValueError(f"dimension {d}: template axis {ax} out of range")
            if st == 0:
                raise ValueError("alignment stride must be nonzero")
            if st < 0:
                raise ValueError("negative alignment strides are not supported")
            if tdims[ax].kind not in (BLOCK, COLLAPSED):
                raise ValueError(
                    f"template axis {ax} is {tdims[ax].kind}; only BLOCK/'*' "
                    "axes can be alignment targets"
                )
            last = off + st * (n - 1)
            if off < 0 or last >= tdims[ax].size:
                raise ValueError(
                    f"dimension {d} maps onto template cells [{off}, {last}] "
                    f"outside axis extent {tdims[ax].size}"
                )
        used = set(axes)
        for ax, dim in enumerate(tdims):
            if ax not in used and dim.procs != 1:
                raise ValueError(
                    f"template axis {ax} is distributed but unused; true "
                    "replication is not supported — collapse it or target it"
                )
        self.template = template
        self.array_shape = tuple(array_shape)
        self.axes = tuple(axes)
        self.offsets = tuple(offsets)
        self.strides = tuple(strides)
        self.nprocs = template.nprocs
        self.size = int(np.prod(self.array_shape)) if self.array_shape else 0

    @property
    def global_shape(self) -> tuple[int, ...]:
        """The aligned array's own shape (what HPFArray exposes)."""
        return self.array_shape

    # -- owned boxes -----------------------------------------------------------

    def owned_box(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Per-array-dim interval ``[lo, hi)`` of indices owned by ``rank``."""
        coords = self.template.coords_of_rank(rank)
        out = []
        for d in range(len(self.array_shape)):
            ax = self.axes[d]
            tdim = self.template.dims[ax]
            tlo, thi = tdim.block_bounds(coords[ax])
            off, st, n = self.offsets[d], self.strides[d], self.array_shape[d]
            # indices i with tlo <= off + st*i < thi
            lo = max(0, -(-(tlo - off) // st))
            hi = min(n, -(-(thi - off) // st))
            out.append((lo, max(lo, hi)))
        return tuple(out)

    def local_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.owned_box(rank))

    def local_size(self, rank: int) -> int:
        return int(np.prod(self.local_shape(rank)))

    # -- Distribution API --------------------------------------------------------

    def owner_of_flat(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gidx = np.asarray(gidx, dtype=np.int64)
        multi = np.unravel_index(gidx, self.array_shape)
        # Template proc coordinates per template axis (unused axes stay 0).
        pcs = [np.zeros(gidx.shape, dtype=np.int64) for _ in self.template.dims]
        for d, i in enumerate(multi):
            ax = self.axes[d]
            t = self.offsets[d] + self.strides[d] * i
            pc, _ = self.template.dims[ax].map(t)
            pcs[ax] = pc
        ranks = self.template.rank_of_coords(tuple(pcs))
        # Local offset: C-order position within the rank's owned box.
        offsets = np.zeros_like(gidx)
        stride_acc = np.ones_like(gidx)
        for d in range(len(self.array_shape) - 1, -1, -1):
            ax = self.axes[d]
            tdim = self.template.dims[ax]
            pc = pcs[ax]
            if tdim.kind == COLLAPSED:
                tlo = np.zeros_like(gidx)
                thi = np.full_like(gidx, tdim.size)
            else:
                b = -(-tdim.size // tdim.procs)
                tlo = np.minimum(pc * b, tdim.size)
                thi = np.minimum(tlo + b, tdim.size)
            off, st, n = self.offsets[d], self.strides[d], self.array_shape[d]
            lo = np.maximum(0, -(-(tlo - off) // st))
            hi = np.minimum(n, -(-(thi - off) // st))
            extent = np.maximum(0, hi - lo)
            local = multi[d] - lo
            offsets = offsets + local * stride_acc
            stride_acc = stride_acc * extent
        return ranks, offsets

    def local_to_global(self, rank: int, offsets: np.ndarray) -> np.ndarray:
        offsets = np.asarray(offsets, dtype=np.int64)
        box = self.owned_box(rank)
        lshape = tuple(hi - lo for lo, hi in box)
        lcs = np.unravel_index(offsets, lshape)
        gcoords = [lc + box[d][0] for d, lc in enumerate(lcs)]
        return np.ravel_multi_index(gcoords, self.array_shape).astype(np.int64)

    def descriptor(self) -> DistDescriptor:
        payload = (
            self.template.descriptor().payload,
            self.array_shape,
            self.axes,
            self.offsets,
            self.strides,
        )
        return DistDescriptor(kind="aligned", payload=payload, nbytes=128)

    @classmethod
    def from_descriptor_payload(cls, payload) -> "AlignedDist":
        tpayload, shape, axes, offsets, strides = payload
        template = CartesianDist.from_descriptor_payload(tpayload)
        return cls(template, shape, axes, offsets, strides)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlignedDist)
            and self.template == other.template
            and self.array_shape == other.array_shape
            and self.axes == other.axes
            and self.offsets == other.offsets
            and self.strides == other.strides
        )

    def __hash__(self) -> int:
        return hash((self.template, self.array_shape, self.axes,
                     self.offsets, self.strides))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"i{d}->T[{ax}]@{off}+{st}*i"
            for d, (ax, off, st) in enumerate(
                zip(self.axes, self.offsets, self.strides)
            )
        )
        return f"AlignedDist({parts})"


def align_array(
    comm: Communicator,
    shape: tuple[int, ...],
    template: Template,
    axes: tuple[int, ...] | None = None,
    offsets: tuple[int, ...] | None = None,
    strides: tuple[int, ...] | None = None,
    dtype=np.float64,
) -> HPFArray:
    """``!hpf$ align`` — an HPF array aligned to a distributed template.

    Defaults give the identity alignment (``A(i,...) with T(i,...)``).
    """
    ndim = len(shape)
    axes = tuple(axes) if axes is not None else tuple(range(ndim))
    offsets = tuple(offsets) if offsets is not None else (0,) * ndim
    strides = tuple(strides) if strides is not None else (1,) * ndim
    dist = AlignedDist(template.dist, shape, axes, offsets, strides)
    return HPFArray.zeros_over(comm, dist, dtype)


register_descriptor_kind("aligned", AlignedDist.from_descriptor_payload)
