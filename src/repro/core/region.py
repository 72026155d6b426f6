"""Regions: compact global descriptions of groups of elements (§4.1.1).

"A Region is an instantiation of a Region type, which must be defined by
each data parallel library."  Two Region types cover the libraries in this
reproduction:

- :class:`SectionRegion` — a regularly strided array section; the Region
  type of HPF and Multiblock Parti.  Its linearization is row-major order
  over the section.
- :class:`IndexRegion` — an explicit ordered list of global (flat)
  indices; the Region type of Chaos and the pC++ collection.  Its
  linearization is the listed order.

Every Region answers the vectorized questions needed by the schedule
builder:

- ``size`` — how many elements it selects;
- ``lin_to_global(positions, shape)`` — the flat global index of each
  linearization position;
- ``range_to_global(lo, hi, shape)`` — the same for the contiguous
  position range ``[lo, hi)``, without materialising the positions;
- ``check_fits(shape)`` — whether every selected element exists in a data
  structure of that shape.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.distrib.section import Section

__all__ = ["Region", "SectionRegion", "IndexRegion", "MaskRegion"]


class Region(abc.ABC):
    """One compact group of elements of a distributed data structure."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of elements selected by the region."""

    @abc.abstractmethod
    def lin_to_global(
        self, positions: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Flat global indices of the given linearization positions.

        ``shape`` is the global shape of the data structure the region
        belongs to (needed to flatten multi-dimensional indices).
        """

    @abc.abstractmethod
    def range_to_global(
        self, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Flat global indices of linearization positions ``[lo, hi)``,
        without materialising the positions.

        May return a view of the region's own description: read-only use.
        """

    @abc.abstractmethod
    def check_fits(self, shape: tuple[int, ...]) -> None:
        """Raise ``ValueError`` (naming the region, the offending index
        and ``shape``) unless every selected element exists in a data
        structure of global shape ``shape``."""

    @abc.abstractmethod
    def global_flat(self, shape: tuple[int, ...]) -> np.ndarray:
        """All selected flat global indices, in linearization order."""

    @abc.abstractmethod
    def nbytes_descriptor(self) -> int:
        """Size of the region's compact description when shipped."""


class SectionRegion(Region):
    """A regular array section ``[l1:u1:s1, l2:u2:s2, ...]``.

    Built either from an explicit :class:`~repro.distrib.section.Section`
    or with :meth:`from_bounds` mirroring the paper's
    ``CreateRegion_HPF(ndims, lower, upper[, stride])`` constructor.

    ``order`` selects the library's linearization convention for the
    section's elements: ``"C"`` (row-major, the default — C-style
    libraries like pC++) or ``"F"`` (column-major — Fortran libraries
    like HPF, whose arrays enumerate the first dimension fastest).  Two
    regions of equal shape but different orders define *different*
    element correspondences, exactly as two differently written libraries
    would.
    """

    def __init__(self, section: Section, order: str = "C"):
        if order not in ("C", "F"):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        self.section = section
        self.order = order

    @classmethod
    def from_bounds(
        cls,
        lower: tuple[int, ...],
        upper: tuple[int, ...],
        stride: tuple[int, ...] | None = None,
        order: str = "C",
    ) -> "SectionRegion":
        """Inclusive-bounds constructor (``upper`` is the last index taken),
        matching the Fortran-flavoured interface in the paper's Figure 9."""
        if stride is None:
            stride = tuple(1 for _ in lower)
        stops = tuple(u + 1 for u in upper)
        return cls(Section(tuple(lower), stops, tuple(stride)), order)

    @property
    def size(self) -> int:
        return self.section.size

    def lin_to_global(
        self, positions: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        gcoords = self.section.lin_to_multi(
            np.asarray(positions, dtype=np.int64), order=self.order
        )
        return np.ravel_multi_index(gcoords, shape).astype(np.int64, copy=False)

    def range_to_global(
        self, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        boxes = self.section.split_range(lo, hi, self.order)
        if not boxes:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([b.global_flat(shape, self.order) for b in boxes])

    def check_fits(self, shape: tuple[int, ...]) -> None:
        sec = self.section
        if sec.ndim != len(shape):
            raise ValueError(
                f"{self!r} has {sec.ndim} dimension(s) but the data "
                f"structure has shape {tuple(shape)}"
            )
        if sec.exceeds(shape):
            raise ValueError(
                f"{self!r} selects index {sec.last} outside the data "
                f"structure's shape {tuple(shape)}"
            )

    def global_flat(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.section.global_flat(shape, order=self.order)

    def nbytes_descriptor(self) -> int:
        return 24 * self.section.ndim

    def __repr__(self) -> str:
        suffix = "" if self.order == "C" else ", order='F'"
        return f"SectionRegion({self.section}{suffix})"


class MaskRegion(Region):
    """A boolean mask over the global index space (HPF ``WHERE`` style).

    Selects every element whose mask entry is True; the linearization is
    the C-order (or ``"F"``-order) enumeration of the selected positions.
    Internally stored as the equivalent flat index list, so adapters see
    it through the same vectorized interface as :class:`IndexRegion`, but
    its compact description is the mask itself (1 bit per global element
    — between a section's O(ndim) and an index list's O(n) words).
    """

    def __init__(self, mask: np.ndarray, order: str = "C"):
        mask = np.asarray(mask, dtype=bool)
        if order not in ("C", "F"):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        self.mask_shape = mask.shape
        self.order = order
        # Flat (C-storage) indices of selected elements, enumerated in the
        # requested order.
        flat = np.flatnonzero(mask.ravel(order="C"))
        if order == "F":
            coords = np.unravel_index(flat, mask.shape)
            forder = np.ravel_multi_index(
                coords, mask.shape, order="F"
            ).argsort(kind="stable")
            flat = flat[forder]
        self.indices = flat.astype(np.int64)

    @property
    def size(self) -> int:
        return len(self.indices)

    def lin_to_global(
        self, positions: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        self.check_fits(shape)
        return self.indices[np.asarray(positions, dtype=np.int64)]

    def range_to_global(
        self, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        self.check_fits(shape)
        return self.indices[lo:hi]

    def check_fits(self, shape: tuple[int, ...]) -> None:
        if tuple(shape) != tuple(self.mask_shape):
            raise ValueError(
                f"{self!r}: mask shape {self.mask_shape} does not match "
                f"the data structure's shape {tuple(shape)}"
            )

    def global_flat(self, shape: tuple[int, ...]) -> np.ndarray:
        self.check_fits(shape)
        return self.indices.copy()

    def nbytes_descriptor(self) -> int:
        # One bit per global element.
        total = 1
        for n in self.mask_shape:
            total *= n
        return max(1, total // 8)

    def __repr__(self) -> str:
        return f"MaskRegion(shape={self.mask_shape}, n={self.size})"


class IndexRegion(Region):
    """An explicit ordered set of global flat indices.

    The order of ``indices`` *is* the linearization — distinct orders are
    distinct regions (this is how a Chaos program expresses an arbitrary
    pointwise mapping).
    """

    def __init__(self, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("IndexRegion takes a 1-D index list")
        if len(indices) and indices.min() < 0:
            raise ValueError("negative global index")
        self.indices = indices

    @property
    def size(self) -> int:
        return len(self.indices)

    def lin_to_global(
        self, positions: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        return self.indices[np.asarray(positions, dtype=np.int64)]

    def range_to_global(
        self, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        return self.indices[lo:hi]

    def check_fits(self, shape: tuple[int, ...]) -> None:
        total = 1
        for n in shape:
            total *= n
        worst = int(self.indices.max(initial=-1))
        if worst >= total:
            raise ValueError(
                f"{self!r} selects global index {worst} but the data "
                f"structure has shape {tuple(shape)} ({total} elements)"
            )

    def global_flat(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.indices.copy()

    def nbytes_descriptor(self) -> int:
        # The index list itself must travel with the region description.
        return int(self.indices.nbytes)

    def __repr__(self) -> str:
        return f"IndexRegion(n={self.size})"
