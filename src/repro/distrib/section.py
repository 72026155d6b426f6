"""Regular array sections (Fortran-90 triplet notation).

A :class:`Section` is the ``start:stop:step`` rectangle used as the Region
type of the regular libraries (HPF, Multiblock Parti): ``A[l1:u1:s1,
l2:u2:s2, ...]`` with zero-based, exclusive-stop Python conventions.

The linearization of a section is its row-major (C-order) element order,
matching the paper's definition ("if the Region is an array section, and
the array is laid out in row major order ... the linearization of the
section is the row major ordering of the elements of the regular
section").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Section"]


@dataclass(frozen=True)
class Section:
    """A rectangular strided section of an n-dimensional index space."""

    starts: tuple[int, ...]
    stops: tuple[int, ...]
    steps: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.starts) == len(self.stops) == len(self.steps)):
            raise ValueError("starts/stops/steps must have equal length")
        for lo, hi, st in zip(self.starts, self.stops, self.steps):
            if st <= 0:
                raise ValueError(f"step must be positive, got {st}")
            if lo < 0 or hi < lo:
                raise ValueError(f"bad bounds [{lo}:{hi}]")

    @classmethod
    def from_slices(cls, slices: tuple[slice, ...], shape: tuple[int, ...]) -> "Section":
        """Build from Python slices resolved against ``shape``."""
        starts, stops, steps = [], [], []
        for sl, n in zip(slices, shape):
            lo, hi, st = sl.indices(n)
            if st <= 0:
                raise ValueError("negative/zero steps are not supported")
            starts.append(lo)
            stops.append(hi)
            steps.append(st)
        return cls(tuple(starts), tuple(stops), tuple(steps))

    @classmethod
    def full(cls, shape: tuple[int, ...]) -> "Section":
        """The section covering the whole index space."""
        return cls(tuple(0 for _ in shape), tuple(shape), tuple(1 for _ in shape))

    @property
    def ndim(self) -> int:
        return len(self.starts)

    @property
    def counts(self) -> tuple[int, ...]:
        """Number of selected indices per dimension."""
        return tuple(
            max(0, -(-(hi - lo) // st))
            for lo, hi, st in zip(self.starts, self.stops, self.steps)
        )

    @property
    def size(self) -> int:
        """Total number of selected elements."""
        n = 1
        for c in self.counts:
            n *= c
        return n

    @property
    def last(self) -> tuple[int, ...]:
        """Last selected index per dimension (of a nonempty section)."""
        return tuple(
            lo + (c - 1) * st
            for lo, c, st in zip(self.starts, self.counts, self.steps)
        )

    def exceeds(self, shape: tuple[int, ...]) -> bool:
        """Does any selected index fall outside an array of ``shape``?"""
        return self.size > 0 and any(i >= n for i, n in zip(self.last, shape))

    def dim_indices(self, d: int) -> np.ndarray:
        """Global indices selected along dimension ``d`` (ascending)."""
        return np.arange(
            self.starts[d], self.stops[d], self.steps[d], dtype=np.int64
        )

    def global_flat(self, shape: tuple[int, ...], order: str = "C") -> np.ndarray:
        """Flat global indices of all elements, in linearization order.

        ``shape`` is the global array shape the section indexes into
        (global storage is always C/flat-major here); ``order`` selects
        the *enumeration* order of the section's elements: ``"C"``
        (row-major, last dimension fastest — C arrays, the default) or
        ``"F"`` (column-major, first dimension fastest — what an HPF/
        Fortran library's linearization naturally is).
        O(size) memory; used by adapters and the test oracle.
        """
        if len(shape) != self.ndim:
            raise ValueError("shape rank mismatch")
        if order not in ("C", "F"):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        if not self.ndim:
            return np.zeros(0, dtype=np.int64)
        if self.exceeds(shape):
            raise ValueError(f"section {self} exceeds global shape {tuple(shape)}")
        # Row-major flattening as one broadcast pass per dimension:
        # flat = (...(i0 * n1 + i1) * n2 + i2 ...).
        flat = self.dim_indices(0)
        for d in range(1, self.ndim):
            flat = flat[..., None] * shape[d] + self.dim_indices(d)
        return flat.ravel(order=order)

    def split_range(
        self, lo: int, hi: int, order: str = "C"
    ) -> list["Section"]:
        """Sub-sections whose linearizations, concatenated, are positions
        ``[lo, hi)`` of this section's ``order`` linearization.

        A contiguous run of a row-major enumeration is a partial first
        row, a block of whole rows and a partial last row, recursively
        per dimension — at most ``2 * ndim - 1`` rectangles, found with
        O(ndim) integer arithmetic.  This is what lets a contiguous
        linearization chunk be dereferenced box by box in closed form,
        without materialising and un-ravelling its positions.
        """
        if order not in ("C", "F"):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        if not 0 <= lo <= hi <= self.size:
            raise IndexError("linearization position out of range")
        counts = self.counts
        # axes from slowest- to fastest-varying in the enumeration
        axes = list(range(self.ndim))
        if order == "F":
            axes.reverse()
        boxes: list[list[tuple[int, int]]] = []

        def walk(lo, hi, level, box):
            if lo == hi:
                return
            if level == len(axes):
                boxes.append(box)
                return
            inner = 1
            for ax in axes[level + 1 :]:
                inner *= counts[ax]
            (i_lo, r_lo), (i_hi, r_hi) = divmod(lo, inner), divmod(hi, inner)
            if i_lo == i_hi:
                walk(r_lo, r_hi, level + 1, box + [(i_lo, i_lo + 1)])
                return
            if r_lo:
                walk(r_lo, inner, level + 1, box + [(i_lo, i_lo + 1)])
                i_lo += 1
            if i_lo < i_hi:
                boxes.append(
                    box + [(i_lo, i_hi)]
                    + [(0, counts[ax]) for ax in axes[level + 1 :]]
                )
            walk(0, r_hi, level + 1, box + [(i_hi, i_hi + 1)])

        walk(lo, hi, 0, [])
        out = []
        for box in boxes:
            # per-dim [first, last] selected positions -> global bounds
            spans = [span for _, span in sorted(zip(axes, box))]
            out.append(Section(
                tuple(
                    lo_d + a * st
                    for lo_d, st, (a, _) in zip(self.starts, self.steps, spans)
                ),
                tuple(
                    lo_d + (b - 1) * st + 1
                    for lo_d, st, (_, b) in zip(self.starts, self.steps, spans)
                ),
                self.steps,
            ))
        return out

    def lin_to_multi(
        self, lin: np.ndarray, order: str = "C"
    ) -> tuple[np.ndarray, ...]:
        """Per-dim *global* indices of the given linearization positions."""
        lin = np.asarray(lin, dtype=np.int64)
        if order == "C":
            sub = np.unravel_index(lin, self.counts)
        elif order == "F":
            # First dimension fastest: peel coordinates low-dim first.
            sub = []
            rest = lin
            for c in self.counts:
                sub.append(rest % c)
                rest = rest // c
            sub = tuple(sub)
        else:
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        return tuple(
            self.starts[d] + sub[d] * self.steps[d] for d in range(self.ndim)
        )

    def intersect_block(
        self, lows: tuple[int, ...], highs: tuple[int, ...]
    ) -> "Section | None":
        """Intersect with the axis-aligned block ``[lows, highs)``.

        Returns the sub-section of *this* section that falls inside the
        block (same steps), or ``None`` if empty.  This closed-form
        per-dimension intersection is what makes Multiblock Parti's native
        regular-section schedules cheap (paper Table 5).
        """
        starts, stops = [], []
        for d in range(self.ndim):
            lo, hi, st = self.starts[d], self.stops[d], self.steps[d]
            blo, bhi = lows[d], highs[d]
            # First selected index >= blo: ceil((blo - lo)/st) steps in.
            if blo > lo:
                k = -(-(blo - lo) // st)
                new_lo = lo + k * st
            else:
                new_lo = lo
            new_hi = min(hi, bhi)
            if new_lo >= new_hi:
                return None
            starts.append(new_lo)
            stops.append(new_hi)
        return Section(tuple(starts), tuple(stops), tuple(self.steps))

    def lin_offset_of(self, other: "Section") -> np.ndarray | None:
        """Linearization positions (within *this* section) of every element
        of ``other``, where ``other`` must be a sub-section with the same
        steps (as produced by :meth:`intersect_block`).

        Returned in ``other``'s own linearization order.
        """
        per_dim = []
        for d in range(self.ndim):
            idx = other.dim_indices(d)
            rel = idx - self.starts[d]
            if ((rel % self.steps[d]) != 0).any():
                return None
            pos = rel // self.steps[d]
            if (pos < 0).any() or (pos >= self.counts[d]).any():
                return None
            per_dim.append(pos)
        lin = per_dim[0]
        for d in range(1, self.ndim):
            lin = lin[..., None] * self.counts[d] + per_dim[d]
        return lin.ravel()

    def __repr__(self) -> str:
        parts = ",".join(
            f"{lo}:{hi}:{st}"
            for lo, hi, st in zip(self.starts, self.stops, self.steps)
        )
        return f"Section[{parts}]"
