"""Library adapters: the interface functions every library exports (§4.1.3).

"The implementation of the schedule computation algorithm requires that a
set of procedures be provided by both the source and destination data
parallel libraries ... a standard set of inquiry functions."  A
:class:`LibraryAdapter` bundles those procedures:

- :meth:`~LibraryAdapter.deref_lin` — dereference linearization positions
  of a SetOfRegions to (owner rank, local address);
- :meth:`~LibraryAdapter.local_elements` — enumerate the calling rank's
  own elements of a SetOfRegions (with their linearization positions);
- :meth:`~LibraryAdapter.local_data` / :meth:`~LibraryAdapter.adopt_local`
  — expose (and, for donation, rebind) the rank-local storage the move
  executor gathers from and scatters into;
- :meth:`~LibraryAdapter.export_handle` — produce the exchangeable data
  descriptor the *duplication* schedule method ships between programs.

"A major concern in designing Meta-Chaos was to require that relatively
few procedures be provided by the data parallel library implementor" —
the base class derives almost everything from the library's
:class:`~repro.distrib.base.Distribution`, so a concrete adapter mostly
chooses a *cost policy* (closed-form regular arithmetic vs. per-element
translation-table lookups).

Adapters register by library name in a process-global registry, which is
what the paper's ``MC_ComputeSched(HPF, ...)`` first argument looks up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.dataplane import MoveProgram, compile_offsets, copy_compiled
from repro.core.runs import RunList
from repro.core.setofregions import SetOfRegions
from repro.core.region import SectionRegion
from repro.distrib.base import DistDescriptor, Distribution
from repro.distrib.cartesian import CartesianDist
from repro.vmachine.process import Process, current_process

__all__ = [
    "RemoteHandle",
    "LibraryAdapter",
    "register_adapter",
    "get_adapter",
    "registered_libraries",
    "ensure_safe_cast",
    "pack_segment",
    "unpack_segment",
    "copy_segment",
]


def ensure_safe_cast(src_dtype, dst_dtype) -> None:
    """Reject lossy element-type conversions during a data move.

    The single authority for which dtype pairs a move may convert: local
    direct copies, remote unpack and adapter-level copies all call this,
    so the two paths can never drift apart.  The libraries of the era
    transferred raw typed buffers, and a silent truncation would corrupt
    data undetectably.  Widening/same-kind conversions (float32 ->
    float64, int -> float) are allowed.
    """
    if not np.can_cast(src_dtype, dst_dtype, "same_kind"):
        raise TypeError(
            f"refusing lossy element conversion {src_dtype} -> "
            f"{dst_dtype} during a data move; convert explicitly first"
        )


@dataclass(frozen=True)
class RemoteHandle:
    """Exchangeable stand-in for a distributed array of another program.

    Carries everything dereferencing needs (distribution descriptor,
    global shape, element size) but no data.  ``nbytes`` is its transport
    size — dominated by the distribution descriptor, which is tiny for
    regular distributions and data-sized for Chaos translation tables.
    """

    library: str
    descriptor: DistDescriptor
    shape: tuple[int, ...]
    itemsize: int

    @property
    def nbytes(self) -> int:
        return 64 + self.descriptor.nbytes

    def materialize(self) -> "MaterializedHandle":
        return MaterializedHandle(self)


class MaterializedHandle:
    """A :class:`RemoteHandle` with its distribution rebuilt for lookups."""

    def __init__(self, remote: RemoteHandle):
        self.library = remote.library
        self.shape = remote.shape
        self.itemsize = remote.itemsize
        self.dist = remote.descriptor.materialize()


class LibraryAdapter(abc.ABC):
    """Interface functions of one data parallel library.

    Concrete adapters supply :attr:`name`, the handle introspection
    methods, and the cost policy; the heavy lifting (linearization
    arithmetic, owner lookup) is generic.
    """

    #: registry key; the paper's library identifier (e.g. "hpf", "chaos")
    name: str = ""

    # -- handle introspection (override per library) -------------------------

    @abc.abstractmethod
    def dist_of(self, handle: Any) -> Distribution:
        """The distribution of an array handle (local or materialized)."""

    @abc.abstractmethod
    def shape_of(self, handle: Any) -> tuple[int, ...]:
        """Global shape of the handle."""

    @abc.abstractmethod
    def local_data(self, array: Any) -> np.ndarray:
        """The rank-local storage of a *local* array handle.

        Any strided ndarray is acceptable — 1-D of any step,
        C-contiguous blocks, or arbitrary non-contiguous layouts
        (transposed, sliced).  The compiled data plane addresses all of
        them without a staging copy; flat offsets index the storage in
        logical (C) order.
        """

    def adopt_local(self, array: Any, values: np.ndarray) -> bool:
        """Adopt ``values`` as the array's new local storage (donation).

        Called by :func:`unpack_segment` when a received buffer may be donated
        wholesale instead of copied through.  Adapters whose arrays can
        rebind their storage return True after adopting; the default
        declines and the caller falls back to a scatter copy.
        """
        return False

    @abc.abstractmethod
    def itemsize_of(self, handle: Any) -> int:
        """Element size in bytes."""

    # -- cost policy (override per library) -----------------------------------

    @abc.abstractmethod
    def charge_deref(self, n: int) -> None:
        """Charge the cost of dereferencing ``n`` elements."""

    def charge_locate(self, nruns: int, nelems: int) -> None:
        """Charge the cost of enumerating ``nelems`` locally-owned elements
        found as ``nruns`` runs."""
        current_process().charge_locate(nruns, nelems)

    # -- derived operations (generic) ------------------------------------------

    def deref_lin(
        self, handle: Any, sor: SetOfRegions, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owner rank and local offset of each linearization position.

        This is the paper's "dereferencing an object in a SetOfRegions to
        determine the owning processor and local address, and a position
        in the linearization".
        """
        shape = self.shape_of(handle)
        gidx = sor.lin_to_global(positions, shape)
        self.charge_deref(len(gidx))
        return self.dist_of(handle).owner_of_flat(gidx)

    def deref_range(
        self, handle: Any, sor: SetOfRegions, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`deref_lin` for the contiguous position range [lo, hi).

        The positions are never materialised: the range is cut at region
        boundaries; an index-list region contributes a slice of its list,
        and a section region over a Cartesian distribution is mapped
        rectangle by rectangle with closed-form block arithmetic
        (:meth:`CartesianDist.section_map`).  Same result and the same
        dereference charge as :meth:`deref_lin` on ``arange(lo, hi)``.
        """
        shape = self.shape_of(handle)
        dist = self.dist_of(handle)
        spans = sor.split_range(lo, hi)
        self.charge_deref(hi - lo)
        parts = []
        for region, a, b in spans:
            if isinstance(region, SectionRegion) and isinstance(dist, CartesianDist):
                parts += [
                    dist.section_map(box, region.order)
                    for box in region.section.split_range(a, b, region.order)
                ]
            else:
                parts.append(
                    dist.owner_of_flat(region.range_to_global(a, b, shape))
                )
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    def local_elements(
        self, handle: Any, sor: SetOfRegions, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Linearization positions and local offsets of ``rank``'s elements.

        Generic fallback: dereference everything and filter.  Regular
        libraries override this with closed-form block intersection (no
        per-element dereference), which is what makes the duplication
        method communication-free *and* cheap for regular meshes.
        """
        n = sor.size
        ranks, offsets = self.deref_range(handle, sor, 0, n)
        mask = ranks == rank
        return np.flatnonzero(mask).astype(np.int64, copy=False), offsets[mask]

    # -- data movement ----------------------------------------------------------
    #
    # What the move executor (:mod:`repro.core.plan`) needs of an adapter
    # is :meth:`local_data` and :meth:`adopt_local`; it runs the segment
    # kernels below on rows it lowered at plan-compile time.  The four
    # methods here are one-shot conveniences over the *same* kernels, for
    # callers holding an offset list instead of a compiled plan.

    def pack(self, array: Any, offsets: np.ndarray | RunList) -> np.ndarray:
        """Gather local elements at ``offsets`` into a fresh contiguous
        buffer (:func:`pack_segment`)."""
        return pack_segment(
            current_process(), compile_offsets(offsets),
            self.local_data(array),
        )

    def pack_into(
        self, array: Any, offsets: np.ndarray | RunList, out: np.ndarray
    ) -> None:
        """:meth:`pack`, but gathering straight into caller-owned storage:
        ``out`` must be 1-D with exactly ``len(offsets)`` slots.  Same
        charge as :meth:`pack`; a lossy conversion into ``out`` is
        refused like everywhere else."""
        prog = compile_offsets(offsets)
        if len(out) != prog.n:
            raise ValueError(
                f"pack_into buffer has {len(out)} slots for "
                f"{prog.n} offsets"
            )
        pack_segment(current_process(), prog, self.local_data(array), out)

    def unpack(
        self,
        array: Any,
        offsets: np.ndarray | RunList,
        values: np.ndarray,
        donate: bool = False,
    ) -> bool:
        """Scatter buffer ``values`` into local elements at ``offsets``
        (:func:`unpack_segment`); True when ``values`` was donated."""
        return unpack_segment(
            current_process(), self, array,
            compile_offsets(offsets), self.local_data(array),
            values, donate,
        )

    def copy_local(
        self,
        src_array: Any,
        src_offsets: np.ndarray | RunList,
        dst_array: Any,
        dst_offsets: np.ndarray | RunList,
        src_adapter: "LibraryAdapter | None" = None,
    ) -> None:
        """Direct local-to-local copy (:func:`copy_segment`).  ``self`` is
        the *destination* library's adapter; pass ``src_adapter`` when the
        source array belongs to a different library."""
        copy_segment(
            current_process(),
            compile_offsets(src_offsets),
            (src_adapter or self).local_data(src_array),
            compile_offsets(dst_offsets),
            self.local_data(dst_array),
        )

    # -- duplication-method support ----------------------------------------------

    def export_handle(self, array: Any) -> RemoteHandle:
        """Exchangeable descriptor of a local array (for duplication)."""
        return RemoteHandle(
            library=self.name,
            descriptor=self.dist_of(array).descriptor(),
            shape=self.shape_of(array),
            itemsize=self.itemsize_of(array),
        )

    def resolve_handle(self, handle: Any) -> Any:
        """Accept either a local array or a RemoteHandle and return an
        object usable with the introspection methods."""
        if isinstance(handle, RemoteHandle):
            return handle.materialize()
        return handle


# -- the segment kernels --------------------------------------------------------
#
# One segment of a move: cast check -> one pack charge -> one batched NumPy
# operation, in that order, so a refused cast leaves the clock untouched.
# The executor's loops and the adapter wrappers above both end here; the
# cast rule and the pack charge exist nowhere else.  ``ensure_safe_cast``
# is only consulted when the dtypes differ (equal dtypes are always safe).
# The charge depends solely on the element count, so every program kind —
# and the fused and sequential moves built on them — costs the same
# simulated time.


def pack_segment(
    proc: Process, program: MoveProgram, data: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gather ``data[program]`` into ``out`` (a fresh buffer when None)."""
    if out is not None and out.dtype != data.dtype and program.n:
        ensure_safe_cast(data.dtype, out.dtype)
    proc.charge(proc.cost.pack(program.n), "per_element")
    return program.gather(data, out=out)


def unpack_segment(
    proc: Process, adapter: "LibraryAdapter", array: Any,
    program: MoveProgram, data: np.ndarray, values: np.ndarray,
    donate: bool = False,
) -> bool:
    """Scatter ``values`` into ``data[program]`` (``data`` is ``array``'s
    local storage) as one batched store.

    With ``donate=True`` and a program that overwrites the entire local
    storage in order (``[0, size)`` ascending, exact dtype match, 1-D
    writable buffer), the received buffer is *adopted* as the array's
    storage instead of being copied through — the zero-copy receive
    path.  Returns True when it was (the caller must then stop reusing
    or releasing it and re-read ``local_data``); same charge either way.
    """
    values = np.asarray(values)
    if values.dtype != data.dtype and program.n:
        ensure_safe_cast(values.dtype, data.dtype)
    proc.charge(proc.cost.pack(program.n), "per_element")
    if (
        donate
        and values.ndim == 1
        and values.size == program.n
        and values.dtype == data.dtype
        and values.flags.writeable
        and program.is_full_span(data.size)
        and adapter.adopt_local(array, values)
    ):
        return True
    program.scatter(data, values)
    return False


def copy_segment(
    proc: Process, src_program: MoveProgram, src_data: np.ndarray,
    dst_program: MoveProgram, dst_data: np.ndarray,
) -> None:
    """``dst_data[dst_program] = src_data[src_program]``, no staging buffer:
    the paper's advantage over Multiblock Parti's internal buffering for
    intra-processor moves (§5.3), so only one pack-side charge applies."""
    if src_data.dtype != dst_data.dtype and src_program.n:
        ensure_safe_cast(src_data.dtype, dst_data.dtype)
    proc.charge(proc.cost.pack(src_program.n), "per_element")
    copy_compiled(src_program, src_data, dst_program, dst_data)


# -- helpers shared by the regular-library adapters -----------------------------


def cartesian_local_elements(
    dist: CartesianDist,
    shape: tuple[int, ...],
    sor: SetOfRegions,
    rank: int,
    charge,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``local_elements`` for Cartesian block distributions.

    Intersects every SectionRegion with the rank's owned block per
    dimension, producing the rank's elements without dereferencing the
    rest.  Falls back to a full (cheap, vectorized) scan for CYCLIC-style
    dims where ownership is not a contiguous block, and for IndexRegions.

    ``charge(nruns, nelems)`` is the adapter's locate cost hook.
    """
    positions: list[np.ndarray] = []
    offsets: list[np.ndarray] = []
    start = 0
    contiguous = all(d.kind in ("block", "collapsed") for d in dist.dims)
    block = dist.owned_block(rank) if contiguous else None
    for region in sor.regions:
        n = region.size
        # The closed-form path assumes the default row-major linearization
        # (lin_offset_of enumerates C-order); other orders use the scan.
        if isinstance(region, SectionRegion) and contiguous and region.order == "C":
            lows = tuple(b[0] for b in block)
            highs = tuple(b[1] for b in block)
            sub = region.section.intersect_block(lows, highs)
            if sub is not None:
                lin = region.section.lin_offset_of(sub)
                _, offs = dist.section_map(sub)
                # Run count ~ product of counts of all but the last dim.
                nruns = max(1, sub.size // max(1, sub.counts[-1]))
                charge(nruns, len(lin))
                positions.append(lin + start)
                offsets.append(offs)
        else:
            gidx = region.global_flat(shape)
            ranks, offs = dist.owner_of_flat(gidx)
            mask = ranks == rank
            charge(1, n)
            positions.append(np.flatnonzero(mask).astype(np.int64, copy=False) + start)
            offsets.append(offs[mask])
        start += n
    if not positions:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(positions), np.concatenate(offsets)


# -- the registry -----------------------------------------------------------------

_REGISTRY: dict[str, LibraryAdapter] = {}


def register_adapter(adapter: LibraryAdapter) -> LibraryAdapter:
    """Register a library's adapter under ``adapter.name``.

    Re-registering the same name replaces the entry (useful in tests).
    """
    if not adapter.name:
        raise ValueError("adapter needs a non-empty name")
    _REGISTRY[adapter.name] = adapter
    return adapter


def get_adapter(name: str) -> LibraryAdapter:
    """Look up a registered library adapter by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no data parallel library {name!r} registered with Meta-Chaos; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def registered_libraries() -> list[str]:
    return sorted(_REGISTRY)
