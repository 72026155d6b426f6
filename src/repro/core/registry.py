"""Library adapters: the interface functions every library exports (§4.1.3).

"The implementation of the schedule computation algorithm requires that a
set of procedures be provided by both the source and destination data
parallel libraries ... a standard set of inquiry functions."  A
:class:`LibraryAdapter` bundles those procedures:

- :meth:`~LibraryAdapter.deref_lin` — dereference linearization positions
  of a SetOfRegions to (owner rank, local address);
- :meth:`~LibraryAdapter.local_elements` — enumerate the calling rank's
  own elements of a SetOfRegions (with their linearization positions);
- :meth:`~LibraryAdapter.local_data` — expose the rank-local storage the
  move executor gathers from and scatters into;
- :meth:`~LibraryAdapter.export_handle` — produce the exchangeable data
  descriptor the *duplication* schedule method ships between programs.

"A major concern in designing Meta-Chaos was to require that relatively
few procedures be provided by the data parallel library implementor" —
the base class derives everything from four attributes of a library
array (``dist``, ``global_shape``, ``itemsize``, ``local``), so a
concrete adapter is a name, its array type and a *cost policy*
(closed-form regular arithmetic vs. per-element translation-table
lookups), plus ``local_elements`` where the library enumerates its own
elements differently.  A library array subclasses :class:`DistArray`,
which holds that storage protocol once (or supplies the four attributes
itself).

Adapters register by library name in a process-global registry, which is
what the paper's ``MC_ComputeSched(HPF, ...)`` first argument looks up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.dataplane import (
    MoveProgram,
    accept_local,
    compile_offsets,
    copy_compiled,
    read_flat,
)
from repro.core.runs import RunList
from repro.core.setofregions import SetOfRegions
from repro.core.region import SectionRegion
from repro.distrib.base import DistDescriptor, Distribution
from repro.distrib.cartesian import CartesianDist
from repro.observe.spans import close_span
from repro.vmachine.comm import Communicator
from repro.vmachine.process import Process, current_process

__all__ = [
    "DistArray",
    "RemoteHandle",
    "LibraryAdapter",
    "register_adapter",
    "get_adapter",
    "registered_libraries",
    "ensure_safe_cast",
    "PlanSegment",
    "move_row",
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
        self.global_shape = remote.shape
        self.itemsize = remote.itemsize
        self.dist = remote.descriptor.materialize()


class DistArray:
    """One rank's piece of a distributed array: the storage every library
    array shares.

    ``dist`` maps each global element to its (rank, local offset);
    ``local`` is this rank's storage in local-offset order.  Any strided
    ndarray is first-class storage, aliased and never copied.  A library
    array subclasses this and adds only its own constructors and
    operations; :class:`LibraryAdapter` reads ``dist``, ``global_shape``,
    ``itemsize`` and ``local``.  Every rank of ``comm`` holds one
    instance, created collectively.
    """

    def __init__(self, comm: Communicator, dist: Distribution, local: np.ndarray):
        if dist.nprocs != comm.size:
            raise ValueError(
                f"distribution spans {dist.nprocs} procs, communicator has {comm.size}"
            )
        expected = dist.local_size(comm.rank)
        if local.size != expected:
            raise ValueError(
                f"rank {comm.rank}: local storage {local.size} != {expected}"
            )
        self.comm = comm
        self.dist = dist
        self.local = accept_local(local)

    # -- collective constructors over a given distribution ----------------------

    @classmethod
    def zeros_over(cls, comm: Communicator, dist: Any, dtype=np.float64):
        """Zero storage over ``dist`` — whatever ``cls``'s constructor takes
        second (a :class:`~repro.chaos.ChaosArray` takes its table)."""
        return cls(comm, dist, np.zeros(dist.local_size(comm.rank), dtype=dtype))

    @classmethod
    def from_global_over(cls, comm: Communicator, dist: Distribution, full):
        """Each rank takes its elements of a replicated global array."""
        mine = dist.owned_global(comm.rank)
        return cls(comm, dist, np.asarray(full).reshape(-1)[mine])

    # -- views --------------------------------------------------------------------

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self.dist.global_shape

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.dist.local_shape(self.comm.rank)

    @property
    def local_nd(self) -> np.ndarray:
        """Shaped view of the local storage."""
        if self.local.ndim > 1:
            if self.local.shape != self.local_shape:
                raise ValueError(
                    f"strided local storage {self.local.shape} does not "
                    f"admit a {self.local_shape} view"
                )
            return self.local
        return self.local.reshape(self.local_shape)

    @property
    def size(self) -> int:
        return self.dist.size

    @property
    def dtype(self):
        return self.local.dtype

    @property
    def itemsize(self) -> int:
        return self.local.dtype.itemsize

    def my_globals(self) -> np.ndarray:
        """Flat global indices of the local elements, in storage order."""
        return self.dist.owned_global(self.comm.rank)

    def gather_global(self) -> np.ndarray | None:
        """Collect the full global array on rank 0 (testing oracle)."""
        pieces = self.comm.gather((self.comm.rank, read_flat(self.local).copy()))
        if pieces is None:
            return None
        out = np.zeros(self.size, dtype=self.dtype)
        for rank, local in pieces:
            out[self.dist.owned_global(rank)] = local
        return out.reshape(self.global_shape)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self.global_shape}, "
            f"rank={self.comm.rank}/{self.comm.size}, local={self.local_shape})"
        )


class LibraryAdapter(abc.ABC):
    """Interface functions of one data parallel library.

    A concrete adapter supplies :attr:`name`, :attr:`array_type` and the
    cost policy :meth:`charge_deref`.  A handle is a local
    :attr:`array_type` instance or a :class:`MaterializedHandle`; both
    answer ``dist``, ``global_shape`` and ``itemsize``, and a local array
    also holds its storage in ``local``.  The heavy lifting
    (linearization arithmetic, owner lookup) is generic.
    """

    #: registry key; the paper's library identifier (e.g. "hpf", "chaos")
    name: str = ""
    #: the library's local array class — what :meth:`local_data` accepts
    array_type: type

    # -- handle introspection ------------------------------------------------

    def dist_of(self, handle: Any) -> Distribution:
        """The distribution of an array handle (local or materialized)."""
        return handle.dist

    def shape_of(self, handle: Any) -> tuple[int, ...]:
        """Global shape of the handle."""
        return handle.global_shape

    def itemsize_of(self, handle: Any) -> int:
        """Element size in bytes."""
        return handle.itemsize

    def local_data(self, array: Any) -> np.ndarray:
        """The rank-local storage of a *local* array handle.

        Any strided ndarray is acceptable — 1-D of any step,
        C-contiguous blocks, or arbitrary non-contiguous layouts
        (transposed, sliced).  The compiled data plane addresses all of
        them without a staging copy; flat offsets index the storage in
        logical (C) order.
        """
        if not isinstance(array, self.array_type):
            raise TypeError(
                f"a local {self.array_type.__name__} is required for data access"
            )
        return array.local

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
    # is :meth:`local_data`; it runs :func:`move_row` on rows it lowered at
    # plan-compile time.  The four methods here are one-segment rows of the
    # *same* kernel, for callers holding an offset list instead of a plan.

    def pack(self, array: Any, offsets: np.ndarray | RunList) -> np.ndarray:
        """Gather local elements at ``offsets`` into a fresh contiguous
        buffer."""
        return move_row(current_process(), "gather", (PlanSegment(0, offsets),),
                        (self.local_data(array),), (None,))

    def pack_into(
        self, array: Any, offsets: np.ndarray | RunList, out: np.ndarray
    ) -> None:
        """:meth:`pack`, but gathering straight into caller-owned storage:
        ``out`` must be 1-D with exactly ``len(offsets)`` slots.  Same
        charge as :meth:`pack`; a lossy conversion into ``out`` is
        refused like everywhere else."""
        seg = PlanSegment(0, offsets)
        if len(out) != seg.count:
            raise ValueError(
                f"pack_into buffer has {len(out)} slots for "
                f"{seg.count} offsets"
            )
        move_row(current_process(), "gather", (seg,), (self.local_data(array),),
                 (out,))

    def unpack(
        self, array: Any, offsets: np.ndarray | RunList, values: np.ndarray
    ) -> None:
        """Scatter buffer ``values`` into local elements at ``offsets``."""
        move_row(current_process(), "scatter", (PlanSegment(0, offsets),),
                 (self.local_data(array),), (np.asarray(values),))

    def copy_local(
        self,
        src_array: Any,
        src_offsets: np.ndarray | RunList,
        dst_array: Any,
        dst_offsets: np.ndarray | RunList,
    ) -> None:
        """Direct local-to-local copy between two arrays of this library."""
        move_row(current_process(), "copy",
                 (PlanSegment(0, src_offsets, dst_offsets),),
                 (self.local_data(src_array),), (self.local_data(dst_array),))

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


# -- the row kernel --------------------------------------------------------------
#
# The executor's loops call :func:`move_row` once per message, the adapter
# wrappers above with one-segment rows: the cast rule (consulted only when
# the dtypes differ) and the pack charge exist nowhere else.  The charge
# depends solely on the element count, so every program kind -- and the
# fused and sequential moves built on them -- costs the same simulated time.


@dataclass(frozen=True, slots=True)
class PlanSegment:
    """One segment of a row: one schedule's contribution to one message.
    ``schedule_id`` is its *array slot* (it indexes ``MovePlan.schedules``
    and a move's arrays), ``program`` that schedule's half for the row's
    peer, ``into`` the destination half of an intra-processor copy.
    Construction *is* the lowering: ``compile_offsets`` is consulted here,
    once, instead of once per segment per move."""

    schedule_id: int
    program: MoveProgram
    into: MoveProgram | None = None

    def __post_init__(self):
        object.__setattr__(self, "program", compile_offsets(self.program))
        if self.into is not None:
            object.__setattr__(self, "into", compile_offsets(self.into))

    @property
    def count(self) -> int:
        return self.program.n


def move_row(
    proc: Process, kind: str, row: Sequence[PlanSegment],
    datas: Sequence[np.ndarray], ends: Sequence[Any], span: str | None = None,
) -> np.ndarray | None:
    """Run one message: per segment ``row[i]``, in order, cast check ->
    ``CostModel.pack(n)`` added to the clock -> one batched NumPy operation
    between its slot's storage ``datas[row[i].schedule_id]`` and ``ends[i]``.
    ``"gather"`` packs into ``ends[i]`` (a staging view; None: a fresh
    array, returned), ``"scatter"`` stores the received ``ends[i]`` (an
    ndarray), ``"copy"`` copies into its ``row[i].into`` elements with no
    buffer between the arrays (§5.3).  The clock is stored once per row --
    the float additions ``Process.charge`` makes, also when a segment
    raises, so a refused cast leaves exactly the earlier segments charged
    -- and an attributing rank records one term per row.  ``span`` names
    the leaf span opened when the rank is ``labelled``.
    """
    clock = start = proc.clock
    if span is not None and proc.labelled:  # the leaf span, closed below
        depth = len(proc._span_stack)
        proc._span_stack.append(span)
        proc.phase = span
    else:
        span = None
    pack, slowdown = proc.cost.pack, proc.slowdown
    scatter = kind == "scatter"
    out = None
    try:
        for seg, end in zip(row, ends):
            program, data = seg.program, datas[seg.schedule_id]
            if end is not None and end.dtype != data.dtype and program.n:
                ensure_safe_cast(*((end.dtype, data.dtype) if scatter
                                   else (data.dtype, end.dtype)))
            clock += pack(program.n) * slowdown
            if scatter:
                program.scatter(data, end)
            elif kind == "gather":
                out = program.gather(data, end)
            else:
                copy_compiled(program, data, seg.into, end)
    finally:
        proc.clock = clock
        metrics = proc.metrics
        if metrics.attributing and clock != start:
            metrics.add_term(proc.phase, "per_element", clock - start)
        if span is not None:
            close_span(proc, span, start, depth)
    return out


# -- helpers shared by the regular-library adapters -----------------------------


def cartesian_local_elements(
    adapter: LibraryAdapter, handle: Any, sor: SetOfRegions, rank: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form :meth:`LibraryAdapter.local_elements` for Cartesian
    block distributions — an adapter adopts it as
    ``local_elements = cartesian_local_elements``.

    Intersects every SectionRegion with the rank's owned block per
    dimension, producing the rank's elements without dereferencing the
    rest.  Falls back to a full (cheap, vectorized) scan for CYCLIC-style
    dims where ownership is not a contiguous block, and for IndexRegions.
    Every piece is charged through the adapter's ``charge_locate``.
    """
    dist: CartesianDist = adapter.dist_of(handle)
    shape = adapter.shape_of(handle)
    charge = adapter.charge_locate
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
