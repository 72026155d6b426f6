"""Compiled data plane: cached executable move programs over strided views.

The executors used to walk every schedule half run-by-run in Python, and
every adapter forced its local storage through
``ascontiguousarray().reshape(-1)``.  Both are pure implementation
overhead — the logical-clock model never sees them — so this module
lowers each offset sequence *once* into a :class:`MoveProgram` and caches
it on the ``RunList``.  Execution is then one batched NumPy operation per
(schedule half, dtype):

``slice``
    A single arithmetic run executes as one basic-slice copy.
``grid``
    A piecewise-uniform run table (rows of equal step and count whose
    starts advance by a constant pitch, possibly several such blocks)
    executes as one ``as_strided`` view copy per block — the Multiblock
    Parti strided-section move at memcpy speed.
``index``
    Anything irregular executes as a single fancy-index gather/scatter
    over a lazily built, cached dense int64 index vector (built at most
    once per schedule half, regardless of how many times the plan runs).

Programs are layout-agnostic on the data side: a 1-D view of any stride
is addressed directly through its own strides, a C-contiguous ndarray is
flattened zero-copy, and an arbitrarily strided ndarray (transposed,
sliced) is addressed through cached ``unravel_index`` coordinates — one
batched advanced-indexing operation, no ``ascontiguousarray`` staging
copy anywhere on the hot path.

Nothing here touches the clock: callers charge exactly what they charged
before (the pack charge of ``len(offsets)`` elements is that of ``prog.n``),
wire accounting keeps reading the greedy ``nruns``, and the compiled
execution is bit-identical to the per-run reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.runs import RunList, _run_slice
from repro.vmachine.process import current_process

__all__ = [
    "MoveProgram",
    "accept_local",
    "compile_offsets",
    "copy_compiled",
    "flat_view",
    "read_flat",
    "write_flat",
]

_as_strided = np.lib.stride_tricks.as_strided

#: grid lowering is only worth it when blocks are much fewer than rows;
#: past this many blocks (unless the table is tiny) fall back to ``index``.
_GRID_MAX_BLOCKS = 4
_GRID_ROWS_PER_BLOCK = 4


def flat_view(a: np.ndarray) -> "np.ndarray | None":
    """A zero-copy 1-D logical-order view of ``a``, or None.

    1-D arrays of any stride pass through unchanged; C-contiguous
    arrays flatten for free.  Non-contiguous multi-dimensional arrays
    have no 1-D view — callers go through :meth:`MoveProgram.coords`.
    """
    if a.ndim == 1:
        return a
    if a.flags.c_contiguous:
        return a.reshape(-1)
    return None


def accept_local(local) -> np.ndarray:
    """Zero-copy normalization of caller storage for an adapter array.

    1-D input (any stride) is kept; C-contiguous input flattens as a
    view; any other strided ndarray (transposed, sliced) is kept as-is
    and addressed in place by the compiled programs.  Never copies —
    the distributed array always aliases the caller's memory, so
    in-place updates stay visible on both sides.
    """
    local = np.asarray(local)
    flat = flat_view(local)
    return flat if flat is not None else local


def read_flat(a: np.ndarray) -> np.ndarray:
    """``a`` in flat logical (C) order — a view when possible, else a copy.

    Only for cold paths (oracles, global gathers); the executors never
    call this.
    """
    flat = flat_view(a)
    return flat if flat is not None else a.reshape(-1)


def write_flat(a: np.ndarray, values: np.ndarray) -> None:
    """Assign ``values`` (flat logical order) into ``a``, any layout."""
    flat = flat_view(a)
    if flat is not None:
        flat[...] = values
    else:
        np.copyto(a, np.asarray(values).reshape(a.shape))


class MoveProgram:
    """A compiled, cached, executable lowering of one offset sequence."""

    __slots__ = (
        "n", "kind", "start", "step", "grids", "scatter_safe",
        "_source", "_index", "_coords",
    )

    def __init__(self, n, kind, *, start=0, step=1, grids=None,
                 scatter_safe=True, source=None, index=None):
        self.n = int(n)
        self.kind = kind          # "empty" | "slice" | "grid" | "index"
        self.start = int(start)   # slice kind
        self.step = int(step)     # slice kind
        self.grids = grids        # grid kind: (G, 5) int64 rows
        self.scatter_safe = scatter_safe
        self._source = source     # RunList/ndarray the index is built from
        self._index = index       # cached dense int64 index vector
        self._coords = None       # shape -> unravel_index coords cache

    def __repr__(self) -> str:
        return f"MoveProgram(n={self.n}, kind={self.kind!r})"

    # -- cached lowerings ----------------------------------------------------

    def index(self) -> np.ndarray:
        """The dense int64 index vector (built lazily, cached forever)."""
        if self._index is None:
            src = self._source
            if isinstance(src, RunList):
                idx = src.dense()
            else:
                idx = np.asarray(src, dtype=np.int64)
            self._index = idx
        return self._index

    def coords(self, shape: tuple) -> tuple:
        """Cached ``unravel_index`` coordinates addressing ``shape``.

        This is how a program executes against a non-contiguous
        multi-dimensional target: flat logical offsets translate through
        the shape once, then every replay is a single advanced-indexing
        operation through the view's own strides.
        """
        if self._coords is None:
            self._coords = {}
        got = self._coords.get(shape)
        if got is None:
            got = np.unravel_index(self.index(), shape)
            self._coords[shape] = got
        return got

    def is_full_span(self, size: int) -> bool:
        """True when the program is exactly ``[0, size)`` ascending by 1.

        The buffer-donation eligibility test: such an unpack overwrites
        every element of the destination in order, so adopting the
        received buffer as the new storage is indistinguishable from
        copying through it.
        """
        return (
            self.kind == "slice" and self.start == 0 and self.step == 1
            and self.n == size
        )

    # -- executors -----------------------------------------------------------

    def gather(self, data: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """``data[program]`` batched; fresh array unless ``out`` is given."""
        if out is not None and out.size != self.n:
            raise ValueError(
                f"gather out buffer has {out.size} slots for {self.n} elements"
            )
        if self.kind == "empty":
            return out if out is not None else np.empty(0, dtype=data.dtype)
        flat = flat_view(data)
        if flat is None:
            picked = data[self.coords(data.shape)]
            if out is None:
                return picked
            out[...] = picked
            return out
        if self.kind == "slice":
            seg = flat[_run_slice(self.start, self.step, self.n)]
            if out is None:
                return np.array(seg)
            out[...] = seg
            return out
        if self.kind == "grid":
            if out is None:
                out = np.empty(self.n, dtype=data.dtype)
            st = flat.strides[0]
            pos = 0
            for start0, rowstep, step, nrows, count in self.grids.tolist():
                view = _as_strided(
                    flat[start0:], shape=(nrows, count),
                    strides=(rowstep * st, step * st),
                )
                m = nrows * count
                seg = out[pos : pos + m]
                if seg.flags.c_contiguous:
                    seg.reshape(nrows, count)[...] = view
                else:
                    seg[...] = view.reshape(-1)
                pos += m
            return out
        picked = flat[self.index()]
        if out is None:
            return picked
        out[...] = picked
        return out

    def scatter(self, data: np.ndarray, values: np.ndarray) -> None:
        """``data[program] = values`` batched (last write wins, as NumPy)."""
        if self.kind == "empty":
            return
        values = np.asarray(values)
        scalar = values.ndim == 0
        flat = flat_view(data)
        if flat is None:
            data[self.coords(data.shape)] = values
            return
        if self.kind == "slice":
            flat[_run_slice(self.start, self.step, self.n)] = values
            return
        if self.kind == "grid" and self.scatter_safe:
            st = flat.strides[0]
            pos = 0
            for start0, rowstep, step, nrows, count in self.grids.tolist():
                view = _as_strided(
                    flat[start0:], shape=(nrows, count),
                    strides=(rowstep * st, step * st),
                )
                if scalar:
                    view[...] = values
                else:
                    view[...] = values[pos : pos + nrows * count].reshape(nrows, count)
                pos += nrows * count
            return
        flat[self.index()] = values


def _piecewise_grids(runs: np.ndarray):
    """Lower a canonical run table to ``(start0, rowstep, step, nrows,
    count)`` grid blocks, or None when the table is too irregular.

    Consecutive runs join a block while their (step, count) match and
    their starts advance by one constant positive pitch; a block whose
    rows would interleave (``rowstep < count * step``) still gathers
    fine but is marked scatter-unsafe by the caller.
    """
    R = len(runs)
    starts = runs[:, 0]
    counts = runs[:, 2]
    # count-1 runs carry step 0 in canonical form; as a grid row any
    # positive step addresses the same single element.
    steps = np.where(counts == 1, 1, runs[:, 1])
    if (steps <= 0).any() or (starts < 0).any():
        return None
    sd = starts[1:] - starts[:-1]
    pair = (steps[1:] == steps[:-1]) & (counts[1:] == counts[:-1]) & (sd > 0)
    new = np.ones(R, dtype=bool)
    new[1:] = ~pair
    if R >= 3:
        new[2:] |= pair[1:] & pair[:-1] & (sd[1:] != sd[:-1])
    first = np.flatnonzero(new)
    G = len(first)
    if G > _GRID_MAX_BLOCKS and G * _GRID_ROWS_PER_BLOCK > R:
        return None
    nrows = np.diff(np.append(first, R))
    start0 = starts[first]
    count = counts[first]
    step = steps[first]
    pitch = np.where(
        nrows > 1,
        sd[np.minimum(first, R - 2)],  # gap first->second row; unused if nrows==1
        count * step,
    )
    return np.column_stack([start0, pitch, step, nrows, count]).astype(np.int64)


def _compile_runlist(rl: RunList) -> MoveProgram:
    n = len(rl)
    if n == 0:
        return MoveProgram(0, "empty")
    if not rl.is_compressed:
        return MoveProgram(n, "index", source=rl, index=rl.dense())
    runs = rl._exec_runs()
    if len(runs) == 1:
        start, step, count = (int(v) for v in runs[0])
        if count == 1:
            return MoveProgram(1, "slice", start=start, step=1, source=rl)
        if step != 0:
            return MoveProgram(n, "slice", start=start, step=step, source=rl)
        return MoveProgram(n, "index", source=rl)
    grids = _piecewise_grids(runs)
    if grids is not None:
        safe = bool((grids[:, 1] >= grids[:, 4] * grids[:, 2]).all())
        return MoveProgram(n, "grid", grids=grids, scatter_safe=safe, source=rl)
    return MoveProgram(n, "index", source=rl)


def _program_cache_note(counter: str) -> None:
    """Mirror a MoveProgram memo hit/miss into the calling rank's metrics
    (``cache_program_*``).  Counter bumps are clock-free; outside an SPMD
    run this is a no-op."""
    try:
        current_process().metrics.incr(counter)
    except RuntimeError:
        pass


def compile_offsets(offsets) -> MoveProgram:
    """Compile an offsets argument to its cached :class:`MoveProgram`.

    RunLists memoize the program (slot ``_program``) so steady-state
    plan replays pay zero re-analysis; plain ndarrays compile to an
    uncached ``index`` program over the array itself (zero-copy).
    Memo hits and misses surface as ``cache_program_{hits,misses}``
    counters on the rank's :class:`~repro.observe.metrics.MetricsRegistry`.
    """
    if isinstance(offsets, MoveProgram):
        return offsets
    if isinstance(offsets, RunList):
        prog = offsets._program
        if prog is None:
            prog = _compile_runlist(offsets)
            offsets._program = prog
            _program_cache_note("cache_program_misses")
        else:
            _program_cache_note("cache_program_hits")
        return prog
    arr = np.asarray(offsets, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("offset sequences must be one-dimensional")
    return MoveProgram(len(arr), "index", source=arr, index=arr)


def _grid_shapes_match(a: MoveProgram, b: MoveProgram) -> bool:
    return (
        a.grids is not None and b.grids is not None
        and len(a.grids) == len(b.grids)
        and bool((a.grids[:, 3] == b.grids[:, 3]).all())
        and bool((a.grids[:, 4] == b.grids[:, 4]).all())
    )


def copy_compiled(
    src_prog: MoveProgram, src_data: np.ndarray,
    dst_prog: MoveProgram, dst_data: np.ndarray,
) -> None:
    """``dst_data[dst_prog] = src_data[src_prog]`` with no staging buffer.

    Aligned structures copy directly (slice-to-slice, matched grid
    blocks view-to-view); everything else runs as one fancy-to-fancy
    assignment through the cached index vectors.  NumPy's overlap
    detection keeps same-array copies correct.
    """
    if src_prog.n != dst_prog.n:
        raise ValueError(
            f"copy sides differ in length: {src_prog.n} vs {dst_prog.n}"
        )
    if src_prog.n == 0:
        return
    sflat = flat_view(src_data)
    dflat = flat_view(dst_data)
    if sflat is not None and dflat is not None:
        if src_prog.kind == "slice" and dst_prog.kind == "slice":
            dflat[_run_slice(dst_prog.start, dst_prog.step, dst_prog.n)] = \
                sflat[_run_slice(src_prog.start, src_prog.step, src_prog.n)]
            return
        if (
            src_prog.kind == "grid" and dst_prog.kind == "grid"
            and dst_prog.scatter_safe and _grid_shapes_match(src_prog, dst_prog)
        ):
            sst = sflat.strides[0]
            dst = dflat.strides[0]
            for (s0, srow, sstep, nrows, count), (d0, drow, dstep, _, _) in zip(
                src_prog.grids.tolist(), dst_prog.grids.tolist()
            ):
                sview = _as_strided(sflat[s0:], shape=(nrows, count),
                                    strides=(srow * sst, sstep * sst))
                dview = _as_strided(dflat[d0:], shape=(nrows, count),
                                    strides=(drow * dst, dstep * dst))
                dview[...] = sview
            return
        dflat[dst_prog.index()] = sflat[src_prog.index()]
        return
    picked = (
        src_data[src_prog.coords(src_data.shape)] if sflat is None
        else src_prog.gather(sflat)
    )
    if dflat is None:
        dst_data[dst_prog.coords(dst_data.shape)] = picked
    else:
        dst_prog.scatter(dflat, picked)
