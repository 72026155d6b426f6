"""Run-compressed offset sequences — the schedule's native representation.

Multiblock Parti describes a regular transfer as a handful of strided
blocks, and that is the whole reason regular schedules are cheap to
build, store and replay (paper §4.1.4, Table 5).  :class:`RunList` is
that description, and the only one: an immutable sequence of maximal
arithmetic-progression runs ``(start, step, count)`` with vectorized
compress/expand, group-by-key and length operations.  The executors
lower one once into a cached move program
(:func:`repro.core.dataplane.compile_offsets`) that turns regular section
moves into contiguous or strided slice copies at memcpy speed, and the
schedule builders send their pieces as RunLists: :attr:`RunList.nbytes`
is what the virtual transport charges (16 bytes plus 24 per greedy run)
and :meth:`RunList.__wire__` what replay hashes (the stored form).

Hybrid storage: genuinely irregular sequences (Chaos-style permutations)
would *grow* if stored as runs — three int64 per near-singleton run
versus one per element — so :meth:`RunList.from_dense` keeps such
sequences dense internally and the executor falls back to NumPy fancy
indexing.  Either way the object reports the greedy run count of its
expansion (:func:`run_starts`), so wire-size accounting does not depend
on the storage form.

The greedy split (a new run wherever the step between consecutive
elements changes) can overcount the optimal run partition by at most 2x:
each maximal run of an optimal partition contributes at most one extra
singleton at its left boundary.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["RunList", "KeyGroups", "run_starts", "group_by_runs"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_RUNS = np.zeros((0, 3), dtype=np.int64)

#: per-run wire cost in bytes: (start, step, count) as three int64
RUN_WIRE_BYTES = 24
#: fixed wire envelope of a run-encoded sequence
RUN_WIRE_HEADER = 16


def _step_changes(arr: np.ndarray) -> np.ndarray:
    """Boolean per element ``i >= 2``: does ``arr[i] - arr[i-1]`` differ
    from ``arr[i-1] - arr[i-2]`` (a new greedy run starts at ``i``)?"""
    d = arr[1:] - arr[:-1]
    return d[1:] != d[:-1]


def run_starts(arr: np.ndarray) -> np.ndarray:
    """Indices where a new greedy arithmetic-progression run begins.

    The greedy split :attr:`RunList.nruns` counts: for ``n <= 2``
    the whole array is one run; otherwise a new run starts at element
    ``i`` (``i >= 2``) whenever ``arr[i] - arr[i-1]`` differs from
    ``arr[i-1] - arr[i-2]``.
    """
    arr = np.asarray(arr)
    n = len(arr)
    if n == 0:
        return _EMPTY_I64
    if n <= 2:
        return np.zeros(1, dtype=np.int64)
    return _starts_of(_step_changes(arr))


def _starts_of(changes: np.ndarray) -> np.ndarray:
    """Run start indices from a :func:`_step_changes` mask."""
    where = np.flatnonzero(changes)
    starts = np.empty(len(where) + 1, dtype=np.int64)
    starts[0] = 0
    np.add(where, 2, out=starts[1:])
    return starts


def _run_table(arr: np.ndarray, starts_idx: np.ndarray) -> np.ndarray:
    """Read-only ``(R, 3)`` ``(start, step, count)`` table of the greedy
    runs of ``arr`` beginning at ``starts_idx``."""
    n = len(arr)
    counts = np.diff(np.append(starts_idx, n))
    starts = arr[starts_idx]
    second = arr[np.minimum(starts_idx + 1, n - 1)]
    steps = np.where(counts > 1, second - starts, 0)
    runs = np.column_stack([starts, steps, counts]).astype(np.int64)
    runs.setflags(write=False)
    return runs


def _run_slice(start: int, step: int, count: int) -> slice:
    """The slice addressing an arithmetic run in flat storage (step != 0)."""
    stop = start + step * count
    if step < 0 and stop < 0:
        stop = None  # slicing past the left edge needs an open stop
    return slice(start, stop, step)


def _coalesce_runs(runs: np.ndarray) -> np.ndarray:
    """Vectorized merge of greedy runs that continue one progression.

    Four ``np.diff``-based passes over the run table (never over the
    elements): (1) a singleton bracketing a row jump prepends to the
    following longer run when its gap equals that run's step, (2) a
    singleton continuing the preceding longer run appends to it, (3)
    chains of singletons with a constant gap fuse into one run, (4)
    adjacent longer runs continuing one arithmetic progression fuse.
    The expansion is preserved exactly; only the partition may differ
    from a sequential merge in corner cases (either table is valid).
    """
    starts = runs[:, 0].astype(np.int64, copy=True)
    steps = runs[:, 1].astype(np.int64, copy=True)
    counts = runs[:, 2].astype(np.int64, copy=True)

    # Pass 1: singleton before a longer run whose step matches the gap.
    single = counts == 1
    absorb = single[:-1] & ~single[1:] & (starts[1:] - starts[:-1] == steps[1:])
    if absorb.any():
        idx = np.flatnonzero(absorb)
        starts[idx + 1] = starts[idx]
        counts[idx + 1] += 1
        keep = np.ones(len(starts), dtype=bool)
        keep[idx] = False
        starts, steps, counts = starts[keep], steps[keep], counts[keep]
        single = counts == 1

    # Pass 2: singleton continuing the preceding longer run.
    ends = starts + steps * (counts - 1)
    absorb = single[1:] & ~single[:-1] & (starts[1:] - ends[:-1] == steps[:-1])
    if absorb.any():
        idx = np.flatnonzero(absorb) + 1
        counts[idx - 1] += 1
        keep = np.ones(len(starts), dtype=bool)
        keep[idx] = False
        starts, steps, counts = starts[keep], steps[keep], counts[keep]
        single = counts == 1

    # Pass 3: constant-gap singleton chains (greedy split on values,
    # matching run_starts).
    n = len(starts)
    link = np.zeros(n, dtype=bool)
    link[1:] = single[1:] & single[:-1]
    if link.any():
        gaps = np.zeros(n, dtype=np.int64)
        gaps[1:] = starts[1:] - starts[:-1]
        brk = ~link
        if n >= 3:
            brk[2:] |= link[1:-1] & (gaps[2:] != gaps[1:-1])
        first = np.flatnonzero(brk)
        gcounts = np.diff(np.append(first, n))
        merged_steps = np.where(
            gcounts > 1, gaps[np.minimum(first + 1, n - 1)], steps[first]
        )
        counts = np.add.reduceat(counts, first)
        starts = starts[first]
        steps = merged_steps

    # Pass 4: adjacent longer runs continuing the same progression.
    n = len(starts)
    if n >= 2:
        ends = starts + steps * (counts - 1)
        join = np.zeros(n, dtype=bool)
        join[1:] = (
            (counts[1:] > 1) & (counts[:-1] > 1)
            & (steps[1:] == steps[:-1])
            & (starts[1:] - ends[:-1] == steps[:-1])
        )
        if join.any():
            first = np.flatnonzero(~join)
            counts = np.add.reduceat(counts, first)
            starts = starts[first]
            steps = steps[first]

    return np.column_stack([starts, steps, counts])


class RunList:
    """An immutable int64 offset sequence stored as arithmetic runs.

    Array-like: supports ``len``, ``np.asarray`` (via ``__array__``),
    indexing/slicing (returns plain ndarrays), ``min``/``max`` and
    ``copy`` so existing code treating schedule halves as dense arrays
    keeps working.  Mutation attempts raise (no ``__setitem__``; the
    expansions returned by :meth:`dense` are read-only views).
    """

    __slots__ = ("_runs", "_dense", "_n", "_nruns", "_canon", "_program")

    def __init__(self, runs, dense, n: int, nruns: int):
        # Private: use from_dense / from_runs / empty.
        self._runs = runs
        self._dense = dense
        self._n = int(n)
        self._nruns = int(nruns)
        self._canon = None  # lazy executor-side canonical run table
        self._program = None  # lazy compiled MoveProgram (repro.core.dataplane)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "RunList":
        return cls(_EMPTY_RUNS, None, 0, 0)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "RunList":
        """Greedily compress a dense offset array.

        Keeps the dense form internally (copied, read-only) when the run
        form would not be smaller — three int64 per run versus one per
        element — so irregular Chaos-style offsets never pay a 3x memory
        penalty.  The input is never aliased.
        """
        if isinstance(arr, RunList):
            return arr
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("offset sequences must be one-dimensional")
        n = len(arr)
        if n == 0:
            return cls.empty()
        # Irregular sequences only need their run *count* (one popcount
        # of the step-change mask); the run table is built for the
        # regular ones, where it is short.
        if n > 2:
            changes = _step_changes(arr)
            k = 1 + int(np.count_nonzero(changes))
            if k > 1 and 3 * k >= n:
                dense = arr.copy()
                dense.setflags(write=False)
                return cls(None, dense, n, k)
            starts_idx = _starts_of(changes)
        else:
            k, starts_idx = 1, np.zeros(1, dtype=np.int64)
        return cls(_run_table(arr, starts_idx), None, n, k)

    @classmethod
    def from_runs(cls, runs: Iterable) -> "RunList":
        """Build from explicit ``(start, step, count)`` triples.

        The triples are taken as-is (``nruns`` is their number); counts
        must be positive.  Note the greedy run count of the expansion may
        be smaller if adjacent triples are mergeable — schedules built
        from dense offsets always go through :meth:`from_dense`, which is
        canonical.
        """
        runs = np.array(list(runs) if not isinstance(runs, np.ndarray) else runs,
                        dtype=np.int64).reshape(-1, 3)
        if len(runs) and (runs[:, 2] <= 0).any():
            raise ValueError("run counts must be positive")
        n = int(runs[:, 2].sum()) if len(runs) else 0
        out = np.array(runs, copy=True)
        out.setflags(write=False)
        return cls(out, None, n, len(runs))

    # -- introspection ------------------------------------------------------

    @property
    def nruns(self) -> int:
        """Greedy run count of the expansion (wire-accounting quantity)."""
        return self._nruns

    @property
    def is_compressed(self) -> bool:
        """True when stored in run form (False: hybrid dense storage)."""
        return self._runs is not None

    @property
    def runs(self) -> np.ndarray:
        """The ``(R, 3)`` array of ``(start, step, count)`` triples.

        Computed on demand (O(n)) for hybrid-dense sequences.
        """
        if self._runs is not None:
            return self._runs
        return _run_table(self._dense, run_starts(self._dense))

    @property
    def stored(self) -> np.ndarray:
        """The stored representation (read-only): the ``(R, 3)`` run table
        when compressed, else the dense offsets.  It is the whole logical
        content — what pickles, what replay hashes; ``_canon`` and
        ``_program`` are memos derived from it."""
        return self._runs if self._runs is not None else self._dense

    def __reduce__(self):
        # Pickle and deep-copy through the constructors, so a snapshot never
        # carries (and never depends on) the memo slots.
        rebuild = RunList.from_runs if self.is_compressed else RunList.from_dense
        return rebuild, (self.stored,)

    @property
    def nbytes(self) -> int:
        """Run-encoded wire size, what the virtual transport charges:
        ``(start, step, count)`` per greedy run plus a fixed header."""
        return RUN_WIRE_HEADER + RUN_WIRE_BYTES * self._nruns

    def __wire__(self, update, feed) -> None:
        """Canonical bytes (:mod:`repro.vmachine.payload`): the length and
        the stored form — the run table, or the dense offsets of a
        sequence kept dense — never an expansion or a compiled program."""
        update(b"R")
        feed(self._n, update)
        feed(self.stored, update)

    @property
    def nbytes_memory(self) -> int:
        """In-memory footprint of the canonical stored representation."""
        return RUN_WIRE_HEADER + self.stored.nbytes

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        form = "runs" if self.is_compressed else "dense"
        return f"RunList(n={self._n}, nruns={self._nruns}, storage={form})"

    # -- expansion and array protocol --------------------------------------

    def dense(self) -> np.ndarray:
        """The expanded offset array (read-only; fresh for run storage)."""
        if self._dense is not None:
            return self._dense
        out = self.expand()
        out.setflags(write=False)
        return out

    def expand(self) -> np.ndarray:
        """A freshly materialized (writable) dense expansion."""
        if self._dense is not None:
            return np.array(self._dense, copy=True)
        runs = self._runs
        if len(runs) == 0:
            return np.zeros(0, dtype=np.int64)
        starts, steps, counts = runs[:, 0], runs[:, 1], runs[:, 2]
        offsets = np.arange(self._n, dtype=np.int64)
        bases = np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(starts, counts) + np.repeat(steps, counts) * (offsets - bases)

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        if dtype is not None and out.dtype != dtype:
            return out.astype(dtype)
        if copy:
            return np.array(out, copy=True)
        return out

    def __getitem__(self, key):
        return self.dense()[key]

    def __iter__(self) -> Iterator[int]:
        return iter(self.dense())

    def copy(self) -> np.ndarray:
        """A writable dense copy (mirrors ``ndarray.copy``)."""
        return self.expand()

    def min(self):
        if self._n == 0:
            raise ValueError("zero-size RunList has no minimum")
        if self._runs is None:
            return self._dense.min()
        ends = self._runs[:, 0] + self._runs[:, 1] * (self._runs[:, 2] - 1)
        return min(int(self._runs[:, 0].min()), int(ends.min()))

    def max(self):
        if self._n == 0:
            raise ValueError("zero-size RunList has no maximum")
        if self._runs is None:
            return self._dense.max()
        ends = self._runs[:, 0] + self._runs[:, 1] * (self._runs[:, 2] - 1)
        return max(int(self._runs[:, 0].max()), int(ends.max()))

    # -- executor side --------------------------------------------------------

    def _exec_runs(self) -> np.ndarray:
        """Canonical run table used by the executors (cached).

        The greedy splitter is within 2x of optimal but brackets every
        row jump of a 2-D section with a singleton run; merging adjacent
        runs that continue the same arithmetic progression recovers the
        optimal partition (regular section moves become a uniform grid).
        The merge itself is vectorized (``np.diff``-based passes; see
        :func:`_coalesce_runs`) — no per-run Python loop even at build
        time.  Wire/clock accounting never sees this table —
        ``nruns``/``nbytes`` keep the greedy counts.
        """
        if self._canon is None:
            runs = self._runs
            if runs is None or len(runs) < 2:
                self._canon = runs
            else:
                self._canon = _coalesce_runs(runs)
        return self._canon


class KeyGroups:
    """The stable grouping of one key array, applied to any number of
    value arrays.

    The permutation that brings equal keys together (original order kept
    within each group) and the group boundaries are computed once, here;
    :meth:`split` / :meth:`runlists` then partition a value array with
    one gather.  The schedule builder groups two value arrays per owner
    array, and owner ranks are small non-negative integers, so:

    - keys that are already grouped in ascending order (one key, or the
      output of an earlier grouping) need no permutation at all;
    - integer keys in ``[0, 2**16)`` are ordered by a stable sort of
      their 8- or 16-bit cast, which NumPy runs as a radix sort — a
      linear bucket pass instead of an O(n log n) comparison sort;
    - anything else falls back to a stable argsort of the keys.

    Boundaries come from one ``!=`` pass over the ordered keys.
    """

    __slots__ = ("keys", "_order", "_spans", "_n")

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        n = len(keys)
        order = None
        if n > 1 and (keys[1:] < keys[:-1]).any():
            lo, hi = keys.min(), keys.max()
            if keys.dtype.kind in "iu" and lo >= 0 and hi < 1 << 16:
                keys = keys.astype(np.uint8 if hi < 1 << 8 else np.uint16)
            order = keys.argsort(kind="stable")
            keys = keys[order]
        cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        firsts = [0] + cuts if n else []
        #: the distinct keys, ascending
        self.keys: list[int] = keys[firsts].tolist()
        self._order = order
        self._spans = [slice(a, b) for a, b in zip(firsts, cuts + [n])]
        self._n = n

    def selectors(self) -> list:
        """Per entry of :attr:`keys`, what selects that key's elements
        from an array ordered like the keys: a slice when the keys needed
        no permutation, otherwise an index array (ascending)."""
        if self._order is None:
            return self._spans
        return [self._order[span] for span in self._spans]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """``values`` partitioned by key: one dense array per entry of
        :attr:`keys`, original order kept within each.

        The pieces are slices of one gathered array — or of ``values``
        itself when the keys needed no permutation — so treat them as
        read-only.
        """
        values = np.asarray(values)
        if len(values) != self._n:
            raise ValueError(f"{len(values)} values for {self._n} keys")
        if self._order is not None:
            values = values[self._order]
        return [values[span] for span in self._spans]

    def runlists(self, values: np.ndarray) -> dict[int, "RunList"]:
        """:meth:`split`, each group compressed into a :class:`RunList`."""
        return {
            k: RunList.from_dense(v) for k, v in zip(self.keys, self.split(values))
        }


def group_by_runs(keys: np.ndarray, values: np.ndarray) -> dict[int, "RunList"]:
    """Partition ``values`` by ``keys`` (stable) into compressed RunLists.

    Regular sections produce a handful of ``(start, step, count)`` runs
    per key, so a schedule grouped this way is layout-sized, not
    data-sized.  The one-value-array case of :class:`KeyGroups`.
    """
    return KeyGroups(keys).runlists(values)
