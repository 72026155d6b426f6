"""Sparse CP-ALS coupling an irregular tensor partition to BLOCK factors.

The demonstration app for the one-sided layer: a 3-way sparse tensor is
CP-decomposed (canonical polyadic, alternating least squares) with the
two distribution styles the paper couples —

- the **nonzeros** live in a Chaos-style *irregular* partition: raw
  coordinate/value entries (with duplicates) are assembled into a
  :class:`~repro.containers.DistHashMap`, whose hash distribution *is*
  the data-dependent ownership map.  The deduplicated entries are also
  registered as a :class:`~repro.chaos.array.ChaosArray` over exactly
  that ownership, so the irregular side speaks the paper's Chaos
  interface;
- the **factor matrices** are HPF ``(BLOCK, *)`` row distributions
  (:class:`~repro.hpf.array.HPFArray`), and each factor's local storage
  is registered directly as a one-sided :class:`Window` — remote factor
  rows are fetched with ``get`` and MTTKRP partials are scattered back
  with ``accumulate`` (or, with ``use_queue=True``, pushed through a
  :class:`~repro.containers.DistQueue` and folded owner-side), with no
  receiver-side matching code anywhere.

Once per solve, each rank cuts the rows of each factor its nonzeros
touch into maximal *runs* of consecutive rows on one owner; a run
crosses the wire as one ``get`` (fetch) and one ``accumulate``
(scatter).  Every iteration per mode: refresh the fetched rows of the
factors that changed (one epoch), compute local MTTKRP partials,
scatter-add them into the target factor's accumulator (one epoch),
allreduce the R x R Grams, and solve ``A <- M @ pinv(G)`` into the
factor window's own storage — the serial oracle's update expression, so
the result matches it to float round-off (the ``(origin, seq)`` apply
order differs from the serial sum only in grouping).  The new rows need
no fence: a peer's next ``get`` is served inside this rank's next fence,
after the write.  Fetched rows stay valid until the mode that solves
their factor, so the first mode fetches factors 1 and 2 (one group
epoch) and every later mode only the factor solved in the mode before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.array import ChaosArray
from repro.containers import DistHashMap, DistQueue
from repro.hpf.array import HPFArray
from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability
from repro.vmachine.window import Window, fence

__all__ = [
    "sparse_entries",
    "cp_als_serial",
    "cp_als_spmd",
    "CPALSResult",
]


def sparse_entries(shape, nnz: int, seed: int):
    """Deterministic raw COO entries — *with* duplicate coordinates.

    Returns ``(coords, vals)`` with ``coords`` of shape ``(nnz, 3)``.
    Duplicates are deliberate: assembly must combine them, which is what
    exercises ``accumulate_all``'s deterministic summing.
    """
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(0, s, size=nnz) for s in shape], axis=1
    ).astype(np.int64)
    vals = rng.standard_normal(nnz)
    return coords, vals


def _init_factors(shape, R: int, seed: int):
    rng = np.random.default_rng(seed + 1)
    return [rng.standard_normal((s, R)) for s in shape]


def _linearize(coords: np.ndarray, shape) -> np.ndarray:
    return (coords[:, 0] * shape[1] + coords[:, 1]) * shape[2] + coords[:, 2]


def _delinearize(keys: np.ndarray, shape) -> np.ndarray:
    k = np.asarray(keys, dtype=np.int64)
    i, rem = divmod(k, shape[1] * shape[2])
    j, l = divmod(rem, shape[2])
    return np.stack([i, j, l], axis=1)


# ---------------------------------------------------------------------------
# serial oracle
# ---------------------------------------------------------------------------

def cp_als_serial(shape, R: int, nnz: int, iters: int, seed: int):
    """Sequential NumPy reference: same entries, same update expression."""
    coords, vals = sparse_entries(shape, nnz, seed)
    # Combine duplicates in first-appearance order (matches the map's
    # per-key accumulation order).
    combined: dict[int, float] = {}
    for key, v in zip(_linearize(coords, shape), vals):
        combined[int(key)] = combined.get(int(key), 0.0) + float(v)
    keys = np.fromiter(combined.keys(), dtype=np.int64)
    cvals = np.fromiter(combined.values(), dtype=np.float64)
    ccoords = _delinearize(keys, shape)
    factors = _init_factors(shape, R, seed)
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    for _ in range(iters):
        for mode in range(3):
            a, b = others[mode]
            kr = factors[a][ccoords[:, a]] * factors[b][ccoords[:, b]]
            M = np.zeros((shape[mode], R))
            np.add.at(M, ccoords[:, mode], cvals[:, None] * kr)
            G = (factors[a].T @ factors[a]) * (factors[b].T @ factors[b])
            factors[mode] = M @ np.linalg.pinv(G)
    return factors


# ---------------------------------------------------------------------------
# distributed SPMD version
# ---------------------------------------------------------------------------

@dataclass
class CPALSResult:
    """One rank's observation of a distributed CP-ALS run."""

    #: gathered global factor matrices (replicated; identical on all ranks)
    factors: list = field(default_factory=list)
    #: deduplicated nonzeros resident on this rank after assembly
    local_nnz: int = 0
    #: this rank's counter snapshot (rma_*, hashmap_*, queue_* included)
    stats: dict = field(default_factory=dict)


def cp_als_spmd(
    comm: Communicator,
    shape=(12, 11, 10),
    R: int = 3,
    nnz: int = 200,
    iters: int = 3,
    seed: int = 7,
    use_queue: bool = False,
    reliable: bool = False,
) -> CPALSResult:
    """Run distributed sparse CP-ALS; collective over ``comm``.

    ``use_queue=True`` scatters MTTKRP partials through a
    :class:`DistQueue` (owner folds drained records) instead of direct
    window ``accumulate`` — same result, different one-sided idiom.
    """
    proc = comm.process
    P = comm.size
    coords, vals = sparse_entries(shape, nnz, seed)

    # -- assembly: raw entries -> DistHashMap (irregular ownership) --------
    with proc.span("cp_als:assembly"):
        lo = comm.rank * nnz // P
        hi = (comm.rank + 1) * nnz // P
        keys = _linearize(coords[lo:hi], shape)
        cap = max(16, 2 * (nnz // P) + 16)
        hmap = DistHashMap(comm, capacity_per_rank=cap, value_width=1,
                           reliable=reliable)
        hmap.accumulate_all(
            [(int(k), [float(v)]) for k, v in zip(keys, vals[lo:hi])])
        owned = sorted(hmap.local_items())  # [(key, [val])] on this rank
        my_keys = np.array([k for k, _ in owned], dtype=np.int64)
        my_vals = np.array([v[0] for _, v in owned])
        my_coords = _delinearize(my_keys, shape)

    # -- register the irregular side as a ChaosArray over the hash owners --
    with proc.span("cp_als:chaos_view"):
        # The deduped entries, in sorted-key order, with each entry owned
        # by the rank whose hash-map slot holds it — the translation from
        # raw data to irregular ownership the Chaos interface expects.
        all_keys = comm.allgather(my_keys)
        cat = np.concatenate(all_keys) if any(len(k) for k in all_keys) \
            else np.empty(0, dtype=np.int64)
        order = np.argsort(cat, kind="stable")
        owners = np.repeat(
            np.arange(P), [len(k) for k in all_keys])[order]
        nz_values = ChaosArray.from_global(
            comm, np.zeros(len(cat)), owners)
        # My slots, in global (sorted-key) order, are exactly my owned
        # values sorted by key — which `owned` already is.
        nz_values.local[:] = my_vals

    # -- factors: HPF (BLOCK, *) rows, local storage exposed as windows ----
    with proc.span("cp_als:factors"):
        full = _init_factors(shape, R, seed)
        factors = [HPFArray.from_global(comm, f, ("block", "*"))
                   for f in full]
        rel = Reliability() if reliable else None
        fwin = [Window(comm, f.local, reliability=rel) for f in factors]
        acc = [Window(comm, np.zeros_like(f.local), reliability=rel)
               for f in factors]
        queue = None
        if use_queue:
            depth = max(64, 4 * max(shape))
            queue = DistQueue(comm, capacity=depth, record_width=R + 1,
                              reliable=reliable)
        # Per factor, the rows my nonzeros touch as maximal runs of
        # consecutive rows on one owner, (owner, local row, global row, n):
        # fixed for the whole solve, shared by the fetch and the scatter.
        runs = []
        for m in range(3):
            need = np.unique(my_coords[:, m])
            owner, local_row = factors[m].dist.dims[0].map(need)
            new = np.ones(len(need), dtype=bool)
            new[1:] = (np.diff(need) != 1) | (np.diff(owner) != 0)
            first = np.flatnonzero(new)
            cols = (owner[first], local_row[first], need[first],
                    np.diff(first, append=len(need)))
            runs.append(list(zip(*(c.tolist() for c in cols))))
        # my copy of each factor's touched rows, by global row
        rows = [np.zeros((s, R)) for s in shape]

    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def fetch(*ms: int) -> None:
        """Refresh ``rows[m]`` for each factor in ``ms``: one ``get`` per
        run, all in one (group) epoch."""
        handles = [(m, g, n, fwin[m].get(owner, lr * R, n * R))
                   for m in ms for owner, lr, g, n in runs[m]]
        fence(*(fwin[m] for m in ms))
        for m, g, n, h in handles:
            rows[m][g:g + n] = h.value.reshape(n, R)

    with proc.span("cp_als:iterate"):
        stale = (1, 2)  # the factors whose rows mode 0 needs and lacks
        for _ in range(iters):
            for mode in range(3):
                a, b = others[mode]
                fetch(*stale)
                # local MTTKRP partials, summed per target row in nonzero
                # order (np.add.at applies its indices in order)
                part = np.zeros((shape[mode], R))
                np.add.at(part, my_coords[:, mode], my_vals[:, None] * (
                    rows[a][my_coords[:, a]] * rows[b][my_coords[:, b]]))
                proc.charge_flops(3 * R * len(my_vals))
                # scatter-add into the target factor's accumulator: one
                # op per run of the rows my nonzeros touch
                acc[mode].local[:] = 0.0
                if use_queue:
                    queue.push_all([
                        (owner, np.concatenate(([float(lr + i)], part[g + i])))
                        for owner, lr, g, n in runs[mode] for i in range(n)])
                    for rec in queue.pop_all():
                        lr = int(rec[0])
                        acc[mode].local[lr * R:(lr + 1) * R] += rec[1:]
                        proc.charge_flops(R)
                else:
                    for owner, lr, g, n in runs[mode]:
                        acc[mode].accumulate(owner, part[g:g + n].reshape(-1),
                                             start=lr * R)
                    acc[mode].fence()
                # Gram matrices from local BLOCK rows + allreduce
                la = factors[a].local_nd
                lb = factors[b].local_nd
                G = comm.allreduce(
                    np.stack([la.T @ la, lb.T @ lb]),
                    lambda x, y: x + y)
                proc.charge_flops(2 * R * R * (la.shape[0] + lb.shape[0]))
                G = G[0] * G[1]
                M = acc[mode].local.reshape(-1, R)
                factors[mode].local[:] = (M @ np.linalg.pinv(G)).reshape(-1)
                proc.charge_flops(2 * R * R * M.shape[0])
                stale = (mode,)

    with proc.span("cp_als:gather"):
        gathered = [comm.bcast(f.gather_global(), root=0) for f in factors]

    return CPALSResult(
        factors=gathered,
        local_nnz=int(len(my_vals)),
        stats=dict(proc.stats),
    )
