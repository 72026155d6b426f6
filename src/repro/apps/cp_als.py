"""Sparse CP-ALS coupling an irregular tensor partition to BLOCK factors.

A 3-way sparse tensor is CP-decomposed (canonical polyadic, alternating
least squares) with the two distribution styles the paper couples —

- the **nonzeros** live in a Chaos-style *irregular* partition: raw
  entries (with duplicates) are summed into a ``DistHashMap`` in one
  buffered window epoch (a run per home rank's inbox, inserted there in
  origin order); a key's hashed home rank, per-rank capacity
  ``~2 nnz / P``, is the ownership map a rank solves with;
- the **factor matrices** are HPF ``(BLOCK, *)`` row distributions
  (:class:`~repro.hpf.array.HPFArray`).

The access pattern is fixed for the whole solve, so the sweep runs on a
schedule built once: per factor, the rows a rank's nonzeros touch are
mapped to their owners by the closed-form BLOCK map, and one
``alltoall_sparse`` tells each owner, for all three factors, which of
its local rows each reader reads.  Every iteration per mode: refresh
the fetched rows of the factor solved the mode before (each owner sends
each reader its rows, one message per pair that has rows; every rank
drew the initial factors, so the first mode fetches nothing), compute
local MTTKRP and R x R Gram partials and send both to every holder of
the mode's factor in one message.  A holder sums the rows in
reader-rank order, folds the Grams as ``Communicator.reduce`` would
(:func:`~repro.vmachine.comm.tree_fold`, so no collective runs) and
solves ``A <- M @ pinv(G)`` into the factor's own storage — the serial
oracle's update expression, so the result matches it to float round-off
(the reader-rank order differs from the serial sum only in grouping).
The owner's gather is charged like a served ``get``, the fold like an
applied ``accumulate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.containers import DistHashMap
from repro.hpf.array import HPFArray
from repro.vmachine.comm import Communicator, tree_fold

__all__ = [
    "sparse_entries",
    "cp_als_serial",
    "cp_als_spmd",
    "CPALSResult",
]

# the sweep's two executors: factor rows out to readers, partials home
_TAG_FETCH = 1 << 19
_TAG_SCATTER = (1 << 19) + 1


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
    # Combine duplicates in first-appearance order.  The map pre-sums a
    # rank's copies of a key, then adds the ranks' sums in rank order:
    # the same float sum unless a later rank holds the key twice.
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
    #: this rank's counter snapshot (the assembly's rma_* and hashmap_*
    #: included; the sweep is plain send/recv)
    stats: dict = field(default_factory=dict)


def cp_als_spmd(
    comm: Communicator,
    shape=(12, 11, 10),
    R: int = 3,
    nnz: int = 200,
    iters: int = 3,
    seed: int = 7,
) -> CPALSResult:
    """Run distributed sparse CP-ALS; collective over ``comm``."""
    proc = comm.process
    rank = comm.rank
    P = comm.size
    coords, vals = sparse_entries(shape, nnz, seed)

    # -- assembly: raw entries -> DistHashMap (irregular ownership) --------
    with proc.span("cp_als:assembly"):
        lo = rank * nnz // P
        hi = (rank + 1) * nnz // P
        keys = _linearize(coords[lo:hi], shape)
        cap = max(16, 2 * (nnz // P) + 16)
        hmap = DistHashMap(comm, capacity_per_rank=cap, value_width=1)
        hmap.accumulate_all(
            [(int(k), [float(v)]) for k, v in zip(keys, vals[lo:hi])])
        owned = sorted(hmap.local_items())  # [(key, [val])] on this rank
        my_keys = np.array([k for k, _ in owned], dtype=np.int64)
        my_vals = np.array([v[0] for _, v in owned])
        my_coords = _delinearize(my_keys, shape)

    # -- inspector: factors are HPF (BLOCK, *) rows; who reads which -------
    with proc.span("cp_als:factors"):
        full = _init_factors(shape, R, seed)
        factors = [HPFArray.from_global(comm, f, ("block", "*"))
                   for f in full]
        # reads[m][owner] = (global rows, owner's local rows) of factor m
        # my nonzeros touch, by the closed-form BLOCK map
        reads: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        for m in range(3):
            need = np.unique(my_coords[:, m])
            owner, local_row = factors[m].dist.dims[0].map(need)
            reads.append({int(o): (need[owner == o], local_row[owner == o])
                          for o in np.unique(owner)})
        # one exchange for all three factors: serves[m][reader] = my local
        # rows of factor m that reader reads, in reader-rank order
        empty = np.empty(0, dtype=np.int64)
        asked = comm.alltoall_sparse({
            o: [reads[m][o][1] if o in reads[m] else empty for m in range(3)]
            for o in sorted(set().union(*reads))})
        serves = [{r: asked[r][m] for r in sorted(asked) if len(asked[r][m])}
                  for m in range(3)]
        # the ranks holding rows of each factor, by the same closed form
        holders = [np.unique(f.dist.dims[0].map(np.arange(s))[0]).tolist()
                   for f, s in zip(factors, shape)]
        # my copy of each factor's touched rows, by global row: every rank
        # drew the initial factors, so none is stale yet
        rows = full

    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def fetch(m: int) -> None:
        """Refresh ``rows[m]``: each owner sends each reader its rows in
        one message; my own rows are a copy."""
        local = factors[m].local_nd
        for reader, lrows in serves[m].items():
            got = local[lrows]
            proc.charge_mem(got.nbytes)
            if reader == rank:
                rows[m][reads[m][rank][0]] = got
            else:
                comm.send(reader, got, _TAG_FETCH)
        for owner, (grows, _) in reads[m].items():
            if owner != rank:
                rows[m][grows] = comm.recv(owner, _TAG_FETCH)

    def solve(mode: int, part: np.ndarray, gram: np.ndarray) -> None:
        """Send every holder of factor ``mode`` my partials of its rows
        (``None`` if I touch none) with my Gram partials.  A holder sums
        the rows in reader-rank order, my own at my rank's place, folds
        the Grams as the binomial reduce would and solves its rows."""
        out = {h: (part[reads[mode][h][0]] if h in reads[mode] else None,
                   gram) for h in holders[mode]}
        for holder, payload in out.items():
            if holder != rank:
                comm.send(holder, payload, _TAG_SCATTER)
        if rank not in out:
            return
        M = np.zeros_like(factors[mode].local_nd)
        grams = []
        for reader in range(P):
            got, g = (out[rank] if reader == rank
                      else comm.recv(reader, _TAG_SCATTER))
            grams.append(g)
            if got is not None:
                M[serves[mode][reader]] += got
                proc.charge_flops(got.size)
                proc.charge_mem(got.nbytes)
        G = tree_fold(grams, lambda x, y: x + y)
        factors[mode].local[:] = (M @ np.linalg.pinv(G[0] * G[1])).reshape(-1)
        proc.charge_flops(2 * R * R * M.shape[0])

    with proc.span("cp_als:iterate"):
        stale = ()  # the factors whose fetched rows are out of date
        for _ in range(iters):
            for mode in range(3):
                a, b = others[mode]
                for m in stale:
                    fetch(m)
                # local MTTKRP partials, summed per target row in nonzero
                # order (np.add.at applies its indices in order)
                part = np.zeros((shape[mode], R))
                np.add.at(part, my_coords[:, mode], my_vals[:, None] * (
                    rows[a][my_coords[:, a]] * rows[b][my_coords[:, b]]))
                proc.charge_flops(3 * R * len(my_vals))
                # Gram partials from my local BLOCK rows
                la = factors[a].local_nd
                lb = factors[b].local_nd
                gram = np.stack([la.T @ la, lb.T @ lb])
                proc.charge_flops(2 * R * R * (la.shape[0] + lb.shape[0]))
                solve(mode, part, gram)
                stale = (mode,)

    with proc.span("cp_als:gather"):
        # one collective for all three: (BLOCK, *) blocks arrive in rank
        # order, so each factor is its ranks' rows concatenated
        blocks = comm.allgather([f.local for f in factors])
        gathered = [np.concatenate([b[m] for b in blocks]).reshape(-1, R)
                    for m in range(3)]

    return CPALSResult(
        factors=gathered,
        local_nnz=int(len(my_vals)),
        stats=dict(proc.stats),
    )
