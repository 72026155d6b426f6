"""Communication-schedule computation (§4.1.3, §5.1).

A :class:`CommSchedule` tells each processor, per peer, *which local
elements to send* and *which local elements to receive into*, with both
sides ordered by the linearization so the k-th packed element lands in the
k-th unpacked slot.  The paper's Figure 8 algorithm is implemented in two
variants:

``ScheduleMethod.COOPERATION``
    Source-group processors dereference the source side of an even chunk
    of the linearization and ship the results to the destination-group
    processors, which dereference the destination side of their chunk,
    form the complete schedule entries, and distribute each processor's
    halves (a dense all-to-all — the paper notes schedule building
    "requires an all-to-all communication ... and a relatively small
    amount of data is sent").

``ScheduleMethod.DUPLICATION``
    Source and destination data descriptors are first made available on
    every processor (free within one program; an explicit exchange across
    programs — impractical when a descriptor is data-sized, like a Chaos
    translation table).  Every processor then computes its own halves
    locally with *no* communication: it enumerates its owned elements on
    each side and dereferences the opposite library for them.  The
    opposite-side dereference happens once for the send role and once for
    the receive role, which is why duplication "must call the Chaos
    dereference function twice" and costs about 2x cooperation when the
    dereference dominates (paper Table 2).

Both produce identical data movement: the same messages, sizes and
element order (verified by the test suite).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.linearization import Linearization, check_conformance
from repro.core.policy import ExecutorPolicy, ordered_or_rotated
from repro.core.registry import LibraryAdapter, get_adapter
from repro.core.runs import KeyGroups, RunList, group_by_runs
from repro.core.setofregions import SetOfRegions
from repro.core.universe import (
    TAG_DESCRIPTOR,
    TAG_SCHED_PIECES,
    TAG_SCHED_SRCINFO,
    Universe,
)

__all__ = [
    "ScheduleMethod",
    "CommSchedule",
    "SchedulePeerStats",
    "build_schedule",
    "chunk_ranges",
]


class ScheduleMethod(enum.Enum):
    """How ownership information is assembled into a schedule."""

    COOPERATION = "cooperation"
    DUPLICATION = "duplication"


@dataclass(frozen=True)
class SchedulePeerStats:
    """Per-peer traffic summary of one processor's schedule halves.

    Everything message-level behaviour depends on, without touching any
    data buffer: how many elements travel to/from each peer, how many
    runs encode each half (the wire size of the schedule itself), and the
    payload bytes each peer-message would carry at ``itemsize`` bytes per
    element.  Read by the ``plan-summary`` CLI.
    """

    #: elements per destination-group peer (send half; nonempty peers only)
    send_elements: dict[int, int]
    #: elements per source-group peer (receive half; nonempty peers only)
    recv_elements: dict[int, int]
    #: greedy run count of each send half
    send_runs: dict[int, int]
    #: greedy run count of each receive half
    recv_runs: dict[int, int]
    #: payload bytes of the message to each destination peer
    send_bytes: dict[int, int]
    #: payload bytes of the message from each source peer
    recv_bytes: dict[int, int]
    #: element size the byte figures were computed with
    itemsize: int

    @property
    def send_fanout(self) -> int:
        """Number of destination peers this rank actually messages."""
        return len(self.send_elements)

    @property
    def recv_fanout(self) -> int:
        """Number of source peers this rank actually hears from."""
        return len(self.recv_elements)

    @property
    def total_send_elements(self) -> int:
        return sum(self.send_elements.values())

    @property
    def total_send_bytes(self) -> int:
        return sum(self.send_bytes.values())


@dataclass
class CommSchedule:
    """One processor's halves of a communication schedule.

    ``sends[d]`` — local offsets (into the *source* array's local storage)
    of the elements this processor ships to destination-group rank ``d``,
    in linearization order.  Present only on source-group members.

    ``recvs[s]`` — local offsets (into the *destination* array) receiving
    the elements sent by source-group rank ``s``, in the same order.
    Present only on destination-group members.

    Halves are stored as immutable, run-compressed
    :class:`~repro.core.runs.RunList` sequences — O(runs) memory for
    regular section moves instead of O(elements) — and are auto-compressed
    when dense arrays are supplied.  RunLists are array-like (``len``,
    ``np.asarray``, indexing), and :meth:`dense` recovers a schedule with
    plain ndarray halves for code that needs them.  Because the halves
    are immutable, :meth:`reverse` can share them safely: mutating one
    direction's schedule cannot corrupt the other (attempts raise).

    The schedule is symmetric (§4.3): :meth:`reverse` yields the schedule
    for copying the destination data back onto the source elements.
    """

    src_lib: str
    dst_lib: str
    n_elements: int
    src_size: int
    dst_size: int
    method: ScheduleMethod
    sends: dict[int, RunList] = field(default_factory=dict)
    recvs: dict[int, RunList] = field(default_factory=dict)
    #: lazily compiled same-schedule MovePlans, keyed ``(k, reverse)``
    #: (:func:`repro.core.plan.plan_of`), memoised here the way a RunList
    #: memoises its MoveProgram
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Backward compatibility: dense offset arrays are accepted and
        # auto-compressed into the run representation.
        self.sends = {
            int(k): v if isinstance(v, RunList) else RunList.from_dense(v)
            for k, v in self.sends.items()
        }
        self.recvs = {
            int(k): v if isinstance(v, RunList) else RunList.from_dense(v)
            for k, v in self.recvs.items()
        }

    def reverse(self) -> "CommSchedule":
        """The same mapping with the copy direction flipped.

        The immutable halves are shared, not copied — safe, because
        neither schedule can mutate them.
        """
        return CommSchedule(
            src_lib=self.dst_lib,
            dst_lib=self.src_lib,
            n_elements=self.n_elements,
            src_size=self.dst_size,
            dst_size=self.src_size,
            method=self.method,
            sends={s: offs for s, offs in self.recvs.items()},
            recvs={d: offs for d, offs in self.sends.items()},
        )

    def dense(self) -> "CommSchedule":
        """A copy of this schedule with plain (read-only) ndarray halves.

        For tests, benchmarks and external tooling that want raw offset
        arrays; ``__post_init__`` recompresses, so build the dicts by
        hand to keep them dense.
        """
        out = CommSchedule(
            src_lib=self.src_lib,
            dst_lib=self.dst_lib,
            n_elements=self.n_elements,
            src_size=self.src_size,
            dst_size=self.dst_size,
            method=self.method,
        )
        out.sends = {d: _readonly(v) for d, v in self.sends.items()}
        out.recvs = {s: _readonly(v) for s, v in self.recvs.items()}
        return out

    # -- introspection used by tests and benchmarks -------------------------

    @property
    def send_count(self) -> int:
        return int(sum(len(v) for v in self.sends.values()))

    @property
    def recv_count(self) -> int:
        return int(sum(len(v) for v in self.recvs.values()))

    @property
    def nbytes_memory(self) -> int:
        """This rank's in-memory schedule footprint (both halves)."""
        return int(
            sum(_half_nbytes(v) for v in self.sends.values())
            + sum(_half_nbytes(v) for v in self.recvs.values())
        )

    @property
    def nbytes_dense(self) -> int:
        """What the same halves would occupy as dense int64 offset arrays."""
        return int(8 * (self.send_count + self.recv_count))

    def message_partners(self) -> tuple[list[int], list[int]]:
        """(destinations we send to, sources we receive from), nonempty only."""
        return (
            sorted(d for d, v in self.sends.items() if len(v)),
            sorted(s for s, v in self.recvs.items() if len(v)),
        )

    def stats(self, itemsize: int = 8) -> SchedulePeerStats:
        """Per-peer element/byte/run counts and fan-out of this rank's halves.

        ``itemsize`` sizes the byte figures (default: 8-byte elements, the
        paper's doubles); pass the moved array's true element size for
        exact message payload bytes.  Purely local and cheap — O(peers),
        reading only the run metadata, never a data buffer.  Its one caller
        is ``python -m repro plan-summary``.
        """
        send_elements = {d: len(v) for d, v in sorted(self.sends.items()) if len(v)}
        recv_elements = {s: len(v) for s, v in sorted(self.recvs.items()) if len(v)}
        return SchedulePeerStats(
            send_elements=send_elements,
            recv_elements=recv_elements,
            send_runs={d: _half_nruns(self.sends[d]) for d in send_elements},
            recv_runs={s: _half_nruns(self.recvs[s]) for s in recv_elements},
            send_bytes={d: n * itemsize for d, n in send_elements.items()},
            recv_bytes={s: n * itemsize for s, n in recv_elements.items()},
            itemsize=itemsize,
        )


def _readonly(offsets) -> np.ndarray:
    arr = offsets.expand() if isinstance(offsets, RunList) else np.array(offsets)
    arr.setflags(write=False)
    return arr


def _half_nbytes(offsets) -> int:
    if isinstance(offsets, RunList):
        return offsets.nbytes_memory
    return int(np.asarray(offsets).nbytes)


def _half_nruns(offsets) -> int:
    return RunList.from_dense(offsets).nruns


def chunk_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, n) into ``parts`` near-equal contiguous ranges."""
    if parts < 1:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def build_schedule(
    universe: Universe,
    src_lib: str,
    src_handle,
    src_sor: SetOfRegions | None,
    dst_lib: str,
    dst_handle,
    dst_sor: SetOfRegions | None,
    method: ScheduleMethod = ScheduleMethod.COOPERATION,
    policy: ExecutorPolicy = ExecutorPolicy.ORDERED,
) -> CommSchedule:
    """Collectively compute a communication schedule.

    Every processor of the universe (both groups) must call this with the
    same arguments for its role:

    - source-group members pass their ``src_handle``/``src_sor``;
    - destination-group members pass ``dst_handle``/``dst_sor``;
    - in a single program every processor passes all four;
    - across two programs, the opposite side's handle/sor may be ``None``
      (cooperation) — duplication needs both SetOfRegions on both sides,
      since the mapping is recomputed locally everywhere.

    ``policy`` orders the schedule-build exchanges themselves:
    ``ExecutorPolicy.OVERLAP`` staggers the phase-1/phase-3 injections and
    completes receives in arrival order (the resulting *schedule* is
    identical either way — only the build's logical clock changes).
    Duplication builds no exchanges beyond a rank-0 descriptor swap, so
    ``policy`` is a no-op there.
    """
    policy = ExecutorPolicy.coerce(policy)
    proc = universe.process
    with proc.span("schedule:build"):
        proc.charge_startup()
        src_adapter = get_adapter(src_lib)
        dst_adapter = get_adapter(dst_lib)

        # The handles' distributions must span exactly their universe
        # group — a mismatch would produce schedule entries addressing
        # ranks that do not exist (or silently starve some).
        if src_handle is not None and universe.my_src_rank is not None:
            nprocs = src_adapter.dist_of(
                src_adapter.resolve_handle(src_handle)
            ).nprocs
            if nprocs != universe.src_size:
                raise ValueError(
                    f"source structure is distributed over {nprocs} "
                    f"processors but the source group has {universe.src_size}"
                )
        if dst_handle is not None and universe.my_dst_rank is not None:
            nprocs = dst_adapter.dist_of(
                dst_adapter.resolve_handle(dst_handle)
            ).nprocs
            if nprocs != universe.dst_size:
                raise ValueError(
                    f"destination structure is distributed over {nprocs} "
                    f"processors but the destination group has "
                    f"{universe.dst_size}"
                )

        n = _conformance_size(universe, src_handle, src_sor, dst_handle,
                              dst_sor, src_adapter, dst_adapter)

        if method is ScheduleMethod.COOPERATION:
            sends, recvs = _build_cooperation(
                universe, src_adapter, src_handle, src_sor,
                dst_adapter, dst_handle, dst_sor, n, policy,
            )
        elif method is ScheduleMethod.DUPLICATION:
            sends, recvs = _build_duplication(
                universe, src_adapter, src_handle, src_sor,
                dst_adapter, dst_handle, dst_sor, n,
            )
        else:  # pragma: no cover - enum exhausted
            raise ValueError(f"unknown method {method}")

        return CommSchedule(
            src_lib=src_lib,
            dst_lib=dst_lib,
            n_elements=n,
            src_size=universe.src_size,
            dst_size=universe.dst_size,
            method=method,
            sends=sends,
            recvs=recvs,
        )


#: count a program's rank 0 sends in place of its element count when its
#: SetOfRegions does not fit its data structure, so the peer program
#: fails too instead of waiting for schedule pieces that never come
_BAD_REGION = -1


def _conformance_size(
    universe: Universe,
    src_handle, src_sor, dst_handle, dst_sor,
    src_adapter: LibraryAdapter, dst_adapter: LibraryAdapter,
) -> int:
    """Element count, validated across both sides (§4.1.2's one constraint).

    Binding each SetOfRegions to its structure's shape (a
    :class:`Linearization`) also checks that every region fits it.  That
    runs here — on every rank, before the first exchange — so a bad
    region raises the same ``ValueError`` everywhere rather than an index
    error on whichever rank's chunk happens to hold the bad element.
    """
    if universe.single_program:
        src_linz = Linearization(src_sor, src_adapter.shape_of(src_handle))
        dst_linz = Linearization(dst_sor, dst_adapter.shape_of(dst_handle))
        return check_conformance(src_linz, dst_linz)
    # Two programs: rank 0 of each side exchanges its count.
    misfit = None
    try:
        if universe.my_src_rank is not None:
            my_n = Linearization(src_sor, src_adapter.shape_of(src_handle)).size
        else:
            my_n = Linearization(dst_sor, dst_adapter.shape_of(dst_handle)).size
    except ValueError as exc:
        my_n, misfit = _BAD_REGION, exc
    if universe.my_src_rank == 0:
        universe.to_dst.send(0, my_n, TAG_SCHED_SRCINFO)
        other = universe.to_dst.recv(0, TAG_SCHED_SRCINFO)
    elif universe.my_dst_rank == 0:
        universe.to_src.send(0, my_n, TAG_SCHED_SRCINFO)
        other = universe.to_src.recv(0, TAG_SCHED_SRCINFO)
    else:
        other = my_n
    if misfit is not None:
        raise misfit
    if other == _BAD_REGION:
        raise ValueError(
            "the peer program's SetOfRegions does not fit its data "
            "structure (see the peer's error)"
        )
    if other != my_n:
        raise ValueError(
            f"source SetOfRegions has a different element count "
            f"({my_n} here vs {other} on the peer program)"
        )
    return my_n


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------


def _overlaps(lo: int, hi: int, chunks: list[tuple[int, int]]) -> list[int]:
    """Indices of chunks intersecting [lo, hi) — binary search, O(log P + k).

    ``chunk_ranges`` yields sorted, contiguous chunks, so both the start
    and end boundaries are non-decreasing:  chunk ``i`` intersects iff
    ``ends[i] > lo`` (first such index by ``searchsorted(..., 'right')``)
    and ``starts[i] < hi`` (one past the last by ``searchsorted(...,
    'left')``).  Zero-width chunks inside the window are filtered out,
    matching the old linear scan's ``max(lo, clo) < min(hi, chi)`` test.
    Output stays in ascending chunk order.
    """
    if hi <= lo or not chunks:
        return []
    starts = np.fromiter((c[0] for c in chunks), dtype=np.int64, count=len(chunks))
    ends = np.fromiter((c[1] for c in chunks), dtype=np.int64, count=len(chunks))
    first = int(np.searchsorted(ends, lo, side="right"))
    last = int(np.searchsorted(starts, hi, side="left"))
    return [i for i in range(first, last) if chunks[i][0] < chunks[i][1]]


def _build_cooperation(
    universe, src_adapter, src_handle, src_sor,
    dst_adapter, dst_handle, dst_sor, n,
    policy: ExecutorPolicy = ExecutorPolicy.ORDERED,
):
    src_chunks = chunk_ranges(n, universe.src_size)
    dst_chunks = chunk_ranges(n, universe.dst_size)
    stash: tuple | None = None  # the piece this rank keeps for itself

    # Phase 1: source side dereferences its linearization chunk and ships
    # the (owner, local offset) info to the destination chunk owners.
    # Under OVERLAP the targets are visited in rotated order (staggered
    # injection); the pieces carry their linearization offset ``olo``, so
    # send order never affects the schedule content.
    if universe.my_src_rank is not None:
        lo, hi = src_chunks[universe.my_src_rank]
        sranks, soffs = src_adapter.deref_range(src_handle, src_sor, lo, hi)
        targets = ordered_or_rotated(
            _overlaps(lo, hi, dst_chunks),
            universe.my_src_rank, universe.dst_size, policy,
        )
        for d in targets:
            dlo, dhi = dst_chunks[d]
            olo, ohi = max(lo, dlo), min(hi, dhi)
            ranks_d = sranks[olo - lo : ohi - lo]
            offs_d = soffs[olo - lo : ohi - lo]
            if universe.same_proc_dst(d):
                # Never leaves the rank: keep the dense slices, skipping
                # the compress -> expand round trip of the wire form.
                stash = (olo, ranks_d, offs_d)
            else:
                universe.to_dst.send(
                    d, (olo, *_encode((ranks_d, offs_d))), TAG_SCHED_SRCINFO
                )

    # Phase 2: destination side dereferences its chunk, merges in the
    # source info, and forms complete schedule entries for its chunk.
    # Placement is by each piece's ``olo``, so completion order is free:
    # the local stash first, then the remote pieces in rank order or —
    # under OVERLAP — in *arrival* order.
    src_pieces: list | None = None
    dst_pieces: list | None = None
    if universe.my_dst_rank is not None:
        dlo, dhi = dst_chunks[universe.my_dst_rank]
        m = dhi - dlo
        sranks = np.empty(m, dtype=np.int64)
        soffs = np.empty(m, dtype=np.int64)

        def _place(olo, r, o):
            sranks[olo - dlo : olo - dlo + len(r)] = r
            soffs[olo - dlo : olo - dlo + len(o)] = o

        if stash is not None:
            _place(*stash)
        remote = [
            s for s in _overlaps(dlo, dhi, src_chunks)
            if not universe.same_proc_src(s)
        ]
        for _, (olo, r, o) in universe.to_src.arrivals(
            remote, TAG_SCHED_SRCINFO, overlap=policy is ExecutorPolicy.OVERLAP
        ):
            _place(olo, r.dense(), o.dense())
        dranks, doffs = dst_adapter.deref_range(dst_handle, dst_sor, dlo, dhi)

        # Halves for every source-group processor: (dranks, soffs) of the
        # entries it owns on the source side, in linearization order; for
        # every destination-group processor: (sranks, doffs).  Each owner
        # array is grouped once and the grouping applied to both values.
        src_pieces = _halves(KeyGroups(sranks), universe.src_size, dranks, soffs)
        dst_pieces = _halves(KeyGroups(dranks), universe.dst_size, sranks, doffs)

    # Phase 3: dense distribution of the halves, then local assembly.
    my_src_half, my_dst_half = _distribute_pieces(
        universe, src_pieces, dst_pieces, policy
    )

    sends: dict[int, np.ndarray] = {}
    recvs: dict[int, np.ndarray] = {}
    if universe.my_src_rank is not None:
        # Pieces arrive in destination-chunk order == linearization order.
        sends = _assemble(my_src_half)
    if universe.my_dst_rank is not None:
        recvs = _assemble(my_dst_half)
    return sends, recvs


_EMPTY = np.zeros(0, dtype=np.int64)


def _halves(groups: KeyGroups, nranks: int, first, second) -> list[tuple]:
    """Per-rank ``(first, second)`` dense pieces of one grouping (empty
    for ranks owning nothing in the chunk)."""
    pieces = [(_EMPTY, _EMPTY)] * nranks
    for k, a, b in zip(groups.keys, groups.split(first), groups.split(second)):
        pieces[k] = (a, b)
    return pieces


def _encode(piece: tuple) -> tuple:
    """Wire form of one ``(peers, offsets)`` piece: run-compressed."""
    return RunList.from_dense(piece[0]), RunList.from_dense(piece[1])


def _decode(piece: tuple) -> tuple:
    """Dense (read-only) form of a received :func:`_encode` piece."""
    return piece[0].dense(), piece[1].dense()


def _assemble(half: list[tuple]) -> dict[int, RunList]:
    """One rank's schedule half from its per-chunk-owner dense pieces."""
    peers = np.concatenate([p[0] for p in half])
    return group_by_runs(peers, np.concatenate([p[1] for p in half]))


def _distribute_pieces(
    universe, src_pieces, dst_pieces,
    policy: ExecutorPolicy = ExecutorPolicy.ORDERED,
):
    """Dense all-to-all of schedule halves from destination-chunk owners.

    Every destination-group processor addresses one message to every
    source-group processor and one to every destination-group processor
    (merged when the two coincide).  Under ``ORDERED`` receivers collect
    one piece from every destination-chunk owner in rank order; under
    ``OVERLAP`` the sends are rotated and the pieces are completed in
    arrival order via wait-any, slotted into their sender's index — the
    assembled halves are identical either way.

    Pieces go in and come out dense; only what is sent takes the
    run-compressed wire form, so the piece a rank keeps for itself is
    never compressed and re-expanded.
    """
    if universe.single_program:
        comm_size = universe.dst_size
        me = universe.my_dst_rank
        for p in ordered_or_rotated(
            [p for p in range(comm_size) if p != me], me, comm_size, policy
        ):
            universe.to_dst.send(
                p, (_encode(src_pieces[p]), _encode(dst_pieces[p])),
                TAG_SCHED_PIECES,
            )
        pieces = _collect(
            universe, policy, lambda p: (_decode(p[0]), _decode(p[1])),
            mine=(src_pieces[me], dst_pieces[me]),
        )
        return [p[0] for p in pieces], [p[1] for p in pieces]

    # Two programs: only destination-group members hold pieces.
    if universe.my_dst_rank is not None:
        me = universe.my_dst_rank
        for s in ordered_or_rotated(
            list(range(universe.src_size)), me, universe.src_size, policy
        ):
            universe.to_src.send(s, _encode(src_pieces[s]), TAG_SCHED_PIECES)
        for d in ordered_or_rotated(
            [d for d in range(universe.dst_size) if d != me],
            me, universe.dst_size, policy,
        ):
            universe.to_dst.send(d, _encode(dst_pieces[d]), TAG_SCHED_PIECES)
        return None, _collect(universe, policy, _decode, mine=dst_pieces[me])
    # Pure source-group member.
    return _collect(universe, policy, _decode), None


def _collect(universe, policy, decode, mine=None) -> list:
    """Phase-3 pieces indexed by destination-chunk owner, decoded: one
    message from each owner, except that a destination-group caller's
    own slot takes ``mine`` (still dense) as is."""
    me = universe.my_dst_rank
    pieces: list = [mine] * universe.dst_size
    for q, piece in universe.to_dst.arrivals(
        [q for q in range(universe.dst_size) if q != me], TAG_SCHED_PIECES,
        overlap=policy is ExecutorPolicy.OVERLAP,
    ):
        pieces[q] = decode(piece)
    return pieces


# ---------------------------------------------------------------------------
# duplication
# ---------------------------------------------------------------------------


def _build_duplication(
    universe, src_adapter, src_handle, src_sor,
    dst_adapter, dst_handle, dst_sor, n,
):
    # Make both descriptors available everywhere.  Inside one program both
    # arrays are already at hand — no communication (paper Table 5
    # discussion).  Across programs, rank 0 of each side exports its data
    # descriptor to the peer, which broadcasts it internally; the
    # transport is charged the descriptor's true size (huge for
    # translation tables — the paper's practicality caveat).
    if not universe.single_program:
        src_handle, dst_handle = _exchange_descriptors(
            universe, src_adapter, src_handle, dst_adapter, dst_handle
        )
        if src_sor is None or dst_sor is None:
            raise ValueError(
                "the duplication method needs both SetOfRegions on every "
                "processor (the mapping is recomputed locally)"
            )
    src_local = src_adapter.resolve_handle(src_handle)
    dst_local = dst_adapter.resolve_handle(dst_handle)

    sends: dict[int, np.ndarray] = {}
    recvs: dict[int, np.ndarray] = {}
    if universe.my_src_rank is not None:
        # Send role: my source-side elements; dereference the destination
        # library to learn where each goes.
        lin_mine, soffs_mine = src_adapter.local_elements(
            src_local, src_sor, universe.my_src_rank
        )
        dranks, _ = dst_adapter.deref_lin(dst_local, dst_sor, lin_mine)
        sends = group_by_runs(dranks, soffs_mine)
    if universe.my_dst_rank is not None:
        # Receive role: my destination-side elements; dereference the
        # source library to learn who sends each.  (The second dereference
        # of the expensive side — duplication's 2x.)
        lin_mine, doffs_mine = dst_adapter.local_elements(
            dst_local, dst_sor, universe.my_dst_rank
        )
        sranks, _ = src_adapter.deref_lin(src_local, src_sor, lin_mine)
        recvs = group_by_runs(sranks, doffs_mine)
    return sends, recvs


def _exchange_descriptors(universe, src_adapter, src_handle, dst_adapter, dst_handle):
    """Cross-program descriptor exchange for the duplication method."""
    if universe.my_src_rank is not None:
        comm = universe.comm  # TwoProgramUniverse attribute
        if universe.my_src_rank == 0:
            universe.to_dst.send(0, src_adapter.export_handle(src_handle), TAG_DESCRIPTOR)
            remote = universe.to_dst.recv(0, TAG_DESCRIPTOR)
        else:
            remote = None
        remote = comm.bcast(remote, root=0)
        return src_handle, remote
    comm = universe.comm
    if universe.my_dst_rank == 0:
        remote = universe.to_src.recv(0, TAG_DESCRIPTOR)
        universe.to_src.send(0, dst_adapter.export_handle(dst_handle), TAG_DESCRIPTOR)
    else:
        remote = None
    remote = comm.bcast(remote, root=0)
    return remote, dst_handle
