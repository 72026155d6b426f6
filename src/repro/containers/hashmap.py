"""Distributed open-addressing hash map over one-sided windows.

Layout: a global table of ``capacity`` slots is block-partitioned across
the ranks — slot ``s`` lives on rank ``s // cap_local`` at local offset
``s % cap_local``.  Each rank registers two windows: an ``int64`` *keys*
window (``EMPTY`` = -1) and a flat ``float64`` *values* window holding a
fixed-width vector per slot.  No owner-side code runs on behalf of a
remote operation: claiming a slot is a one-sided ``compare_and_swap`` on
the keys window, writing a value is a ``put``/``accumulate`` on the
values window.

Insertion runs in collective *rounds* (the BCL idiom adapted to fence
epochs).  The two windows always fence as one group, so a round is one
epoch.  In each round every rank CASes its pending keys into their
current probe slots and fences; the resolved old values tell it whether
it claimed the slot, found the key already present, or collided with a
different key and must probe on.  Value writes happen in a second
epoch: they ride the next round's CAS epoch, and one trailing epoch
carries the last round's, so a write costs ``rounds + 1`` fences.  After
each round the ranks agree (allreduce) whether anyone still has pending
items.  Two origins inserting the *same* key in the same round resolve
deterministically: the window's ``(origin, issue order)`` total order
picks one CAS winner; the loser's old value equals its own key, which is
indistinguishable from "already present" — exactly the semantics wanted.
A slot's value writes all land in the epoch after its claim, in origin
order, so the pipelining changes no sum.

Duplicate keys with ``accumulate_all`` combine by vector sum (duplicates
within one batch are pre-combined locally, so one accumulate per key per
epoch reaches the wire).
"""

from __future__ import annotations

import numpy as np

from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability
from repro.vmachine.window import Window, fence

__all__ = ["DistHashMap", "EMPTY_KEY"]

#: sentinel stored in the keys window for a free slot (keys must be >= 0)
EMPTY_KEY = -1

#: 64-bit multiplicative mixer (splitmix64's constant) — Python's own
#: ``hash`` of small ints is the identity, which clusters catastrophically
#: under linear probing on a block-partitioned table.
_MIX = 0x9E3779B97F4A7C15


def _slot_hash(key: int) -> int:
    h = key * _MIX & (2**64 - 1)  # uint64 wrap-around is the point
    return h ^ (h >> 31)


class DistHashMap:
    """A fixed-capacity distributed hash map of ``int -> float vector``.

    Parameters
    ----------
    comm:
        Communicator spanning the owning group (construction collective).
    capacity_per_rank:
        Local slots per rank; global capacity is ``P * capacity_per_rank``.
    value_width:
        Fixed length of every value vector.
    reliable:
        Route the underlying window traffic through the retransmit
        protocol (needed under an ``"rma"``-class fault plan).
    """

    def __init__(
        self,
        comm: Communicator,
        capacity_per_rank: int,
        value_width: int = 1,
        reliable: bool = False,
    ):
        if capacity_per_rank <= 0:
            raise ValueError("capacity_per_rank must be positive")
        if value_width <= 0:
            raise ValueError("value_width must be positive")
        self.comm = comm
        self.cap_local = int(capacity_per_rank)
        self.capacity = self.cap_local * comm.size
        self.value_width = int(value_width)
        rel = Reliability() if reliable else None
        self._keys = Window(
            comm, np.full(self.cap_local, EMPTY_KEY, dtype=np.int64),
            reliability=rel)
        self._values = Window(
            comm, np.zeros(self.cap_local * value_width), reliability=rel)

    # -- slot arithmetic ---------------------------------------------------

    def _slot(self, key: int, probe: int) -> tuple[int, int]:
        """(owner rank, local slot index) of ``key`` at probe distance."""
        s = (_slot_hash(key) + probe) % self.capacity
        return s // self.cap_local, s % self.cap_local

    # -- collective batch operations ---------------------------------------

    def insert_all(self, items) -> None:
        """Insert ``(key, vector)`` pairs; an existing key is overwritten.

        Collective — ranks with nothing to insert pass ``[]``.
        """
        self._write_all(items, op="replace")

    def accumulate_all(self, items) -> None:
        """Sum ``(key, vector)`` pairs into the map (missing key inserts).

        Duplicate keys — within this rank's batch or across ranks —
        combine by elementwise vector sum, deterministically.
        """
        self._write_all(items, op="sum")

    def _write_all(self, items, op: str) -> None:
        comm = self.comm
        proc = comm.process
        with proc.span("container:hashmap_write"):
            # Pre-combine duplicate keys in this batch: one wire op per key.
            batch: dict[int, np.ndarray] = {}
            for key, vec in items:
                key = int(key)
                if not 0 <= key < 2**63:  # what the int64 keys window holds
                    raise ValueError(
                        f"keys must be in [0, 2**63) (got {key})")
                vec = np.asarray(vec, dtype=np.float64).reshape(
                    self.value_width)
                if op == "sum" and key in batch:
                    vec = batch[key] + vec
                batch[key] = vec
            proc.metrics.incr("hashmap_writes", len(batch))
            # pending: key -> (vector, probe distance); iterate rounds in
            # sorted-key order so issue order (hence the total order the
            # fence applies) is deterministic.
            pending = {k: (v, 0) for k, v in batch.items()}
            rounds = 0
            while True:
                handles = []
                for key in sorted(pending):
                    vec, probe = pending[key]
                    owner, idx = self._slot(key, probe)
                    h = self._keys.compare_and_swap(owner, idx,
                                                    EMPTY_KEY, key)
                    handles.append((key, owner, idx, h))
                # this round's claims + the previous round's value writes
                fence(self._keys, self._values)
                rounds += 1
                for key, owner, idx, h in handles:
                    old = int(h.value)
                    if old == EMPTY_KEY or old == key:
                        vec, _ = pending.pop(key)
                        self._values.accumulate(
                            owner, vec, start=idx * self.value_width, op=op)
                    else:  # genuine collision with a different key
                        vec, probe = pending[key]
                        if probe + 1 >= self.capacity:
                            raise RuntimeError("DistHashMap is full")
                        pending[key] = (vec, probe + 1)
                if comm.allreduce(len(pending), max) == 0:
                    break
            fence(self._keys, self._values)  # the last round's writes
            proc.metrics.incr("hashmap_write_rounds", rounds)

    def find_all(self, keys) -> dict[int, np.ndarray | None]:
        """Look up many keys; collective.  Missing keys map to ``None``."""
        comm = self.comm
        proc = comm.process
        with proc.span("container:hashmap_find"):
            proc.metrics.incr("hashmap_finds", len(keys))
            out: dict[int, np.ndarray | None] = {}
            pending = {int(k): 0 for k in keys}
            while True:
                khandles = []
                for key in sorted(pending):
                    owner, idx = self._slot(key, pending[key])
                    kh = self._keys.get(owner, idx, 1)
                    vh = self._values.get(
                        owner, idx * self.value_width, self.value_width)
                    khandles.append((key, kh, vh))
                fence(self._keys, self._values)
                for key, kh, vh in khandles:
                    stored = int(kh.value[0])
                    probe = pending[key] + 1
                    if stored in (key, EMPTY_KEY) or probe >= self.capacity:
                        out[key] = vh.value if stored == key else None
                        del pending[key]
                    else:  # a different key: probe on
                        pending[key] = probe
                if comm.allreduce(len(pending), max) == 0:
                    break
            return out

    # -- owner-local access ------------------------------------------------

    def local_items(self) -> list[tuple[int, np.ndarray]]:
        """This rank's resident ``(key, vector)`` pairs (no communication).

        The hash distribution *is* the irregular partition: whoever owns
        the slot owns the entry, which is how a Chaos-style consumer gets
        its data-dependent ownership map.
        """
        out = []
        keys = self._keys.local
        vals = self._values.local
        w = self.value_width
        for idx in np.nonzero(keys != EMPTY_KEY)[0]:
            out.append((int(keys[idx]),
                        vals[idx * w:(idx + 1) * w].copy()))
        return out

    def local_size(self) -> int:
        """Number of entries resident on this rank (no communication)."""
        return int(np.count_nonzero(self._keys.local != EMPTY_KEY))

    def size(self) -> int:
        """Global entry count (collective)."""
        return self.comm.allreduce(self.local_size(), lambda a, b: a + b)
