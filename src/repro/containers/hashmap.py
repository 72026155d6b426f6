"""Distributed open-addressing hash map over one-sided windows.

Each rank owns a block of ``capacity_per_rank`` slots: an ``int64``
*keys* window (``EMPTY`` = -1) and a flat ``float64`` *values* window,
a fixed-width vector per slot.  A key's *home* is global slot
``_slot_hash(key) % capacity`` on its *home rank*; probing wraps inside
that rank's block, so a key lives on its home rank and capacity is per
rank.  An *inbox* of ``P × capacity_per_rank`` key and value slots, one
block per origin, registers with the table in one collective.

A write is one fence epoch, BCL's buffered insert — no compare-and-swap,
no probe rounds.  Each origin pre-combines its batch's duplicate keys
and puts one sorted run of keys and one of vectors into its block of
each home rank's inbox: one message per pair, the paper's
aggregation rule.  After the fence each owner inserts its inbox
locally, origins in rank order, runs in key order, a present key summed
(``accumulate_all``) or overwritten (``insert_all``), so duplicates
combine deterministically.  The owner is charged, on the
``per_element`` term, an applied ``compare_and_swap`` per slot probed
and an applied ``accumulate`` per key.  A home rank sent more keys than
its block holds raises ``DistHashMap is full`` after the fence, so no
rank waits at one.  ``find_all`` is ``get`` rounds that end at the
first fence nobody looked up in, probing at most a block.
"""

from __future__ import annotations

import numpy as np

from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability
from repro.vmachine.window import Window, fence

__all__ = ["DistHashMap", "EMPTY_KEY"]

#: sentinel stored in the keys window for a free slot (keys must be >= 0)
EMPTY_KEY = -1

#: the run an origin sends a home whose block cannot hold its keys
_OVERFULL = -2

#: 64-bit multiplicative mixer (splitmix64's constant) — Python's own
#: ``hash`` of small ints is the identity, which clusters catastrophically
#: under linear probing.
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
        Slots per rank: the most keys one home rank holds.
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
        self.cap_local = cap = int(capacity_per_rank)
        self.capacity = cap * comm.size
        self.value_width = w = int(value_width)
        # my table block, then my inbox: a block per origin
        self._keys, self._values, self._inbox_keys, self._inbox_values = (
            Window.group(comm, *[a for n in (cap, self.capacity) for a in (
                np.full(n, EMPTY_KEY, dtype=np.int64), np.zeros(n * w))],
                reliability=Reliability() if reliable else None))

    # -- slot arithmetic ---------------------------------------------------

    def _slot(self, key: int, probe: int) -> tuple[int, int]:
        """(home rank, local slot index) of ``key`` at probe distance."""
        s = _slot_hash(key) % self.capacity
        return s // self.cap_local, (s + probe) % self.cap_local

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
        proc = self.comm.process
        cap, w = self.cap_local, self.value_width
        with proc.span("container:hashmap_write"):
            # Pre-combine duplicate keys in this batch: one wire op per key.
            batch: dict[int, np.ndarray] = {}
            for key, vec in items:
                key = int(key)
                if not 0 <= key < 2**63:  # what the int64 keys window holds
                    raise ValueError(f"keys must be in [0, 2**63) (got {key})")
                vec = np.asarray(vec, dtype=np.float64).reshape(w)
                if op == "sum" and key in batch:
                    vec = batch[key] + vec
                batch[key] = vec
            proc.metrics.incr("hashmap_writes", len(batch))
            # One sorted run per home rank, into my block of its inbox.
            runs: dict[int, list[int]] = {}
            for key in sorted(batch):
                runs.setdefault(self._slot(key, 0)[0], []).append(key)
            start = self.comm.rank * cap
            for home, run in runs.items():
                if len(run) > cap:  # the home raises on reading this
                    self._inbox_keys.put(home, _OVERFULL, start)
                    continue
                self._inbox_keys.put(home, run, start)
                self._inbox_values.put(
                    home, np.concatenate([batch[k] for k in run]), start * w)
            fence(self._inbox_keys, self._inbox_values)
            # Insert my inbox into my block, origins in rank order and
            # each run in key order, and empty it.
            inbox, slots = self._inbox_keys.local, self._keys.local
            arrived = np.flatnonzero(inbox != EMPTY_KEY)
            values = self._values.local.reshape(cap, w)
            sent = self._inbox_values.local.reshape(self.capacity, w)
            probes = 0
            for j, key in zip(arrived.tolist(), inbox[arrived].tolist()):
                probe = 0 if key != _OVERFULL else cap
                while probe < cap:
                    idx = self._slot(key, probe)[1]
                    probe += 1
                    if slots[idx] in (EMPTY_KEY, key):
                        break
                else:  # no slot left in my block, or a run too long for it
                    raise RuntimeError(
                        f"DistHashMap is full: rank {self.comm.rank} is "
                        f"home to more than {cap} keys")
                probes += probe
                slots[idx] = key
                values[idx] = values[idx] + sent[j] if op == "sum" else sent[j]
            inbox[arrived] = EMPTY_KEY
            # as the window charges an applied cas per probe, acc per key
            proc.charge_flops(probes + arrived.size * w)
            proc.charge_mem(8 * arrived.size * w)

    def find_all(self, keys) -> dict[int, np.ndarray | None]:
        """Look up many keys; collective.  Missing keys map to ``None``."""
        proc = self.comm.process
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
                if not fence(self._keys, self._values):  # nobody looked
                    break
                for key, kh, vh in khandles:
                    stored = int(kh.value[0])
                    probe = pending[key] + 1
                    if stored in (key, EMPTY_KEY) or probe >= self.cap_local:
                        out[key] = vh.value if stored == key else None
                        del pending[key]
                    else:  # a different key: probe on
                        pending[key] = probe
            return out

    # -- owner-local access ------------------------------------------------

    def local_items(self) -> list[tuple[int, np.ndarray]]:
        """This rank's resident ``(key, vector)`` pairs (no communication).

        The hash distribution *is* the irregular partition: whoever owns
        the slot owns the entry, which is how a Chaos-style consumer gets
        its data-dependent ownership map.
        """
        keys, vals = self._keys.local, self._values.local.reshape(
            self.cap_local, -1)
        return [(int(keys[idx]), vals[idx].copy())
                for idx in np.flatnonzero(keys != EMPTY_KEY)]

    def local_size(self) -> int:
        """Number of entries resident on this rank (no communication)."""
        return int(np.count_nonzero(self._keys.local != EMPTY_KEY))

    def size(self) -> int:
        """Global entry count (collective)."""
        return self.comm.allreduce(self.local_size(), lambda a, b: a + b)
