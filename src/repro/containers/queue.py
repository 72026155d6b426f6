"""Distributed multi-producer FIFO queues over one-sided windows.

Every rank hosts one bounded queue of fixed-width ``float64`` records.
Producers on any rank append to any host with two one-sided epochs and
no host-side involvement (the BCL queue idiom on fence synchronization):

1. *Reserve*: ``fetch_add`` on the host's tail counter claims a
   contiguous range of slots.  The window layer's deterministic
   ``(origin, issue order)`` total order makes every reservation unique
   and reproducible.
2. *Fill*: ``put`` the records into the claimed slots.

``pop_all`` drains the local queue (owner-local reads — the data is
already in the rank's registered storage) and resets the tail, so the
queue is an epoch-bounded buffer: at most ``capacity`` records may be
pushed at a host between drains.  Overflow is detected at the origin
from the reservation itself and raised on every rank that over-claimed.

All batch operations are collective (pass empty batches to
participate); producers and the draining owner are synchronized by the
window fences inside.  The two windows always fence as one group —
paired fences, one epoch — so a push is two epochs and a drain one.
"""

from __future__ import annotations

import numpy as np

from repro.vmachine.comm import Communicator
from repro.vmachine.reliability import Reliability
from repro.vmachine.window import Window, fence

__all__ = ["DistQueue", "QueueOverflow"]


class QueueOverflow(RuntimeError):
    """A push batch reserved slots past the host queue's capacity."""


class DistQueue:
    """One bounded FIFO of fixed-width records per rank.

    Parameters
    ----------
    comm:
        Communicator spanning the group (construction collective).
    capacity:
        Maximum records resident at one host between ``pop_all`` drains.
    record_width:
        Fixed length of every record vector.
    reliable:
        Route window traffic through the retransmit protocol.
    """

    def __init__(
        self,
        comm: Communicator,
        capacity: int,
        record_width: int = 1,
        reliable: bool = False,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if record_width <= 0:
            raise ValueError("record_width must be positive")
        self.comm = comm
        self.capacity = int(capacity)
        self.record_width = int(record_width)
        rel = Reliability() if reliable else None
        self._tail = Window(comm, np.zeros(1, dtype=np.int64),
                            reliability=rel)
        self._data = Window(comm, np.zeros(capacity * record_width),
                            reliability=rel)

    def push_all(self, items) -> None:
        """Append ``(host_rank, record)`` pairs; collective.

        Records from one rank to one host land contiguously in push
        order; interleaving between producer ranks follows the window
        layer's deterministic reservation order.
        """
        comm = self.comm
        proc = comm.process
        with proc.span("container:queue_push"):
            batch: dict[int, list[np.ndarray]] = {}
            for host, rec in items:
                host = int(host)
                rec = np.asarray(rec, dtype=np.float64).reshape(
                    self.record_width)
                batch.setdefault(host, []).append(rec)
            proc.metrics.incr("queue_pushes", len(items))
            # Epoch 1: reserve a contiguous range at every targeted host.
            reservations = []
            for host in sorted(batch):
                recs = batch[host]
                h = self._tail.fetch_add(host, 0, len(recs))
                reservations.append((host, recs, h))
            fence(self._tail, self._data)
            # Epoch 2: fill the claimed slots.
            w = self.record_width
            overflow = None
            for host, recs, h in reservations:
                start = int(h.value)
                if start + len(recs) > self.capacity:
                    overflow = (host, start + len(recs))
                    continue
                block = np.concatenate(recs)
                self._data.put(host, block, start=start * w)
            fence(self._tail, self._data)
            if overflow is not None:
                host, claimed = overflow
                raise QueueOverflow(
                    f"push reserved {claimed} > capacity {self.capacity} "
                    f"records at host {host}"
                )

    def pop_all(self) -> list[np.ndarray]:
        """Drain this rank's queue; collective (synchronizes producers).

        Returns the resident records in FIFO (reservation) order and
        resets the queue.  The group fence guarantees every record
        pushed before the enclosing ``pop_all`` round is visible.
        """
        comm = self.comm
        proc = comm.process
        with proc.span("container:queue_pop"):
            # One empty epoch orders this drain against concurrent
            # producers: their fills fenced before entering pop_all.
            fence(self._tail, self._data)
            n = int(self._tail.local[0])
            w = self.record_width
            out = [self._data.local[i * w:(i + 1) * w].copy()
                   for i in range(n)]
            proc.metrics.incr("queue_pops", n)
            self._tail.local[0] = 0
            return out

    def local_depth(self) -> int:
        """Records currently reserved at this rank (no communication)."""
        return int(self._tail.local[0])
