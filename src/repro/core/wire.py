"""Wire format of fused data messages.

Schedule pieces travel as :class:`~repro.core.runs.RunList` itself — its
``nbytes`` is the run encoding's size and its ``__wire__`` the stored
form, so no wrapper type stands between a piece and the transport.

:class:`FusedBuffer` is the wire format of a *fused* data message (the
:mod:`repro.core.plan` executor): one staging buffer carrying several
schedules' packed segments to the same destination, each described by a
:class:`SegmentHeader` (schedule id, element dtype, element count).
Segment payloads start at 16-byte-aligned offsets computed
deterministically from the headers alone — :class:`WireLayout` — so
sender and receiver agree on the layout without shipping per-segment
offsets, and every dtype view into the byte buffer is aligned.  The
buffer's :attr:`~FusedBuffer.nbytes` (what the virtual transport charges)
is a fixed fused header, one fixed header per segment, plus the padded
payload bytes — the honest wire size of the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.runs import RunList
from repro.vmachine.payload import array_prefix

__all__ = [
    "FUSED_HEADER_BYTES",
    "SEGMENT_ALIGN",
    "SEGMENT_HEADER_BYTES",
    "FusedBuffer",
    "SegmentHeader",
    "WireLayout",
    "fused_nbytes",
]


#: Unpickling alias, not an export: the committed replay corpus
#: (tests/replay/corpus) pickles schedule pieces as
#: ``RunEncoded(<RunList>)``, the wrapper type pieces used to travel in,
#: and this name must keep loading them — as the RunList itself.
RunEncoded = RunList.from_dense


# ---------------------------------------------------------------------------
# fused data messages (plan executor wire format)
# ---------------------------------------------------------------------------

#: fixed per-message header of a fused buffer (segment count, total bytes)
FUSED_HEADER_BYTES = 16
#: fixed per-segment header (schedule id, dtype code, element count)
SEGMENT_HEADER_BYTES = 16
#: alignment of each segment's payload within the staging buffer; a
#: power of two >= every supported itemsize, so dtype views are aligned
SEGMENT_ALIGN = 16


@dataclass(frozen=True, slots=True)
class SegmentHeader:
    """Self-describing header of one schedule's segment in a fused message.

    ``schedule_id`` is the segment's position in the plan's schedule
    tuple — the receiver validates it against its own receive program, so
    a sender/receiver plan mismatch fails loudly instead of scattering
    elements through the wrong offsets.
    """

    schedule_id: int
    dtype: str
    count: int

    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.dtype).itemsize)

    @property
    def data_nbytes(self) -> int:
        return self.count * self.itemsize


def _pad(nbytes: int) -> int:
    """Round ``nbytes`` up to the segment alignment."""
    return -(-nbytes // SEGMENT_ALIGN) * SEGMENT_ALIGN


def fused_nbytes(segment_nbytes) -> int:
    """Wire size of a fused message from its segments' payload byte
    counts: the fused header, one header per segment and each payload
    padded to the alignment.  What :class:`WireLayout` charges and what
    the autotune replay predicts — one spelling."""
    return FUSED_HEADER_BYTES + sum(
        SEGMENT_HEADER_BYTES + _pad(n) for n in segment_nbytes
    )


class WireLayout:
    """Everything about a fused message that its headers determine.

    Segment ``i`` starts at the running sum of the padded sizes of
    segments ``0..i-1``, so no offset table travels on the wire.
    Immutable once built: the plan executor computes one per (peer
    program, source dtypes) and the sender's pack loop, every
    :class:`FusedBuffer` of the pair and the receiver's unpack loop share
    it.  ``views[i]`` is segment ``i``'s ``(first byte, end byte,
    np.dtype)`` in the staging buffer, ``total`` the padded payload
    bytes, ``nbytes`` the wire size (fused header + per-segment headers +
    padded payload — the honest cost of the concatenation, which the
    virtual transport charges), ``count`` the elements across segments.
    :attr:`rows` is what replay hashes of a buffer of this layout,
    compiled on the first digest: an unrecorded run never builds them.
    """

    __slots__ = ("headers", "views", "total", "nbytes", "count", "_rows")

    def __init__(self, headers):
        self.headers = tuple(headers)
        views = []
        cursor = count = 0
        for h in self.headers:
            dtype = np.dtype(h.dtype)
            size = h.count * dtype.itemsize
            views.append((cursor, cursor + size, dtype))
            cursor += _pad(size)
            count += h.count
        self.views = tuple(views)
        self.total = cursor
        self.nbytes = fused_nbytes(hi - lo for lo, hi, _ in views)
        self.count = count
        self._rows = None

    @property
    def rows(self) -> tuple:
        """``(head, ((prefix, lo, hi), ...))``: a fused message's canonical
        bytes are ``head``, then per segment ``prefix`` (its header and the
        array tag of its dtype view) and the staging bytes ``[lo, hi)``.
        A snapshot pickled before the memo existed restores without it."""
        rows = getattr(self, "_rows", None)
        if rows is None:
            rows = self._rows = (b"W" + str(len(self.headers)).encode(), tuple(
                (repr(h).encode() + array_prefix(dtype, (int(h.count),)), lo, hi)
                for h, (lo, hi, dtype) in zip(self.headers, self.views)))
        return rows

    def __reduce__(self):  # the headers alone: a snapshot carries no memo
        return WireLayout, (self.headers,)


class FusedBuffer:
    """One fused data message: per-segment headers + one staging buffer.

    ``data`` is a 1-D ``uint8`` array whose capacity is at least the
    layout's total padded payload bytes (arena size classes round up).
    :meth:`segments` returns the aligned dtype view of every segment's
    payload — writable on the sender (pack targets), read by the receiver
    (unpack sources).  ``headers`` may be a ready :class:`WireLayout`
    (shared, never copied) or the bare header sequence.

    The buffer may be leased from the sender's
    :class:`~repro.vmachine.message.PackArena`; the *receiver* calls
    :meth:`release` after unpacking the last segment, returning the
    staging storage to the sender's pool.  Safe on the zero-copy
    transport because a fused message has exactly one receiver;
    fault-layer duplicates share the payload reference but are suppressed
    by the reliable layer *without* unpacking, and ``release`` is
    idempotent besides.  Under copy-on-send debug mode the transport
    deep-copies the payload: :meth:`__deepcopy__` copies the bytes and
    severs the lease, so releasing the copy never recycles pooled
    storage.
    """

    #: ``nbytes`` is a stored value: ``payload_nbytes`` reads it on every
    #: send, and the layout it comes from never changes
    __slots__ = ("layout", "data", "nbytes", "_lease", "_views")

    def __init__(self, headers, data: np.ndarray, lease=None):
        layout = headers if isinstance(headers, WireLayout) else WireLayout(headers)
        if len(data) < layout.total:
            raise ValueError(
                f"fused staging buffer has {len(data)} bytes for a "
                f"{layout.total}-byte segment layout"
            )
        self.layout = layout
        self.data = data
        self.nbytes = layout.nbytes
        self._lease = lease

    @property
    def headers(self) -> tuple[SegmentHeader, ...]:
        return self.layout.headers

    @property
    def nsegments(self) -> int:
        return len(self.layout.views)

    def segments(self) -> list[np.ndarray]:
        """Aligned dtype views of every segment's payload, in order, built
        once per buffer: the receiver unpacks through the sender's views.
        Unset until then, so a deep-copied snapshot pickles as before."""
        views = getattr(self, "_views", None)
        if views is None:
            data = self.data
            views = self._views = [
                data[lo:hi].view(dtype) for lo, hi, dtype in self.layout.views
            ]
        return views

    def segment(self, i: int) -> np.ndarray:
        """Aligned dtype view of segment ``i``'s payload."""
        lo, hi, dtype = self.layout.views[i]
        return self.data[lo:hi].view(dtype)

    def __wire__(self, update) -> None:
        """Canonical bytes (:mod:`repro.vmachine.payload`): the layout's
        compiled :attr:`~WireLayout.rows`, the segment bytes fed in place
        — never the raw staging store, whose alignment padding and arena
        size-class tail are uninitialized."""
        layout = self.layout
        head, rows = getattr(layout, "_rows", None) or layout.rows
        data = memoryview(self.data)  # same bytes; cheaper to slice
        update(head)
        for prefix, lo, hi in rows:
            update(prefix)
            update(data[lo:hi])

    def release(self) -> None:
        """Return the staging buffer to the sender's arena (idempotent;
        no-op for unleased buffers)."""
        lease = self._lease
        self._lease = None
        if lease is not None:
            lease.release()

    def __deepcopy__(self, memo) -> "FusedBuffer":
        # copy-on-send support: the copy owns private storage and no
        # lease; the immutable layout is shared.
        return FusedBuffer(self.layout, self.data.copy(), lease=None)

    def __len__(self) -> int:
        # Element count across segments: lets the reliable layer's
        # diagnostics and generic length checks treat fused payloads
        # uniformly with plain packed buffers.
        return self.layout.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segs = ", ".join(
            f"#{h.schedule_id}:{h.dtype}x{h.count}" for h in self.headers
        )
        return f"FusedBuffer({segs}, nbytes={self.nbytes})"
