"""The compiled feed hashes to what the spelled-out feed did.

Since the digest became a per-layout compiled row list (``WireLayout.rows``)
fed to sha256 in place, the *old* spelling lives here as the reference:
per segment the header's repr, then ``b"A" + dtype.str + repr(shape)`` and
the C-order ``tobytes()`` of the segment's dtype view.  sha256 chunking is
associative, so compiled == reference byte for byte — asserted over random
layouts, not only over the committed corpus — and both ends of a message
still hash what *they* hold.
"""

import hashlib
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout
from repro.replay import Recorder
from repro.replay.artifact import (
    RecvRecord, SendRecord, decode_payload, encode_payload, records,
)
from repro.vmachine import VirtualMachine
from repro.vmachine.message import Message
from repro.vmachine.payload import DIGEST_LEN, payload_digest

from helpers import python_calls


def reference_array_feed(arr, update):
    update(b"A" + arr.dtype.str.encode() + repr(arr.shape).encode())
    update(np.ascontiguousarray(arr).tobytes())


def reference_fused_digest(buf: FusedBuffer) -> str:
    h = hashlib.sha256()
    h.update(b"W" + str(len(buf.headers)).encode())
    for header, segment in zip(buf.headers, buf.segments()):
        h.update(repr(header).encode())
        reference_array_feed(segment, h.update)
    return h.hexdigest()[:DIGEST_LEN]


def reference_array_digest(arr) -> str:
    h = hashlib.sha256()
    reference_array_feed(arr, h.update)
    return h.hexdigest()[:DIGEST_LEN]


segments = st.lists(
    st.tuples(st.sampled_from(["u1", "i4", "f4", "f8", "c16"]),
              st.integers(0, 9)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(segments, st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_compiled_fused_digest_is_the_spelled_out_one(spec, seed, tail):
    rng = np.random.default_rng(seed)
    layout = WireLayout(
        SegmentHeader(i, np.dtype(dtype).str, count)
        for i, (dtype, count) in enumerate(spec))

    def staged(contents):
        # a staging store longer than the layout; padding and tail garbage
        data = rng.integers(0, 256, layout.total + tail).astype(np.uint8)
        buf = FusedBuffer(layout, data)
        for segment, content in zip(buf.segments(), contents):
            segment[:] = content
        return buf

    contents = [rng.integers(0, 256, hi - lo).astype(np.uint8).view(dtype)
                for lo, hi, dtype in layout.views]
    a, b = staged(contents), staged(contents)
    assert payload_digest(a) == reference_fused_digest(a)
    # padding and the arena tail differ between a and b: provably unread
    assert payload_digest(a) == payload_digest(b)
    assert payload_digest((7, a)) == payload_digest((7, b))
    if layout.count:
        lo = next(lo for lo, hi, _ in layout.views if hi > lo)
        b.data[lo] ^= 1
        assert payload_digest(a) != payload_digest(b)


def test_ndarrays_digest_as_they_did():
    base = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    read_only = base.copy()
    read_only.flags.writeable = False
    cases = [
        base,                                  # C
        np.asfortranarray(base),               # F
        base[:, ::2, 1:],                      # strided
        base.T,
        np.array(2.5, dtype=np.float32),       # 0-d
        np.zeros((0, 3), dtype=np.int32),      # empty
        read_only,
        np.array(["ab", "c"]), np.arange(3) > 1,
        np.zeros(2, dtype=[("a", "i4"), ("b", "f8")]),
    ]
    for arr in cases:
        assert payload_digest(arr) == reference_array_digest(arr), arr
    assert payload_digest(base) == payload_digest(np.asfortranarray(base))
    assert payload_digest(base) != payload_digest(base.T)


def test_an_unrecorded_layout_compiles_no_rows(clean_repro_env):
    layout = WireLayout([SegmentHeader(0, "<f8", 4), SegmentHeader(1, "<i4", 3)])

    def program(comm):
        comm.send(0, FusedBuffer(layout, np.zeros(layout.total, np.uint8)))
        return comm.recv(0).nbytes

    assert VirtualMachine(1).run(program).values == [layout.nbytes]
    assert layout._rows is None
    VirtualMachine(1, recorder=Recorder()).run(program)
    head, rows = layout._rows
    assert head == b"W2" and [(lo, hi) for _, lo, hi in rows] == \
        [(lo, hi) for lo, hi, _ in layout.views]


class _PreMemoLayout:
    """Pickles as a ``WireLayout`` did before it had ``_rows`` or a
    ``__reduce__``: a bare ``__new__`` plus the state of its five slots —
    what a v2 ``--payloads`` artifact recorded back then carries."""

    SLOTS = ("headers", "views", "total", "nbytes", "count")

    def __init__(self, layout):
        self.layout = layout

    def __reduce__(self):
        state = {slot: getattr(self.layout, slot) for slot in self.SLOTS}
        return object.__new__, (WireLayout,), (None, state)


def test_a_snapshot_carries_no_memo_and_an_old_one_still_digests():
    layout = WireLayout([SegmentHeader(0, "<f8", 4), SegmentHeader(1, "<i4", 3)])
    data = np.arange(layout.total, dtype=np.uint8)
    fresh = pickle.dumps(layout, protocol=4)
    want = payload_digest(FusedBuffer(layout, data))
    assert layout._rows is not None
    # a snapshot is the headers: taken after a digest it is the same bytes
    assert pickle.dumps(layout, protocol=4) == fresh
    snapshot = decode_payload(encode_payload(FusedBuffer(layout, data)))
    assert snapshot.layout._rows is None and snapshot.layout.views == layout.views
    assert payload_digest(snapshot) == want
    old = pickle.loads(pickle.dumps(_PreMemoLayout(layout), protocol=4))
    assert type(old) is WireLayout and not hasattr(old, "_rows")
    assert payload_digest(FusedBuffer(old, data)) == want
    assert old._rows == layout._rows


def test_a_message_lands_in_the_columns_its_record_names(clean_repro_env):
    """The recorder appends a positional row through column appends bound
    once per rank: pin every value to the column ``SendRecord`` /
    ``RecvRecord`` name for it."""
    payload = np.arange(5, dtype=np.int32)

    def program(comm):
        comm.send(0, payload, tag=3)
        sent = comm.process.clock
        comm.recv(0, tag=3)
        return sent, comm.process.clock

    recorder = Recorder(payloads=True)
    sent_at, got_at = VirtualMachine(1, recorder=recorder).run(program).values[0]
    rank = recorder.artifact["body"]["ranks"][0]
    assert list(rank["sends"]) == list(SendRecord._fields)
    assert list(rank["recvs"]) == [*RecvRecord._fields, "payload"]
    (sent,) = records(rank["sends"], SendRecord)
    (got,) = records(rank["recvs"], RecvRecord)
    digest = payload_digest(payload)
    assert sent == SendRecord(seq=0, dst=0, tag=3, nbytes=payload.nbytes,
                              clock=sent_at, digest=digest, receipt="ok")
    assert got == RecvRecord(seq=0, src=0, tag=3, nbytes=payload.nbytes,
                             arrival=got.arrival, clock=got_at,
                             wait=got.wait, digest=digest)
    assert 0.0 < got.arrival <= got_at and got.wait >= 0.0
    (encoded,) = rank["recvs"]["payload"]
    assert np.array_equal(decode_payload(encoded), payload)


def test_both_ends_hash_what_they_hold(clean_repro_env):
    """``recvs.digest`` is evidence of what the receiver saw, not a copy of
    ``sends.digest``: mutate the payload between a raw ``deliver`` and the
    matching ``recv`` (the zero-copy hazard) and the two columns differ."""
    assert "digest" not in Message.__slots__

    def program(comm, mutate):
        payload = np.arange(8.0)
        comm.send(0, payload, tag=3)         # delivered: sender has hashed it
        if mutate:
            payload[5] = -1.0
        comm.recv(0, tag=3)

    for mutate in (False, True):
        recorder = Recorder()
        VirtualMachine(1, recorder=recorder).run(program, mutate)
        rank = recorder.artifact["body"]["ranks"][0]
        assert len(rank["sends"]["digest"]) == len(rank["recvs"]["digest"]) == 1
        assert (rank["sends"]["digest"] != rank["recvs"]["digest"]) == mutate
        assert rank["sends"]["digest"] == [payload_digest(np.arange(8.0))]


def test_recorded_fused_message_stays_within_its_call_budget(clean_repro_env):
    """A recorded, otherwise all-off, self-addressed send+recv of
    ``(7, FusedBuffer)`` with 8 segments: 31 Python-level calls under
    ``repro/``, each digest one table dispatch into the layout's compiled
    feed; the budget leaves room for a few calls, not for a per-segment
    ``_feed_ndarray`` / ``segments()`` / record tuple coming back."""
    layout = WireLayout(SegmentHeader(i, "<f8", 16) for i in range(8))

    def program(comm):
        payload = (7, FusedBuffer(layout, np.zeros(layout.total, np.uint8)))

        def message():
            comm.send(0, payload)
            comm.recv(0)

        message()  # warm: the layout's rows are compiled by the first digest
        count = lambda: python_calls(message, lambda p: "/repro/" in p)
        first, second = count(), count()
        assert first == second, "the count must repeat exactly"
        return first

    calls = VirtualMachine(
        1, recorder=Recorder(), observe=False, copy_on_send=False,
    ).run(program).values[0]
    assert len(calls) <= 34, calls
    names = [name for _, name in calls]
    assert "_feed_ndarray" not in names and "segments" not in names
    # both ends hash: one digest in pre_send, one in on_recv
    assert names.count("payload_digest") == 2
    assert {"pre_send", "on_send", "on_recv", "__wire__"} <= set(names)
