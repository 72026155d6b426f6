"""Artifact format: serialization round trips, sealing, tamper localization."""

import base64
import copy
import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.core.dataplane import compile_offsets
from repro.core.runs import RunList
from repro.core.wire import FusedBuffer, SegmentHeader

from repro.replay.artifact import (
    IntegrityViolation,
    RecvRecord,
    ReplayFormatError,
    SendRecord,
    checksum_ok,
    decode_payload,
    decode_receipt,
    encode_payload,
    encode_receipt,
    faultplan_from_dict,
    faultplan_to_dict,
    load_artifact,
    new_stream,
    save_artifact,
    seal_body,
    verify_artifact,
)
from repro.replay.fingerprint import DIGEST_LEN, payload_digest
from repro.replay.recorder import Recorder
from repro.vmachine import SPMDError, VirtualMachine
from repro.vmachine.faults import (
    CrashEvent,
    DeliveryReceipt,
    FaultPlan,
    FaultRates,
    FaultRule,
    OK_RECEIPT,
)
from repro.vmachine.payload import canonical_feed
from repro.vmachine.trace import TraceEvent, event_from_tuple, event_to_tuple

#: every event kind the runtime emits (messages, fault annotations from
#: the chaos layer, fused-plan executor marks) — all must round-trip
ALL_KINDS = [
    "send", "recv",
    "fault:drop", "fault:dup", "fault:hold", "fault:delay", "fault:corrupt",
    "plan:fuse",
]


class TestTraceEventRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_every_kind(self, kind):
        e = TraceEvent(kind, 0.0123456789012345, 3, 7, (5 << 32) + 17,
                       4096, wait=0.25, phase="push/wire")
        assert event_from_tuple(event_to_tuple(e)) == e

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_through_json(self, kind):
        e = TraceEvent(kind, 1.5e-5, 0, 15, (1 << 32) + (1 << 24) + 3,
                       80, wait=0.0, phase="")
        t = json.loads(json.dumps(event_to_tuple(e)))
        assert event_from_tuple(t) == e

    def test_huge_wire_tags_survive_json_exactly(self):
        # Split communicators Cantor-pair context blocks: tags far beyond
        # 2**53 must not lose bits (JSON ints are exact in Python).
        tag = (1 << 20) * (1 << 32) + 123456789
        e = TraceEvent("send", 0.0, 0, 1, tag, 8)
        assert event_from_tuple(json.loads(json.dumps(event_to_tuple(e)))).tag == tag

    def test_default_fields(self):
        e = TraceEvent("send", 1.0, 0, 1, 5, 64)
        got = event_from_tuple(event_to_tuple(e))
        assert got.wait == 0.0 and got.phase == ""


def _receipt_fields(r):
    return (r.delivered, r.dropped, r.corrupted, r.held, r.duplicated,
            r.delay_s)


class TestReceiptCodec:
    def test_ok_receipt_is_compact(self):
        assert encode_receipt(OK_RECEIPT) == "ok"
        assert decode_receipt("ok") is OK_RECEIPT

    def test_faulted_receipt_round_trips(self):
        r = DeliveryReceipt(delivered=2, dropped=False, corrupted=False,
                            held=True, duplicated=1, delay_s=0.125)
        got = decode_receipt(json.loads(json.dumps(encode_receipt(r))))
        assert _receipt_fields(got) == _receipt_fields(r)

    def test_dropped_receipt_round_trips(self):
        r = DeliveryReceipt(delivered=0, dropped=True, corrupted=False,
                            held=False, duplicated=0, delay_s=0.0)
        assert _receipt_fields(decode_receipt(encode_receipt(r))) == \
            _receipt_fields(r)


class TestFaultPlanCodec:
    def _plan(self):
        return FaultPlan(
            seed=42,
            rules=[
                FaultRule(
                    rates=FaultRates(drop=0.1, dup=0.05, reorder=0.2,
                                     delay=0.15, corrupt=0.01,
                                     delay_range_s=(1e-4, 5e-3)),
                    src=1, dst=None, classes=("data", "user"),
                ),
            ],
            slowdown={2: 1.5, 0: 2.0},
            crashes=[CrashEvent(rank=3, after_sends=10)],
        )

    def test_round_trip_is_stable(self):
        d = faultplan_to_dict(self._plan())
        d2 = faultplan_to_dict(faultplan_from_dict(json.loads(json.dumps(d))))
        assert d == d2

    def test_none_passes_through(self):
        assert faultplan_to_dict(None) is None
        assert faultplan_from_dict(None) is None

    def test_reconstructed_plan_draws_identically(self):
        a, b = self._plan(), faultplan_from_dict(faultplan_to_dict(self._plan()))
        # Same per-channel RNG streams: the draw schedule re-derives from
        # the seed, which is the whole record/replay contract for faults.
        assert a.seed == b.seed
        ra = a._channel_rng(0, 1) if hasattr(a, "_channel_rng") else None
        if ra is not None:
            rb = b._channel_rng(0, 1)
            assert [ra.random() for _ in range(8)] == [rb.random() for _ in range(8)]


class TestPayloadCodec:
    def test_ndarray_round_trip(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
        y = decode_payload(encode_payload(x))
        np.testing.assert_array_equal(x, y)
        assert payload_digest(x) == payload_digest(y)

    def test_tuple_payload_round_trip(self):
        x = (3, "hdr", np.arange(5))
        y = decode_payload(encode_payload(x))
        assert y[0] == 3 and y[1] == "hdr"
        np.testing.assert_array_equal(x[2], y[2])

    def test_unpicklable_returns_none(self):
        assert encode_payload(lambda: None) is None


def _v1_feed(h, obj):
    """Artifact v1's canonical forms, kept as the oracle: every branch of
    the old ``fingerprint._feed`` but the pickle fallback."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        h.update(b"I" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"F" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode("utf-8"))
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        h.update(b"Y")
        h.update(bytes(obj))
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + np.dtype(obj.dtype).str.encode()
                 + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"G" + np.dtype(obj.dtype).str.encode() + obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"T" if isinstance(obj, tuple) else b"L")
        h.update(str(len(obj)).encode())
        for item in obj:
            _v1_feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"D" + str(len(obj)).encode())
        for k, v in obj.items():
            _v1_feed(h, k)
            _v1_feed(h, v)
    elif hasattr(obj, "headers") and hasattr(obj, "segment"):
        headers = obj.headers
        h.update(b"W" + str(len(headers)).encode())
        for i, hd in enumerate(headers):
            h.update(repr(hd).encode())
            _v1_feed(h, obj.segment(i))
    else:
        raise AssertionError(f"v1 pickled {type(obj).__name__}")


def _v1_digest(obj):
    h = hashlib.sha256()
    _v1_feed(h, obj)
    return h.hexdigest()[:DIGEST_LEN]


def _fused(padding: int) -> FusedBuffer:
    """Two segments (3 x f8, 5 x i4) in a staging buffer whose alignment
    gaps and size-class tail are filled with ``padding``."""
    headers = (SegmentHeader(0, "<f8", 3), SegmentHeader(1, "<i4", 5))
    fused = FusedBuffer(headers, np.full(256, padding, dtype=np.uint8))
    fused.segment(0)[:] = [1.5, -2.0, 3.25]
    fused.segment(1)[:] = [7, 8, 9, 10, 11]
    return fused


class _Named(list):
    pass


class TestCanonicalForms:
    """What a digest depends on (docs/MODEL.md §13): declared content,
    never an in-memory representation."""

    def test_unpickled_forms_are_what_v1_hashed(self):
        a = np.arange(24, dtype=np.float32).reshape(4, 6)
        zoo = [
            None, True, False, 0, -17, 1 << 80, 2.5, float("inf"), "", "café",
            b"", b"abc", bytearray(b"xyz"), memoryview(b"view"),
            np.float64(2.5), np.float32(2.5), np.int64(-3), np.bool_(True),
            np.str_("s"), np.bytes_(b"b"), np.complex128(1 + 2j),
            a, a.T, a[::2, 1::2], np.asfortranarray(a), np.zeros(0),
            np.array(3.0), (), [], {}, (1, "two", [3.0, None]), _Named([1, 2]),
            {"k": np.arange(3), 2: ("nested", {"deep": b"er"})},
            ("put", 3, 17, np.zeros(4)), _fused(0),
        ]
        for value in zoo:
            assert payload_digest(value) == _v1_digest(value), repr(value)

    def test_layout_and_padding_are_not_content(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        wide = np.zeros((4, 12))
        wide[:, ::2] = a
        same = {payload_digest(x)
                for x in (a, np.asfortranarray(a), a.T.T, wide[:, ::2])}
        assert len(same) == 1
        assert payload_digest(a) != payload_digest(a.T)
        assert payload_digest(_fused(0x00)) == payload_digest(_fused(0xAB))
        moved = _fused(0)
        moved.segment(1)[2] += 1
        assert payload_digest(moved) != payload_digest(_fused(0))

    def test_run_encoded_ignores_its_memo_slots(self):
        # a schedule piece is a RunList: its memo slots are never content
        r = RunList.from_dense(np.arange(0, 64, 2))
        digest, text = payload_digest(r), encode_payload(r)
        for fill_a_memo in (lambda: compile_offsets(r), r.dense, r._exec_runs):
            fill_a_memo()
            assert payload_digest(r) == digest
            assert encode_payload(r) == text
        back = decode_payload(text)
        assert payload_digest(back) == digest
        np.testing.assert_array_equal(back.dense(), r.dense())
        assert (back.nbytes, back.nruns, len(back)) == (r.nbytes, r.nruns, len(r))

    @pytest.mark.parametrize("offsets", [
        np.arange(0, 64, 2),                              # one run
        np.concatenate([np.arange(5), np.arange(40, 50)]),  # a run table
        np.random.default_rng(3).permutation(40),         # kept dense
        np.zeros(0, dtype=np.int64),
    ], ids=["run", "runs", "dense", "empty"])
    def test_run_encoded_is_its_length_and_stored_form(self, offsets):
        piece = RunList.from_dense(offsets)
        spelled = hashlib.sha256(b"R")
        for part in (len(offsets), piece.stored):
            canonical_feed(part, spelled.update)
        assert payload_digest(piece) == spelled.hexdigest()[:DIGEST_LEN]
        assert piece.nbytes == 16 + 24 * piece.nruns
        other = RunList.from_dense(np.append(offsets, 1000))
        assert payload_digest(other) != payload_digest(piece)
        round_trip = decode_payload(encode_payload(piece))
        assert round_trip.is_compressed == piece.is_compressed
        np.testing.assert_array_equal(round_trip.dense(), offsets)

    def test_dataclass_is_its_name_and_compared_fields(self):
        def make(name):
            @dataclasses.dataclass
            class Op:
                slot: int
                data: np.ndarray
                memo: dict = dataclasses.field(default_factory=dict,
                                               compare=False)
            Op.__qualname__ = name
            return Op

        Op, Other = make("Op"), make("Other")
        base = payload_digest(Op(3, np.arange(4)))
        assert payload_digest(Op(3, np.arange(4), memo={"plan": 1})) == base
        assert payload_digest(Op(4, np.arange(4))) != base
        assert payload_digest(Op(3, np.arange(5))) != base
        assert payload_digest(Other(3, np.arange(4))) != base
        assert payload_digest(("op", [Op(3, np.arange(4))])) == \
            payload_digest(("op", [Op(3, np.arange(4), memo={1: 2})]))

    def test_enum_and_dtype(self):
        class Colour(enum.Enum):
            RED = 1
            ALSO_ONE = "x"

        class Shade(enum.Enum):
            RED = 1

        assert payload_digest(Colour.RED) == payload_digest(Colour(1))
        assert payload_digest(Colour.RED) != payload_digest(Colour.ALSO_ONE)
        assert payload_digest(Colour.RED) != payload_digest(Shade.RED)
        assert payload_digest(np.dtype("f8")) == payload_digest(np.dtype(float))
        assert payload_digest(np.dtype("f8")) != payload_digest(np.dtype("f4"))

    @pytest.mark.usefixtures("clean_repro_env")
    def test_undeclared_class_is_refused_under_a_recorder_only(self):
        class Thing:
            pass

        def program(comm):
            comm.send(0, ("hdr", Thing()), tag=7)
            comm.recv(0, tag=7)
            return comm.process.stats["bytes_sent"]

        with pytest.raises(TypeError, match="Thing"):
            payload_digest(Thing())
        # no recorder: an opaque object still costs its 64-byte envelope
        assert VirtualMachine(1).run(program).values == [8 + 3 + 64]
        with pytest.raises(SPMDError) as failure:
            VirtualMachine(1, recorder=Recorder()).run(program)
        text = str(failure.value)
        assert "TypeError" in text and "Thing" in text
        assert "rank 0 -> 0, tag 0:7" in text

    def test_object_array_is_its_elements_not_its_pointers(self):
        # at the parent: ``tobytes()`` of the PyObject* table, so two
        # equal-content arrays differed (and differed from run to run)
        def make(last=3.0):
            return np.array([{"x": 1}, "s", last], dtype=object)

        assert payload_digest(make()) == payload_digest(make())
        assert payload_digest(make()) != payload_digest(make(4.0))
        grid = np.array([[1, "a"], [2.5, None]], dtype=object)
        assert payload_digest(grid) == payload_digest(np.asfortranarray(grid))
        assert payload_digest(grid) != payload_digest(grid.reshape(4))
        assert payload_digest(grid) != payload_digest(grid.T)
        with pytest.raises(TypeError, match="has no declared canonical form"):
            payload_digest(np.array([1, object()], dtype=object))


def _stream(record, **extra):
    """A one-message stream: ``record``'s fields (and ``extra``) as columns."""
    return {name: [value]
            for name, value in {**record._asdict(), **extra}.items()}


def _tiny_artifact(payload=b"hello-world"):
    digest = payload_digest(payload)
    body = {
        "version": 2, "kind": "vm", "payloads": True, "note": "",
        "config": {"nprocs": 2, "profile": "IBM-SP2/MPL", "programs": None,
                   "recv_timeout_s": None, "copy_on_send": False,
                   "observe": False, "workload": None},
        "env": {}, "env_fingerprint": "x", "fault_plan": None,
        "ranks": [
            {"sends": _stream(SendRecord(0, 1, 5, 11, 1e-5, digest, "ok")),
             "recvs": new_stream(RecvRecord, "payload"),
             "probes": "", "trace": [], "clock": 1e-5, "value": "aa"},
            {"sends": new_stream(SendRecord),
             "recvs": _stream(
                 RecvRecord(0, 0, 5, 11, 1e-5, 2e-5, 0.0, digest),
                 payload=encode_payload(payload)),
             "probes": "01", "trace": [], "clock": 2e-5, "value": "bb"},
        ],
        "error": None,
    }
    return seal_body(body)


class TestEnvelope:
    def test_save_load_json(self, tmp_path):
        art = _tiny_artifact()
        p = save_artifact(art, str(tmp_path / "a.json"))
        assert load_artifact(p) == art

    def test_save_load_gzip(self, tmp_path):
        art = _tiny_artifact()
        p = save_artifact(art, str(tmp_path / "a.json.gz"))
        assert load_artifact(p) == art

    def test_checksum_detects_any_body_change(self):
        art = _tiny_artifact()
        assert checksum_ok(art)
        mutated = copy.deepcopy(art)
        mutated["body"]["ranks"][0]["clock"] = 9.0
        assert not checksum_ok(mutated)

    def test_non_artifact_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{\"hello\": 1}")
        with pytest.raises(ReplayFormatError):
            load_artifact(str(p))

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("not json at all")
        with pytest.raises(ReplayFormatError):
            load_artifact(str(p))

    def test_unknown_version_rejected(self, tmp_path):
        for version in (1, 99):  # v1 (pickle-hashed digests) has no reader
            art = _tiny_artifact()
            art["body"]["version"] = version
            p = save_artifact(art, str(tmp_path / "v.json"))
            with pytest.raises(
                    ReplayFormatError,
                    match=f"version {version} .*reads version 2"):
                load_artifact(p)


class TestTamperLocalization:
    def test_clean_artifact_verifies(self):
        assert verify_artifact(_tiny_artifact()) == []

    def test_single_byte_payload_flip_is_localized(self):
        art = _tiny_artifact(payload=np.arange(64, dtype=np.float64))
        payloads = art["body"]["ranks"][1]["recvs"]["payload"]
        raw = bytearray(base64.b64decode(payloads[0]))
        # Flip one byte inside the array data (past the pickle header) so
        # the payload still unpickles but its content digest changes.
        raw[-8] ^= 0x01
        payloads[0] = base64.b64encode(bytes(raw)).decode()
        violations = verify_artifact(art)
        kinds = {v.kind for v in violations}
        assert "checksum" in kinds  # envelope notices *something* changed
        payload_v = [v for v in violations if v.kind == "payload"]
        assert payload_v, "payload damage was not localized"
        v = payload_v[0]
        # Localization: the exact rank, directed channel and sequence
        # number of the damaged record.
        assert v.rank == 1 and v.channel == (0, 1) and v.seq == 0
        assert "digest" in v.detail or "decode" in v.detail
        assert "channel 0 -> 1" in str(v)

    def test_header_tamper_hits_checksum(self):
        art = _tiny_artifact()
        art["body"]["ranks"][0]["sends"]["nbytes"][0] = 99999
        violations = verify_artifact(art)
        assert any(v.kind == "checksum" for v in violations)

    def test_violation_str_mentions_location(self):
        v = IntegrityViolation("payload", 3, (1, 3), 7, "digest mismatch")
        s = str(v)
        assert "rank 3" in s and "1 -> 3" in s and "seq 7" in s
