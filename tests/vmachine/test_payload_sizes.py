"""Boundary tests for :func:`repro.vmachine.payload_nbytes`.

The size only feeds the LogGP cost model, but it must be monotone in the
real data volume — in particular, strings are charged their UTF-8
encoded length (what would actually cross a wire), not their code-point
count.
"""

import numpy as np

from repro.vmachine import payload_nbytes


class TestStrings:
    def test_ascii_equals_len(self):
        assert payload_nbytes("hello") == 5

    def test_empty_string(self):
        assert payload_nbytes("") == 0

    def test_non_ascii_charges_encoded_bytes(self):
        # U+00E9 is 2 bytes in UTF-8; len() would report 1.
        s = "café"
        assert payload_nbytes(s) == len(s.encode("utf-8")) == 5

    def test_astral_plane_four_bytes_per_char(self):
        s = "\U0001f600" * 3  # emoji: 4 bytes each in UTF-8
        assert payload_nbytes(s) == 12
        assert len(s) == 3  # the code-point count would undercharge


class TestBuffers:
    def test_bytes_and_bytearray(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(7)) == 7
        assert payload_nbytes(b"") == 0

    def test_memoryview_reports_buffer_size(self):
        mv = memoryview(np.zeros(5, dtype=np.float64))
        assert payload_nbytes(mv) == 40

    def test_memoryview_slice(self):
        mv = memoryview(b"0123456789")[2:6]
        assert payload_nbytes(mv) == 4

    def test_numpy_array_nbytes(self):
        assert payload_nbytes(np.zeros((3, 4), dtype=np.float32)) == 48
        assert payload_nbytes(np.zeros(0)) == 0


class TestContainers:
    def test_nested_tuple(self):
        # 8 (tuple) + 8 (int) + 8 (inner tuple) + 4 (str) + 8 (float)
        assert payload_nbytes((1, ("abcd", 2.0))) == 8 + 8 + 8 + 4 + 8

    def test_nested_list_of_arrays(self):
        p = [np.zeros(2), np.zeros(3)]
        assert payload_nbytes(p) == 8 + 16 + 24

    def test_dict_charges_keys_and_values(self):
        p = {"ab": np.zeros(4, dtype=np.int64)}
        assert payload_nbytes(p) == 8 + 2 + 32

    def test_empty_containers(self):
        assert payload_nbytes(()) == 8
        assert payload_nbytes([]) == 8
        assert payload_nbytes({}) == 8


class TestScalarsAndOpaque:
    def test_scalars_fixed_envelope(self):
        for v in (0, 3.14, True, None):
            assert payload_nbytes(v) == 8

    def test_opaque_object_envelope(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64

    def test_object_with_nbytes_property_is_trusted(self):
        class Sized:
            nbytes = 123

        assert payload_nbytes(Sized()) == 123

    def test_numpy_scalar_charges_itemsize(self):
        assert payload_nbytes(np.int32(7)) == 4
        assert payload_nbytes(np.float64(3.0)) == 8


class TestNbytesProbeBoundaries:
    """The ``.nbytes`` probe must only trust buffer-like byte counts.

    Historically any ``.nbytes`` attribute was trusted before the
    container/scalar branches ran, so payloads like a bare ``np.dtype``
    or an array-wrapping object with a non-integer ``nbytes`` were
    mischarged (or crashed ``int()``)."""

    def test_bare_dtype_charges_envelope(self):
        # np.dtype has itemsize, not a payload byte count; it must land
        # in the opaque branch, not be treated as a sized buffer.
        assert payload_nbytes(np.dtype("f8")) == 64
        assert payload_nbytes(np.dtype("i4")) == 64

    def test_callable_nbytes_is_not_trusted(self):
        class Wrapper:
            def nbytes(self):  # a method, not a byte count
                return 10**9

        assert payload_nbytes(Wrapper()) == 64

    def test_non_integer_nbytes_is_not_trusted(self):
        class Weird:
            nbytes = 12.5

        assert payload_nbytes(Weird()) == 64

    def test_negative_nbytes_is_not_trusted(self):
        class Broken:
            nbytes = -4

        assert payload_nbytes(Broken()) == 64

    def test_bool_nbytes_is_not_trusted(self):
        class Flagged:
            nbytes = True

        assert payload_nbytes(Flagged()) == 64

    def test_numpy_integer_nbytes_is_trusted(self):
        class Sized:
            nbytes = np.int64(80)

        assert payload_nbytes(Sized()) == 80

    def test_container_subclass_sized_by_contents(self):
        # A list subclass carrying a stray nbytes attribute must be sized
        # recursively like any list, not by the attribute.
        class FakeSized(list):
            nbytes = 10**6

        p = FakeSized([np.zeros(2), np.zeros(3)])
        assert payload_nbytes(p) == 8 + 16 + 24

    def test_dict_subclass_sized_by_contents(self):
        class FakeDict(dict):
            nbytes = 10**6

        assert payload_nbytes(FakeDict({"ab": np.zeros(4)})) == 8 + 2 + 32

    def test_str_and_scalars_unaffected_by_probe_order(self):
        # Clock identity: historical payload classes keep their sizes.
        assert payload_nbytes("café") == 5
        assert payload_nbytes((1, b"abc")) == 8 + 8 + 3
        assert payload_nbytes(0) == 8
        assert payload_nbytes(None) == 8


def _ladder_nbytes(payload):
    """The two ladders ``payload_nbytes`` was before the payload table —
    kept as the oracle: the table must charge exactly what they did."""
    if isinstance(payload, (np.ndarray, np.generic, memoryview)):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return 8 + sum(_ladder_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            _ladder_nbytes(k) + _ladder_nbytes(v) for k, v in payload.items()
        )
    if payload is None or isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    nbytes = getattr(payload, "nbytes", None)
    if (
        isinstance(nbytes, (int, np.integer))
        and not isinstance(nbytes, bool)
        and nbytes >= 0
    ):
        return int(nbytes)
    return 64


class TestTableChargesWhatTheLaddersDid:
    def test_every_kind_of_payload(self):
        import enum
        from collections import namedtuple
        from dataclasses import dataclass

        from repro.core.runs import RunList
        from repro.core.wire import FusedBuffer, SegmentHeader

        class Colour(enum.Enum):
            RED = 1

        class Level(enum.IntEnum):
            HIGH = 3

        @dataclass
        class Sized:
            nbytes: int = 48

        @dataclass
        class Unsized:
            x: int = 0

        class Listy(list):
            nbytes = 10**6

        class Texty(str):
            pass

        Pair = namedtuple("Pair", "a b")
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        fused = FusedBuffer((SegmentHeader(0, "<f8", 3),), np.zeros(256, np.uint8))
        zoo = [
            None, True, 0, 1 << 80, 2.5, "", "café", Texty("sub"), b"abc",
            bytearray(7), memoryview(b"view"), memoryview(np.zeros(10))[::2],
            a, a.T, a[::2], np.zeros(0), np.array(1.0), a.view(np.recarray),
            np.float64(1.0), np.float32(1.0), np.int8(1), np.bool_(True),
            np.str_("four"), np.bytes_(b"four"), np.complex128(1j),
            (), [], {}, (1, ("abcd", 2.0)), Listy([a, a]), Pair(1, "b"),
            {"ab": a, 3: [None, b"xy"]}, ("put", 3, 17, np.zeros(4)),
            np.dtype("f8"), Colour.RED, Level.HIGH, Sized(), Unsized(),
            object(), RunList.from_dense(np.arange(0, 64, 2)),
            RunList.from_dense(np.random.default_rng(1).permutation(30)), fused,
        ]
        for payload in zoo:
            assert payload_nbytes(payload) == _ladder_nbytes(payload), \
                repr(payload)
        assert [payload_nbytes(x) for x in
                (True, np.dtype("f8"), Colour.RED)] == [8, 64, 64]
