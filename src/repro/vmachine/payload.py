"""The payload table: what a message costs and what it hashes to.

Two questions are asked of every payload the transport carries — how many
bytes the cost model charges for it (:func:`payload_nbytes`, once per
send) and which bytes identify its content to record/replay
(:func:`canonical_feed`, under a recorder) — and one type-dispatch table
answers both: ``type(payload)`` maps to a ``(size, feed)`` rule
(docs/MODEL.md §1 tabulates them).  A type met for the first time resolves
to the first of :data:`_ROWS` it subclasses, else to a declared rule, and
is memoised: the ladder is walked once per type, not once per message.

Sizes only feed the cost model (monotone in the data volume, not exact).
Canonical bytes are type-tagged and independent of memory layout, and an
object that is none of the rows must *declare* them — replay never hashes
an in-memory representation:

- a ``@dataclass`` is its qualified name and its ``compare=True`` fields,
  in order (memo fields are ``compare=False`` by convention);
- an ``Enum`` member is its class and member name; an ``np.dtype`` its
  ``.str``;
- a class with a ``__wire__(self, update)`` method feeds itself
  (``repro.core.runs.RunList``, a schedule piece, and
  ``repro.core.wire.FusedBuffer`` — which is what keeps ``repro.core``
  out of this module's imports).

Anything else still has a size, but feeding it raises ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from operator import attrgetter
from typing import Any, Callable

import numpy as np

__all__ = ["payload_nbytes", "canonical_feed", "payload_digest", "DIGEST_LEN",
           "array_prefix", "SizedList"]

#: sink of byte chunks — a ``hashlib`` object's ``update``
Update = Callable[[bytes], None]

_buffer_nbytes = attrgetter("nbytes")


def _seq_nbytes(payload) -> int:
    # ``payload_nbytes`` of each item, spelled in the loop: a Python call
    # per scalar would be most of what sizing a tuple of scalars costs.
    total = 8
    for item in payload:
        size = _TABLE[type(item)][0]
        total += size if size.__class__ is int else size(item)
    return total


class SizedList(list):
    """A ``list`` charged the ``nbytes`` its builder summed (a window
    batch, as it was issued) instead of a walk; hashed as a ``list``."""

    __slots__ = ("nbytes",)


def _dict_nbytes(payload: dict) -> int:
    return 8 + sum(
        payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
    )


def _opaque_nbytes(payload: Any) -> int:
    """An object's own ``nbytes`` when it is a byte count — a plain
    non-negative integer, not a method, a float or a flag (schedules,
    descriptors, protocol records and wire buffers define one) — else a
    64-byte envelope."""
    nbytes = getattr(payload, "nbytes", None)
    if (
        isinstance(nbytes, (int, np.integer))
        and not isinstance(nbytes, bool)
        and nbytes >= 0
    ):
        return int(nbytes)
    return 64


def _feed_str(obj, update: Update) -> None:
    update(b"S" + obj.encode("utf-8"))


def _feed_bytes(obj, update: Update) -> None:
    update(b"Y")
    update(bytes(obj))


def array_prefix(dtype: np.dtype, shape: tuple) -> bytes:
    """What opens an ndarray's canonical bytes, ahead of its C-order data
    (``repro.core.wire.WireLayout.rows`` compiles it in per segment)."""
    return b"A" + dtype.str.encode() + repr(shape).encode()


def _feed_ndarray(obj, update: Update) -> None:
    update(array_prefix(obj.dtype, obj.shape))
    if obj.dtype.hasobject:
        # the elements, not the pointer table ``tobytes()`` would spell
        for item in obj.reshape(-1).tolist():
            canonical_feed(item, update)
    elif obj.flags.c_contiguous:
        update(obj)  # in place: chunking never moves a sha256
    else:
        update(obj.tobytes())  # C order, whatever the view


def _feed_seq(tag: bytes) -> Callable[[Any, Update], None]:
    def feed(obj, update: Update) -> None:
        update(tag + str(len(obj)).encode())
        for item in obj:  # ``canonical_feed`` of each, spelled in the loop
            _TABLE[type(item)][1](item, update)

    return feed


def _feed_dict(obj, update: Update) -> None:
    update(b"D" + str(len(obj)).encode())
    for k, v in obj.items():
        canonical_feed(k, update)
        canonical_feed(v, update)


#: ``(base, size, feed)``; a subclass takes the first row it matches.
#: ``size`` is the byte count itself when the type fixes it; a ``str`` is
#: charged its UTF-8 length — what would cross the wire.  ``float`` stands
#: before ``np.generic`` (and ``np.str_``/``np.bytes_`` stand explicitly) so
#: a NumPy scalar that is also a Python one keeps the Python scalar's form.
_ROWS: list[tuple[type, Any, Callable[[Any, Update], None]]] = [
    (type(None), 8, lambda obj, update: update(b"N")),
    (bool, 8, lambda obj, update: update(b"B1" if obj else b"B0")),
    (int, 8, lambda obj, update: update(b"I" + str(obj).encode())),
    (float, 8, lambda obj, update: update(b"F" + repr(obj).encode())),
    (np.ndarray, _buffer_nbytes, _feed_ndarray),
    (np.str_, _buffer_nbytes, _feed_str),
    (np.bytes_, _buffer_nbytes, _feed_bytes),
    (np.generic, _buffer_nbytes,
     lambda obj, update: update(b"G" + obj.dtype.str.encode() + obj.tobytes())),
    (memoryview, _buffer_nbytes, _feed_bytes),
    (bytes, len, _feed_bytes),
    (bytearray, len, _feed_bytes),
    (tuple, _seq_nbytes, _feed_seq(b"T")),
    (SizedList, _buffer_nbytes, _feed_seq(b"L")),
    (list, _seq_nbytes, _feed_seq(b"L")),
    (dict, _dict_nbytes, _feed_dict),
    (str, lambda payload: len(payload.encode("utf-8")), _feed_str),
]


class _Table(dict):
    """``type -> (size, feed)``: the rows, plus every type resolved since
    (a miss resolves and memoises, so a hit is one subscript)."""

    def __missing__(self, cls: type) -> tuple:
        for base, size, feed in _ROWS:
            if issubclass(cls, base):
                rule = (size, feed)
                break
        else:
            rule = (_opaque_nbytes, _declared_feed(cls))
        self[cls] = rule
        return rule


_TABLE = _Table({base: (size, feed) for base, size, feed in _ROWS})


def _declared_feed(cls: type) -> Callable[[Any, Update], None]:
    """The canonical form of a class that is none of :data:`_ROWS`: one of
    the declared rules, else a feed that refuses."""
    name = f"{cls.__module__}.{cls.__qualname__}".encode()
    if hasattr(cls, "__wire__"):
        return cls.__wire__
    if issubclass(cls, enum.Enum):
        return lambda obj, update: update(b"E" + name + b"." + obj.name.encode())
    if issubclass(cls, np.dtype):
        return lambda obj, update: update(b"K" + obj.str.encode())
    if dataclasses.is_dataclass(cls):
        fields = tuple(f.name for f in dataclasses.fields(cls) if f.compare)
        head = b"C" + name + b":" + str(len(fields)).encode()

        def feed_dataclass(obj, update: Update) -> None:
            update(head)
            for field in fields:
                canonical_feed(getattr(obj, field), update)

        return feed_dataclass

    def undeclared(obj, update: Update) -> None:
        raise TypeError(
            f"payload type {name.decode()} has no declared canonical form "
            "for replay to hash (see repro.vmachine.payload)"
        )

    return undeclared


def payload_nbytes(payload: Any) -> int:
    """Size in bytes the cost model charges for a message payload."""
    size = _TABLE[type(payload)][0]
    return size if size.__class__ is int else size(payload)


def canonical_feed(payload: Any, update: Update) -> None:
    """Feed ``payload``'s canonical bytes, in chunks, to ``update``."""
    _TABLE[type(payload)][1](payload, update)


#: hex digits kept per digest — 64 bits of sha256, plenty for corruption
#: detection while keeping artifacts compact
DIGEST_LEN = 16


def payload_digest(payload: Any) -> str:
    """Canonical content digest (hex string) of one message payload — or
    of a rank's return value: sha256 over :func:`canonical_feed`, through
    one table dispatch (replay's digest; :mod:`repro.replay` re-exports
    it)."""
    h = hashlib.sha256()
    _TABLE[type(payload)][1](payload, h.update)
    return h.hexdigest()[:DIGEST_LEN]
