"""The replay artifact: one compact, versioned file per recorded run.

Layout (JSON, optionally gzip-compressed when the path ends in ``.gz``)::

    {
      "format": "repro-replay",
      "checksum": "<sha256 of the canonical-JSON body>",
      "body": {
        "version": 2,
        "kind": "vm" | "programs",
        "payloads": bool,          # recvs carry a "payload" column
        "note": str,
        "config": {
          "nprocs": int,
          "profile": str,          # MachineProfile.name
          "programs": [[name, nprocs], ...] | null,
          "recv_timeout_s": float | null,
          "copy_on_send": bool,
          "observe": bool,
          "check_leaks": bool,     # an artifact without it replays as
                                   # true for "vm", false for "programs"
          "workload": {"name": str, "params": {...}} | null,
        },                         # written by VirtualMachine._config
        "env": {"REPRO_*": str, ...},
        "env_fingerprint": str,
        "fault_plan": {...} | null,    # full FaultPlan, incl. seed
        "ranks": [
          {
            "sends":  {"seq": [...], "dst": [...], "tag": [...],
                       "nbytes": [...], "clock": [...], "digest": [...],
                       "receipt": [...]},
            "recvs":  {"seq": [...], "src": [...], "tag": [...],
                       "nbytes": [...], "arrival": [...], "clock": [...],
                       "wait": [...], "digest": [...](, "payload": [...])},
            "probes": "0110...",   # probe outcomes, call order
            "trace":  [[kind, time, rank, peer, tag, nbytes, wait, phase]],
            "clock":  float,
            "value":  str,         # digest of the rank's return value
          }, ...
        ],
        "error": str | null,
      }
    }

A rank's ``sends`` and ``recvs`` are *named columns* of equal length, one
entry per message in the order the rank sent (consumed) them; the column
names are :class:`SendRecord` and :class:`RecvRecord`'s fields, defined
here and nowhere else, and :func:`records` reads a stream back a message
at a time.  ``payload`` (base64 text of a snapshot, see
:func:`encode_payload`) is present exactly when ``body["payloads"]``.

``seq`` numbers are **per directed channel**: a send record's ``seq``
counts sends from this rank toward ``dst``; a recv record's ``seq``
counts messages this rank *consumed* from ``src``.  A divergence or an
integrity violation therefore always localizes to ``(rank, src → dst,
seq)``.

``digest`` is :func:`~repro.replay.fingerprint.payload_digest` of the
payload — sha256 over the canonical bytes its type declares in the
payload table (:mod:`repro.vmachine.payload`).  Version 1 hashed other
objects through their pickle (slot layouts, memo slots and all); nothing
was committed in it and :func:`load_artifact` refuses it.

Floats round-trip exactly through JSON (Python emits the shortest
repr that parses back to the same double), so "byte-identical clocks"
is a meaningful comparison on loaded artifacts.  Integers of any size
round-trip exactly as well, which matters for wire tags (context blocks
are multiples of ``2**32``).

:func:`load_artifact` never raises on a bad checksum — tamper detection
is :func:`verify_artifact`'s job, which *localizes* damage instead of
merely reporting "something differed": every recv record's payload is
re-digested, so a single flipped byte names its rank, channel and
sequence number.
"""

from __future__ import annotations

import base64
import copy as _copy
import gzip
import hashlib
import json
import pickle
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Iterator

from repro.replay.fingerprint import payload_digest
from repro.vmachine.faults import (
    CrashEvent,
    DeliveryReceipt,
    FaultPlan,
    FaultRates,
    FaultRule,
    OK_RECEIPT,
)

__all__ = [
    "FORMAT",
    "VERSION",
    "SendRecord",
    "RecvRecord",
    "new_stream",
    "records",
    "ReplayFormatError",
    "IntegrityViolation",
    "faultplan_to_dict",
    "faultplan_from_dict",
    "encode_receipt",
    "decode_receipt",
    "encode_payload",
    "decode_payload",
    "seal_body",
    "checksum_ok",
    "save_artifact",
    "load_artifact",
    "verify_artifact",
]

FORMAT = "repro-replay"
VERSION = 2


#: one sent message; the fields are the ``sends`` column names
SendRecord = namedtuple(
    "SendRecord", "seq dst tag nbytes clock digest receipt")
#: one consumed message; the fields are the ``recvs`` column names
#: (``payload``, when captured, is one more column beside them)
RecvRecord = namedtuple(
    "RecvRecord", "seq src tag nbytes arrival clock wait digest")


def new_stream(record: type, *extra: str) -> dict[str, list]:
    """An empty stream: one list per field of ``record`` (and ``extra``)."""
    return {name: [] for name in (*record._fields, *extra)}


def records(stream: dict[str, list], record: type) -> Iterator:
    """A stream's messages, in order, as ``record`` tuples."""
    return map(record._make, zip(*(stream[name] for name in record._fields)))


class ReplayFormatError(ValueError):
    """The file is not a readable replay artifact of a supported version."""


@dataclass(frozen=True)
class IntegrityViolation:
    """One localized spot of artifact damage.

    ``channel`` is ``(src, dst)`` global ranks and ``seq`` the per-channel
    sequence number for payload damage; both are ``None`` for
    envelope-level damage (a bad body checksum with no localizable
    record).
    """

    kind: str                          # "checksum" | "payload" | "record"
    rank: int | None
    channel: tuple[int, int] | None
    seq: int | None
    detail: str

    def __str__(self) -> str:
        where = ""
        if self.channel is not None:
            where = (
                f" at rank {self.rank}, channel "
                f"{self.channel[0]} -> {self.channel[1]}, seq {self.seq}"
            )
        return f"[{self.kind}]{where}: {self.detail}"


# -- fault-plan serialization ----------------------------------------------


def faultplan_to_dict(plan: FaultPlan | None) -> dict | None:
    """Serialize a :class:`FaultPlan` (its *specification*, not its RNG
    state — per-channel streams re-derive deterministically from the
    seed)."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "enabled": plan.enabled,
        "rules": [
            {
                "rates": {
                    "drop": r.rates.drop,
                    "dup": r.rates.dup,
                    "reorder": r.rates.reorder,
                    "delay": r.rates.delay,
                    "corrupt": r.rates.corrupt,
                    "delay_range_s": list(r.rates.delay_range_s),
                },
                "src": r.src,
                "dst": r.dst,
                "classes": list(r.classes),
            }
            for r in plan.rules
        ],
        "slowdown": {str(k): v for k, v in sorted(plan.slowdown.items())},
        "crashes": [
            {
                "rank": ev.rank,
                "after_sends": ev.after_sends,
                "after_receives": ev.after_receives,
                "at_time_s": ev.at_time_s,
            }
            for ev in plan.crashes
        ],
    }


def faultplan_from_dict(d: dict | None) -> FaultPlan | None:
    if d is None:
        return None
    rules = [
        FaultRule(
            rates=FaultRates(
                drop=r["rates"]["drop"],
                dup=r["rates"]["dup"],
                reorder=r["rates"]["reorder"],
                delay=r["rates"]["delay"],
                corrupt=r["rates"]["corrupt"],
                delay_range_s=tuple(r["rates"]["delay_range_s"]),
            ),
            src=r["src"],
            dst=r["dst"],
            classes=tuple(r["classes"]),
        )
        for r in d["rules"]
    ]
    crashes = [
        CrashEvent(
            rank=c["rank"],
            after_sends=c["after_sends"],
            after_receives=c["after_receives"],
            at_time_s=c["at_time_s"],
        )
        for c in d["crashes"]
    ]
    return FaultPlan(
        seed=d["seed"],
        rules=rules,
        slowdown={int(k): v for k, v in d["slowdown"].items()},
        crashes=crashes,
        enabled=d["enabled"],
    )


# -- per-record encodings ---------------------------------------------------


def encode_receipt(receipt: DeliveryReceipt) -> list | str:
    """Compact receipt encoding; the fault-free fast path is one string."""
    if receipt is OK_RECEIPT or (
        receipt.delivered == 1
        and not receipt.dropped
        and not receipt.corrupted
        and not receipt.held
        and receipt.duplicated == 0
        and receipt.delay_s == 0.0
    ):
        return "ok"
    return [
        receipt.delivered,
        int(receipt.dropped),
        int(receipt.corrupted),
        int(receipt.held),
        receipt.duplicated,
        receipt.delay_s,
    ]


def decode_receipt(enc: list | str) -> DeliveryReceipt:
    if enc == "ok":
        return OK_RECEIPT
    delivered, dropped, corrupted, held, duplicated, delay_s = enc
    return DeliveryReceipt(
        delivered=delivered,
        dropped=bool(dropped),
        corrupted=bool(corrupted),
        held=bool(held),
        duplicated=duplicated,
        delay_s=delay_s,
    )


def encode_payload(payload: Any) -> str | None:
    """Pickle a payload snapshot as base64 text, or None when impossible.

    The payload is deep-copied first: on the zero-copy transport the live
    object may be backed by a pooled staging buffer (whose lease the deep
    copy severs) or mutated later by the application; the snapshot is the
    bytes *as consumed*.
    """
    try:
        snap = _copy.deepcopy(payload)
        return base64.b64encode(pickle.dumps(snap, protocol=4)).decode("ascii")
    except Exception:
        return None


def decode_payload(encoded: str) -> Any:
    return pickle.loads(base64.b64decode(encoded.encode("ascii")))


# -- envelope ---------------------------------------------------------------


def _canonical(body: dict) -> bytes:
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def seal_body(body: dict) -> dict:
    """Wrap a body in the checksummed envelope."""
    return {
        "format": FORMAT,
        "checksum": hashlib.sha256(_canonical(body)).hexdigest(),
        "body": body,
    }


def checksum_ok(artifact: dict) -> bool:
    """Does the envelope checksum match the body it wraps?"""
    want = artifact.get("checksum")
    body = artifact.get("body")
    if want is None or body is None:
        return False
    return hashlib.sha256(_canonical(body)).hexdigest() == want


def save_artifact(artifact: dict, path: str) -> str:
    """Write the artifact (gzip when ``path`` ends in ``.gz``)."""
    data = json.dumps(artifact, separators=(",", ":")).encode("utf-8")
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as f:
            f.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)
    return str(path)


def load_artifact(path: str) -> dict:
    """Read an artifact.  Checksum mismatches do NOT raise here —
    :func:`verify_artifact` localizes damage; this only rejects files
    that are not replay artifacts at all."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            artifact = json.loads(f.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ReplayFormatError(f"{path}: not a replay artifact: {exc}") from exc
    if not isinstance(artifact, dict) or artifact.get("format") != FORMAT:
        raise ReplayFormatError(f"{path}: not a {FORMAT!r} artifact")
    version = artifact.get("body", {}).get("version")
    if version != VERSION:
        raise ReplayFormatError(
            f"{path}: unsupported artifact version {version!r} "
            f"(this build reads version {VERSION})"
        )
    return artifact


def _payload_damage(encoded: str | None, want: str) -> tuple[str, str] | None:
    """What is wrong with one stored payload, as ``(kind, detail)``."""
    if encoded is None:
        return "record", "payload could not be captured at record time"
    try:
        payload = decode_payload(encoded)
    except Exception as exc:
        return "payload", (f"stored payload no longer decodes: "
                           f"{type(exc).__name__}: {exc}")
    got = payload_digest(payload)
    if got != want:
        return "payload", f"payload digest {got} != recorded {want}"
    return None


def verify_artifact(artifact: dict) -> list[IntegrityViolation]:
    """Check artifact integrity, localizing damage to (rank, channel, seq).

    Two layers:

    1. the envelope checksum over the canonical body — catches *any*
       single-byte tamper, but cannot say where;
    2. every recv record's stored payload is re-digested against the
       digest recorded at capture time — a flipped payload byte (or a
       payload that no longer unpickles) names its exact rank, channel
       ``src -> dst`` and per-channel sequence number.
    """
    violations: list[IntegrityViolation] = []
    if not checksum_ok(artifact):
        violations.append(
            IntegrityViolation(
                "checksum", None, None, None,
                "body checksum mismatch: the artifact was modified after "
                "sealing",
            )
        )
    body = artifact.get("body", {})
    for rank, entry in enumerate(body.get("ranks", [])):
        recvs = entry["recvs"]
        # no "payload" column: recorded without payloads
        for rec, encoded in zip(records(recvs, RecvRecord),
                                recvs.get("payload", ())):
            damage = _payload_damage(encoded, rec.digest)
            if damage is not None:
                violations.append(IntegrityViolation(
                    damage[0], rank, (rec.src, rank), rec.seq, damage[1]))
    return violations
