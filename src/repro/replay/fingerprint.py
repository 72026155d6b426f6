"""Content digests and run fingerprints for record/replay.

Everything here is *canonical*: the same logical content always hashes to
the same hex string — across interpreter runs (no salted ``hash()``),
across NumPy memory layouts, across the padding garbage of pooled staging
buffers, and across whatever an object has lazily memoised since it was
built.  What "logical content" means is not decided here: a digest is
sha256 over the bytes the payload table declares for the value's type
(:func:`repro.vmachine.payload.canonical_feed` — the table that also says
what the cost model charges for it).  A value of a type the table does
not know raises ``TypeError``; nothing is hashed through its in-memory
representation.

These digests are the atoms of the replay artifact: every recorded wire
message carries one, so a single corrupted byte — in a replayed run *or*
in the artifact file itself — is localized to ``(rank, channel, seq)``
instead of surfacing as "something differed".
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

from repro.vmachine.payload import canonical_feed

__all__ = [
    "payload_digest",
    "env_snapshot",
    "env_fingerprint",
    "plan_fingerprint",
    "replay_handle",
]

#: hex digits kept per digest — 64 bits of sha256, plenty for corruption
#: detection while keeping artifacts compact
DIGEST_LEN = 16


def payload_digest(payload: Any) -> str:
    """Canonical content digest (hex string) of one message payload — or
    of a rank's return value: same canonical form."""
    h = hashlib.sha256()
    canonical_feed(payload, h.update)
    return h.hexdigest()[:DIGEST_LEN]


def env_snapshot() -> dict[str, str]:
    """The ``REPRO_*`` environment knobs, sorted by name."""
    return {
        k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
    }


def env_fingerprint(env: dict[str, str] | None = None) -> str:
    """Stable digest of the ``REPRO_*`` environment."""
    snap = env_snapshot() if env is None else dict(sorted(env.items()))
    h = hashlib.sha256()
    for k, v in snap.items():
        h.update(k.encode() + b"=" + v.encode() + b"\x00")
    return h.hexdigest()[:DIGEST_LEN]


def plan_fingerprint(plan_dict: dict | None) -> str | None:
    """Stable digest of a serialized fault plan (None when faults off)."""
    return None if plan_dict is None else payload_digest(plan_dict)


def replay_handle(
    nprocs: int,
    profile_name: str,
    fault_plan_dict: dict | None,
    programs: list[tuple[str, int]] | None = None,
) -> dict:
    """The compact fingerprint attached to every run result.

    Even when recording is off, this rides along on
    :class:`~repro.vmachine.machine.SPMDResult` (and on
    :class:`~repro.vmachine.machine.SPMDError`), so a failure report
    carries everything needed to re-create the run's provenance: fault
    seed, fault-plan fingerprint, and the ``REPRO_*`` environment.
    """
    env = env_snapshot()
    handle = {
        "nprocs": nprocs,
        "profile": profile_name,
        "seed": None if fault_plan_dict is None else fault_plan_dict["seed"],
        "fault_plan": plan_fingerprint(fault_plan_dict),
        "env": env,
        "env_fingerprint": env_fingerprint(env),
    }
    if programs is not None:
        handle["programs"] = [[name, n] for name, n in programs]
    return handle
