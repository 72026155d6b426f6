"""Content digests and run fingerprints for record/replay.

Everything here is *canonical*: the same logical content always hashes to
the same hex string — across interpreter runs (no salted ``hash()``),
across NumPy memory layouts, across the padding garbage of pooled staging
buffers, and across whatever an object has lazily memoised since it was
built.  What "logical content" means is not decided here: a digest is
sha256 over the bytes the payload table declares for the value's type
(:func:`repro.vmachine.payload.canonical_feed` — the table that also says
what the cost model charges for it), and :func:`payload_digest` is
defined beside that table, so it dispatches on the type once.  A value
of a type the table does not know raises ``TypeError``; nothing is
hashed through its in-memory representation.

These digests are the atoms of the replay artifact: every recorded wire
message carries one, so a single corrupted byte — in a replayed run *or*
in the artifact file itself — is localized to ``(rank, channel, seq)``
instead of surfacing as "something differed".
"""

from __future__ import annotations

from repro.vmachine.payload import DIGEST_LEN, payload_digest

__all__ = [
    "DIGEST_LEN",
    "payload_digest",
    "plan_fingerprint",
    "replay_handle",
]


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
    carries the run's provenance: its machine, fault seed and fault-plan
    fingerprint.
    """
    handle = {
        "nprocs": nprocs,
        "profile": profile_name,
        "seed": None if fault_plan_dict is None else fault_plan_dict["seed"],
        "fault_plan": plan_fingerprint(fault_plan_dict),
    }
    if programs is not None:
        handle["programs"] = [[name, n] for name, n in programs]
    return handle
