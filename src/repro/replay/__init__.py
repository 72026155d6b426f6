"""Deterministic record/replay of whole virtual-machine runs.

The virtual machine is deterministic by construction (logical clocks,
seeded fault draws, fixed thread-per-rank protocols), which makes a much
stronger debugging primitive than "attach a debugger" possible: record a
run's complete provenance once, then *prove* any later run identical —
or pinpoint where it is not.

Every launch, recorded or not, carries its re-record recipe: the replay
handle ``{"config": ..., "fault_plan": ...}`` (``SPMDResult.replay``,
``SPMDError.replay_handle``) — the machine's settings as
``VirtualMachine._config`` writes them and the fault plan in
:func:`~repro.vmachine.faults.faultplan_to_dict` form.

- :class:`~repro.replay.recorder.Recorder` — captures seeds, fault-plan
  draw schedules, the full per-channel message log (headers + payload
  digests, optionally payloads), probe outcomes, the run's handle and
  final clock/value digests into one sealed, versioned artifact.
  Recording charges zero logical-clock time.
- :func:`~repro.replay.replayer.relaunch` — run a handle (or an
  artifact's body) again into a recorder: the one re-record entry.
- :func:`~repro.replay.replayer.replay_full` — re-execute all ranks and
  assert byte-identical clocks/logs/traces/destination digests.
- :func:`~repro.replay.replayer.replay_rank` — re-execute ONE rank with
  its peers served from the recorded log (debug a P=64 chaos failure on
  a laptop).
- :func:`~repro.replay.artifact.verify_artifact` — tamper detection
  localized to ``(rank, channel, seq)``.
- :func:`~repro.replay.divergence.diff_bodies` — the replay-divergence
  checker backing the CI guard.

``faultplan_to_dict`` / ``faultplan_from_dict`` (defined beside
``FaultPlan`` in :mod:`repro.vmachine.faults`) and ``payload_digest``
(beside the payload table in :mod:`repro.vmachine.payload`) are
re-exported here.

CLI: ``python -m repro record|replay``.  Env knob: ``REPRO_RECORD=1``
auto-records any run into an in-memory artifact.
"""

from repro.replay.artifact import (
    IntegrityViolation,
    ReplayFormatError,
    load_artifact,
    save_artifact,
    verify_artifact,
)
from repro.replay.divergence import Divergence, ReplayReport, diff_bodies
from repro.replay.recorder import Recorder
from repro.replay.replayer import (
    ReplayLogExhausted,
    relaunch,
    replay_full,
    replay_rank,
)
from repro.vmachine.faults import faultplan_from_dict, faultplan_to_dict
from repro.vmachine.payload import payload_digest

__all__ = [
    "Recorder",
    "relaunch",
    "replay_full",
    "replay_rank",
    "ReplayLogExhausted",
    "Divergence",
    "ReplayReport",
    "diff_bodies",
    "IntegrityViolation",
    "ReplayFormatError",
    "load_artifact",
    "save_artifact",
    "verify_artifact",
    "faultplan_to_dict",
    "faultplan_from_dict",
    "payload_digest",
]
