"""Run recorder: per-rank hook sinks plus artifact assembly.

A :class:`Recorder` is handed to :class:`repro.vmachine.machine.VirtualMachine`
(or :func:`repro.vmachine.program.run_programs`), which attaches one
:class:`RankRecorder` to each :class:`~repro.vmachine.process.Process`.
The transport layer then calls four hooks on the hot path:

- ``pre_send(message)`` — *before* delivery, while the sender still owns
  the payload bytes (on the zero-copy transport the receiver may unpack
  and recycle the staging buffer the instant ``deliver`` returns);
- ``on_send(message, receipt, clock)`` — after the fault plan ruled;
- ``on_recv(message, wait, clock)`` — as a message is consumed;
- ``on_probe(hit)`` — each non-blocking completion/probe outcome.

All hooks are plain Python appends on the calling rank's own thread:
recording charges **zero logical-clock time** and takes no locks, so
recorded runs keep the exact clocks of unrecorded ones.  A message is one
entry on each named column of the rank's ``sends`` / ``recvs`` stream —
the artifact's on-disk form as it stands.

Probe outcomes matter for single-rank isolation replay: the reliability
layer drains acks and backlog through ``while endpoint.probe(...)``
loops, so a replayer serving a rank from the log must answer each probe
exactly as the original run did — not according to what merely *exists*
in the log's future.
"""

from __future__ import annotations

import threading
import traceback as _traceback
from typing import Any

from repro.replay.artifact import (
    RecvRecord,
    SendRecord,
    VERSION,
    encode_payload,
    encode_receipt,
    new_stream,
    save_artifact,
    seal_body,
)
from repro.replay.fingerprint import env_fingerprint, env_snapshot, payload_digest
from repro.vmachine.trace import event_to_tuple, format_tag

__all__ = ["Recorder", "RankRecorder"]


class RankRecorder:
    """Per-rank event sink.  Single-threaded by construction (one thread
    per rank), so appends need no synchronization."""

    __slots__ = (
        "rank", "sends", "recvs", "probes", "_send_cols", "_recv_cols",
        "_send_seq", "_recv_seq", "_pending_digest",
    )

    def __init__(self, rank: int, payloads: bool = False) -> None:
        self.rank = rank
        self.sends = new_stream(SendRecord)
        self.recvs = new_stream(RecvRecord, *(("payload",) if payloads else ()))
        # one message is one append per column, in the record's field order
        # (then ``payload``): the appends are bound here, once per rank
        self._send_cols = [column.append for column in self.sends.values()]
        self._recv_cols = [column.append for column in self.recvs.values()]
        self.probes: list[str] = []
        self._send_seq: dict[int, int] = {}
        self._recv_seq: dict[int, int] = {}
        self._pending_digest: str | None = None

    # -- hooks (hot path, zero clock charge) -------------------------------

    def _digest(self, message) -> str:
        try:
            return payload_digest(message.payload)
        except TypeError as exc:
            raise TypeError(
                f"{exc}; in the message rank {message.source} -> "
                f"{message.dest}, tag {format_tag(message.tag)}"
            ) from None

    def pre_send(self, message) -> None:
        # Digest now: after delivery the receiver may already have
        # unpacked the fused buffer and released its arena lease.
        self._pending_digest = self._digest(message)

    def on_send(self, message, receipt, clock: float) -> None:
        dst = message.dest
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        row = (seq, dst, message.tag, message.nbytes, clock,
               self._pending_digest, encode_receipt(receipt))
        for append, value in zip(self._send_cols, row, strict=True):
            append(value)

    def on_recv(self, message, wait: float, clock: float) -> None:
        src = message.source
        seq = self._recv_seq.get(src, 0)
        self._recv_seq[src] = seq + 1
        # hashed here, from what this end holds: never the sender's digest
        row = (seq, src, message.tag, message.nbytes, message.arrival, clock,
               wait, self._digest(message))
        if "payload" in self.recvs:
            row += (encode_payload(message.payload),)
        for append, value in zip(self._recv_cols, row, strict=True):
            append(value)

    def on_probe(self, hit: bool) -> None:
        self.probes.append("1" if hit else "0")

    # -- assembly ----------------------------------------------------------

    def entry(self, clock: float, trace, value: Any) -> dict:
        return {
            "sends": self.sends,
            "recvs": self.recvs,
            "probes": "".join(self.probes),
            "trace": [event_to_tuple(e) for e in trace],
            "clock": clock,
            "value": payload_digest(value),
        }


class Recorder:
    """Collects every rank's streams and seals them into one artifact.

    Parameters
    ----------
    payloads:
        Capture full recv-side payloads (pickled) in addition to digests.
        Required for single-rank isolation replay; off by default to keep
        artifacts compact.
    note:
        Free-form annotation stored in the artifact.
    """

    def __init__(self, payloads: bool = False, note: str = "") -> None:
        self.payloads = payloads
        self.note = note
        #: set by :func:`repro.replay.workloads.run_workload` so CLI-recorded
        #: artifacts are self-describing (replay needs no extra flags)
        self.workload: dict | None = None
        self.artifact: dict | None = None
        self._ranks: dict[int, RankRecorder] = {}
        self._lock = threading.Lock()

    def rank_recorder(self, rank: int) -> RankRecorder:
        with self._lock:
            rec = self._ranks.get(rank)
            if rec is None:
                rec = self._ranks[rank] = RankRecorder(rank, self.payloads)
            return rec

    def finalize(
        self,
        *,
        kind: str,
        config: dict,
        fault_plan_dict: dict | None,
        clocks: list[float],
        traces: list,
        values: list,
        error: BaseException | str | None = None,
    ) -> dict:
        """Build and seal the artifact (``clocks``, ``traces`` and ``values``
        hold one entry per rank).  Returns the sealed envelope."""
        config = dict(config)
        if self.workload is not None and config.get("workload") is None:
            config["workload"] = self.workload
        ranks = [
            self.rank_recorder(rank).entry(clocks[rank], traces[rank],
                                           values[rank])
            for rank in range(config["nprocs"])
        ]
        if isinstance(error, BaseException):
            error = "".join(
                _traceback.format_exception_only(type(error), error)
            ).strip()
        env = env_snapshot()
        self.artifact = seal_body({
            "version": VERSION,
            "kind": kind,
            "payloads": self.payloads,
            "note": self.note,
            "config": config,
            "env": env,
            "env_fingerprint": env_fingerprint(env),
            "fault_plan": fault_plan_dict,
            "ranks": ranks,
            "error": error,
        })
        return self.artifact

    def save(self, path: str) -> str:
        if self.artifact is None:
            raise RuntimeError("Recorder.finalize() has not run yet")
        return save_artifact(self.artifact, path)
