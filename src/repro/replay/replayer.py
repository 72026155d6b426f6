"""Replay engines: full-fidelity re-execution and single-rank isolation.

Full-fidelity (:func:`replay_full`) re-runs the *entire* machine — same
workload, same fault plan (per-channel draw streams re-derive from the
recorded seed), every machine setting passed to ``VirtualMachine``
explicitly from the recorded config — records the re-run, and
structurally diffs the two artifacts.  The recorded ``REPRO_*``
environment is installed around the re-run only so that its env
fingerprint equals the recording's; no setting is read from it.  The virtual machine is
deterministic by construction, so the diff must be empty; anything else
is localized to ``(rank, channel, seq)`` by
:func:`repro.replay.divergence.diff_bodies`.

Single-rank isolation (:func:`replay_rank`) re-executes ONE rank of a
recorded run — e.g. the one interesting rank of a P=64 chaos failure —
with its peers *served from the log*.  It is the same launch
(``VirtualMachine._launch``) with only that rank's thread started and two
stand-in mailboxes:

- the rank's mailbox is replaced by a :class:`_LogMailbox` that answers
  every ``receive``/``receive_any_of`` with the next *consumed* message
  from the recorded stream (payloads were captured on the recv side, so
  the rank computes on real bytes), and answers every ``probe`` with the
  recorded outcome stream;
- outbound messages fall into a :class:`_SinkBox` (the fault plan still
  rules on them, so send receipts and crash/slowdown draws re-derive
  exactly).

Serving probes from the recorded *outcome stream* — rather than from
what happens to sit in the log — is load-bearing: the reliability layer
drains acks and backlog through ``while probe(...)`` loops, and a probe
that could see a logged-but-future message would consume it early,
shifting every subsequent clock.  Faithful re-execution makes the i-th
receive call consume the i-th recorded message (mailbox matching is
per-channel FIFO and ``receive_any_of`` picks the minimum
``(arrival, source, tag)`` — the very message the real run consumed), so
log-order service is exact, not approximate.

Ranks driven by wall-clock-dependent code (the service gateway's asyncio
batch sealing) are *not* isolation-replayable — their control flow is
not a function of the message log.  Server ranks and every SPMD compute
rank are.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque

from repro.replay.artifact import (
    RecvRecord,
    decode_payload,
    faultplan_from_dict,
    records,
)
from repro.replay.divergence import Divergence, ReplayReport, diff_bodies
from repro.replay.recorder import Recorder
from repro.vmachine.cost_model import ALPHA_FARM_ATM, IBM_SP2
from repro.vmachine.machine import ProgramSpec, SPMDError, VirtualMachine
from repro.vmachine.message import Mailbox, Message

__all__ = [
    "ReplayLogExhausted",
    "replay_full",
    "replay_rank",
    "recorded_env",
]

#: machine profiles addressable by their recorded name
_PROFILES = {IBM_SP2.name: IBM_SP2, ALPHA_FARM_ATM.name: ALPHA_FARM_ATM}


class ReplayLogExhausted(RuntimeError):
    """An isolation-replayed rank diverged from its recorded log.

    Deliberately NOT a :class:`~repro.vmachine.faults.RankLostError`
    subclass: the coupling layer's degradation paths catch rank-loss and
    downgrade it to peer-loss handling, which would silently absorb a
    replay divergence instead of surfacing it.
    """


def _profile(name: str):
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine profile {name!r}; known: {sorted(_PROFILES)}"
        ) from None


@contextlib.contextmanager
def recorded_env(env: dict[str, str]):
    """Temporarily install the recorded ``REPRO_*`` environment.

    No replayed :class:`~repro.vmachine.process.Process` reads it:
    :func:`_relaunch` passes every machine setting to ``VirtualMachine``
    explicitly.  It is installed only so that the replay's env
    fingerprint — snapshotted when the re-run's recorder seals, and
    compared by the diff — equals the recording's.  Existing ``REPRO_*``
    variables are cleared first (absence is part of the recorded state),
    and everything is restored on exit.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    try:
        for k in saved:
            del os.environ[k]
        os.environ.update(env)
        yield
    finally:
        for k in list(os.environ):
            if k.startswith("REPRO_"):
                del os.environ[k]
        os.environ.update(saved)


def _relaunch(body: dict, recorder: Recorder, fn, args, kwargs, specs,
              isolate=None) -> SPMDError | None:
    """Launch a recorded run again; returns its :class:`SPMDError`, if any.

    The programs to re-execute are an explicit ``fn`` (one-program run) or
    ``specs`` (coupled run), else the artifact's self-described workload
    rebuilt from its parameters.  This is the one place replay rebuilds
    the machine: every setting ``VirtualMachine._config`` wrote is passed
    explicitly to the constructor call below, so none comes from the
    environment; the recorded ``REPRO_*`` environment around it
    (:func:`recorded_env`) only keeps the re-run's env fingerprint equal
    to the recording's.  An artifact from before ``check_leaks`` was recorded
    replays as its kind ran then: checked for a one-program run, unchecked
    for a coupled one.
    """
    config = body["config"]
    world = config["programs"] is None
    if world and fn is not None:
        specs = [ProgramSpec("world", config["nprocs"], fn, args, kwargs or {})]
    elif world or specs is None:
        wl = config.get("workload")
        if wl is None:
            raise ValueError(
                "artifact does not name a workload; pass fn= (kind 'vm') or "
                "specs= (kind 'programs') to re-execute it"
            )
        from repro.replay.workloads import build_workload

        specs = build_workload(wl["name"], wl["params"])["specs"]
    with recorded_env(body["env"]):
        machine = VirtualMachine(
            config["nprocs"],
            profile=_profile(config["profile"]),
            check_leaks=config.get("check_leaks", world),
            recv_timeout_s=config["recv_timeout_s"],
            copy_on_send=config["copy_on_send"],
            observe=config["observe"],
            faults=faultplan_from_dict(body["fault_plan"]),
            recorder=recorder,
        )
        try:
            machine._launch(specs, world=world, isolate=isolate)
        except SPMDError as exc:
            return exc  # a recorded failure must re-fail identically
    return None


# -- full-fidelity replay ---------------------------------------------------


def replay_full(
    artifact: dict,
    fn=None,
    args: tuple = (),
    kwargs: dict | None = None,
    specs=None,
) -> ReplayReport:
    """Re-execute every rank of a recorded run and diff against the log.

    Returns a :class:`ReplayReport`; ``report.identical`` asserts
    byte-identical clocks, message logs (headers + payload digests),
    probe streams, traces and per-rank value digests.
    """
    body = artifact["body"]
    rec = Recorder(payloads=False, note="replay of recorded run")
    error = _relaunch(body, rec, fn, args, kwargs, specs)
    report = ReplayReport(
        mode="full", ranks_compared=body["config"]["nprocs"]
    )
    report.divergences = diff_bodies(body, rec.artifact["body"])
    if (body["error"] is None) != (error is None):
        report.divergences.append(Divergence(
            "error", None, None, None, "outcome",
            body["error"], None if error is None else str(error)[:200],
        ))
    return report


# -- single-rank isolation replay -------------------------------------------


class _SinkBox:
    """Destination for the replayed rank's outbound messages: peers are
    not executing, so sends (and fault-plan held-message flushes) vanish."""

    def deliver(self, message) -> None:
        pass

    def deliver_many(self, messages) -> None:
        pass

    def wake(self) -> None:
        pass


class _LogMailbox(_SinkBox, Mailbox):
    """Mailbox that serves one rank from its recorded streams.

    ``receive``/``receive_any_of`` hand out recorded messages in
    *consumption order* (pattern-checked against the caller's request);
    ``probe`` replays the recorded outcome stream; inbound delivery falls
    into the sink (self-sends are already in the recv log).  Never blocks.
    """

    def __init__(self, rank: int, recvs: dict, probes: str):
        super().__init__(rank)
        self._log: deque[Message] = deque()
        for recd, encoded in zip(records(recvs, RecvRecord), recvs["payload"]):
            if encoded is None:
                raise ReplayLogExhausted(
                    f"rank {rank}: recv seq {recd.seq} from {recd.src} has no "
                    "captured payload (it could not be snapshotted at record "
                    "time), so the rank cannot be replayed in isolation"
                )
            self._log.append(Message(
                source=recd.src, dest=rank, tag=recd.tag,
                payload=decode_payload(encoded),
                arrival=recd.arrival, nbytes=recd.nbytes,
            ))
        self._probes = probes
        self._probe_cursor = 0

    # -- log service -------------------------------------------------------

    def _next(self, what: str) -> Message:
        if not self._log:
            raise ReplayLogExhausted(
                f"rank {self.rank}: {what} beyond the recorded log "
                "(the replayed execution consumed more messages than the "
                "original run — divergence)"
            )
        return self._log.popleft()

    def receive(self, source, tag, timeout=None, tag_range=None, context=""):
        msg = self._next(f"receive(source={source}, tag={tag})")
        if not msg.matches(source, tag, tag_range):
            raise ReplayLogExhausted(
                f"rank {self.rank}: receive(source={source}, tag={tag}) "
                f"does not match the next recorded message "
                f"(source={msg.source}, tag={msg.tag}) — divergence"
            )
        return msg

    def receive_any_of(self, patterns, timeout=None, context=None):
        msg = self._next(f"receive_any_of({len(patterns)} patterns)")
        for k, (source, tag, tag_range) in enumerate(patterns):
            if msg.matches(source, tag, tag_range):
                return k, msg
        raise ReplayLogExhausted(
            f"rank {self.rank}: no pattern of receive_any_of matches the "
            f"next recorded message (source={msg.source}, tag={msg.tag}) "
            "— divergence"
        )

    def probe(self, source, tag, tag_range=None) -> bool:
        i = self._probe_cursor
        if i >= len(self._probes):
            raise ReplayLogExhausted(
                f"rank {self.rank}: probe #{i} beyond the recorded outcome "
                "stream — divergence"
            )
        self._probe_cursor = i + 1
        return self._probes[i] == "1"


def replay_rank(
    artifact: dict,
    rank: int,
    fn=None,
    args: tuple = (),
    kwargs: dict | None = None,
    specs=None,
) -> ReplayReport:
    """Re-execute ONE rank of a recorded run, peers served from the log.

    Requires an artifact recorded with payload capture.  The rank's
    sends, trace, probes, final clock and value digest are re-derived by
    real execution and diffed against the recording; its receives come
    from the log (bytes as originally consumed) and so compare
    trivially — a divergence therefore always points at this rank's own
    behaviour.
    """
    body = artifact["body"]
    total = body["config"]["nprocs"]
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for nprocs={total}")
    if not body["payloads"]:
        raise ValueError(
            "artifact was recorded without payload capture; isolation "
            "replay needs `payloads=True` at record time (CLI: --payloads)"
        )
    entry = body["ranks"][rank]
    log = _LogMailbox(rank, entry["recvs"], entry["probes"])
    rec = Recorder(payloads=False, note=f"isolation replay of rank {rank}")
    error = _relaunch(
        body, rec, fn, args, kwargs, specs, isolate=(rank, log, _SinkBox())
    )
    report = ReplayReport(mode="isolate", ranks_compared=1)
    report.divergences = diff_bodies(body, rec.artifact["body"], ranks=[rank])
    if error is not None and body["error"] is None:
        exc = error.errors[0].exception
        report.divergences.append(Divergence(
            "error", rank, None, None, "outcome",
            None, f"{type(exc).__name__}: {exc}",
        ))
    return report
