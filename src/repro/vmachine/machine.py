"""SPMD execution on the virtual machine: the one launcher.

:class:`VirtualMachine` starts every rank thread of this reproduction.
One routine (:meth:`VirtualMachine._launch`) takes an ordered list of
:class:`ProgramSpec`, assigns each a contiguous block of global ranks and
its communicator context ids, binds a configured
:class:`~repro.vmachine.process.Process` to each rank's thread, joins the
threads and assembles the per-program :class:`SPMDResult`.
:meth:`VirtualMachine.run` is that launch with one *world* program,
:func:`~repro.vmachine.program.run_programs` the launch of several, and
isolation replay (:func:`repro.replay.replayer.replay_rank`) the same
launch with one rank started.

An exception on any rank marks that rank dead in the run's
:class:`~repro.vmachine.faults.FailureDetector` — receives blocked on the
dead rank raise :class:`~repro.vmachine.faults.RankLostError` with
per-rank diagnostics (pending mailbox envelopes) instead of hanging — and
everything is re-raised on the host thread as :class:`SPMDError` with
per-rank tracebacks.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable

from repro.vmachine.comm import CONTEXT_STRIDE, Communicator, InterComm
from repro.vmachine.cost_model import CostModel, IBM_SP2, MachineProfile
from repro.vmachine.faults import (
    FailureDetector,
    FaultPlan,
    RankLostError,
    faultplan_from_dict,
    faultplan_to_dict,
)
from repro.vmachine.process import Process

__all__ = [
    "VirtualMachine",
    "SPMDResult",
    "RankError",
    "SPMDError",
    "ProgramSpec",
    "ProgramContext",
]


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


@dataclass
class RankError:
    """Captured failure of one rank."""

    rank: int
    exception: BaseException
    formatted: str


class SPMDError(RuntimeError):
    """One or more ranks raised; carries every rank's traceback."""

    def __init__(self, errors: list[RankError]):
        self.errors = errors
        chunks = [f"{len(errors)} rank(s) failed:"]
        for e in errors:
            chunks.append(f"--- rank {e.rank} ---\n{e.formatted}")
        super().__init__("\n".join(chunks))

    @property
    def lost_ranks(self) -> list[int]:
        """Ranks whose failure was a lost-peer condition (degradation)."""
        return sorted(
            e.rank for e in self.errors if isinstance(e.exception, RankLostError)
        )

    @property
    def root_causes(self) -> list[RankError]:
        """Failures that were *not* a reaction to another rank's death."""
        return [
            e for e in self.errors if not isinstance(e.exception, RankLostError)
        ]


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    values: list[Any]
    clocks: list[float]
    stats: list[dict[str, float]]
    #: per-rank message traces (populated when the run traced messages)
    traces: list[list] = field(default_factory=list)
    #: per-rank :class:`~repro.observe.metrics.MetricsSnapshot` (counters
    #: and span totals always; (phase, term) attribution when the run
    #: observed)
    metrics: list = field(default_factory=list)
    #: per-rank closed-span logs (populated when the run observed)
    spans: list[list] = field(default_factory=list)
    #: replay handle — ``{"config": ..., "fault_plan": ...}``, the launch's
    #: settings and fault plan as a recording stores them — attached to
    #: every run (recording or not): ``repro.replay.relaunch`` re-records
    #: the run from it
    replay: dict = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        """Logical elapsed time of the run: the slowest rank's clock."""
        return max(self.clocks) * 1e3 if self.clocks else 0.0

    def span_ms(self, name: str) -> float:
        """Logical ms the slowest rank spent inside spans named ``name``
        (its inclusive total; 0 if no rank opened one): an SPMD phase
        takes as long as its slowest processor."""
        return max((m.span_seconds.get(name, 0.0) for m in self.metrics),
                   default=0.0) * 1e3

    def total_stat(self, key: str) -> float:
        """Sum of one counter (e.g. ``messages_sent``) across all ranks."""
        return sum(s.get(key, 0.0) for s in self.stats)


@dataclass
class ProgramSpec:
    """One program of a coupled run.

    ``fn`` is called once per rank of the program as
    ``fn(ctx, *args, **kwargs)`` with a :class:`ProgramContext`.
    """

    name: str
    nprocs: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)


class ProgramContext:
    """Per-rank view of a coupled run.

    Attributes
    ----------
    program:
        This program's name.
    comm:
        Intra-program communicator (rank/size are program-local).
    intercomms:
        Mapping of peer program name to the :class:`InterComm` reaching it.
    """

    def __init__(
        self,
        program: str,
        comm: Communicator,
        intercomms: dict[str, InterComm],
    ):
        self.program = program
        self.comm = comm
        self.intercomms = intercomms

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def peer(self, name: str) -> InterComm:
        """The inter-communicator to program ``name``."""
        try:
            return self.intercomms[name]
        except KeyError:
            raise KeyError(
                f"program {self.program!r} has no peer {name!r}; "
                f"peers: {sorted(self.intercomms)}"
            ) from None


class VirtualMachine:
    """A fixed-size virtual distributed-memory machine.

    The parameters after ``nprocs`` are the *run settings*;
    :func:`~repro.vmachine.program.run_programs` takes the same ones and
    forwards them here.

    Parameters
    ----------
    nprocs:
        Number of virtual processors.
    profile:
        Cost-model calibration (defaults to the IBM SP2 used for the
        paper's Tables 1-5).
    trace:
        Keep every rank's message trace (``SPMDResult.traces``).
    check_leaks:
        Fail the run when a message was delivered but never received
        (mismatched send/recv, a silent protocol bug).  On by default.
    recv_timeout_s:
        The wall-clock budget (seconds) of every blocking wait of the run:
        each receive, wait-any and reliable-fence ack wait raises once it
        has waited this long.  ``None`` (default) is 120 s.
    copy_on_send:
        Debug mode: deep-copy every payload at send time, guarding
        against the zero-copy transport's mutate-after-send hazard.
        Off by default.
    faults:
        Optional seeded :class:`~repro.vmachine.faults.FaultPlan`; when
        installed, message delivery runs through the fault model and rank
        slowdown/crash events apply (a crash event may name a whole
        program, ``rank="program:<name>"``).  Each launch runs on a new
        copy of it, so the plan passed here is never changed.  ``None``
        (default) is the perfectly reliable historical transport —
        logical clocks are byte-identical with and without this parameter
        at its default.
    observe:
        Full observability: implies ``trace=True`` and additionally logs
        phase spans and attributes every clock advance to its cost-model
        term (:class:`~repro.observe.metrics.MetricsRegistry`).  Defaults
        to the ``REPRO_OBSERVE`` environment variable.  Zero-cost to the
        logical clocks: every published table is byte-identical with
        observability on or off (guarded in CI).
    recorder:
        Optional :class:`~repro.replay.recorder.Recorder`; when present,
        every rank's message log, probe outcomes, trace and final clock
        are captured into a sealed replay artifact
        (``recorder.artifact`` after the run).  Implies tracing.  Like
        observability, recording charges zero logical-clock time — the
        published tables stay byte-identical with recording on (guarded
        in CI).  Defaults to a fresh in-memory recorder when the
        ``REPRO_RECORD`` environment variable is truthy.
    """

    def __init__(
        self,
        nprocs: int,
        profile: MachineProfile = IBM_SP2,
        trace: bool = False,
        check_leaks: bool = True,
        recv_timeout_s: float | None = None,
        copy_on_send: bool = False,
        faults: FaultPlan | None = None,
        observe: bool | None = None,
        recorder=None,
    ):
        if nprocs < 1:
            raise ValueError("need at least one virtual processor")
        self.nprocs = nprocs
        self.profile = profile
        self.cost_model = CostModel(profile)
        self.trace = trace
        self.check_leaks = check_leaks
        self.recv_timeout_s = recv_timeout_s
        self.copy_on_send = copy_on_send
        self.faults = faults
        self.observe = (
            _env_truthy("REPRO_OBSERVE") if observe is None else observe
        )
        if recorder is None and _env_truthy("REPRO_RECORD"):
            from repro.replay.recorder import Recorder

            recorder = Recorder()
        self.recorder = recorder

    def _config(self, programs: list | None) -> dict:
        """The settings as a replay artifact's ``config`` records them
        (``faults`` travels beside it as ``fault_plan``; ``trace`` and
        ``recorder`` are implied by replaying).  Replay rebuilds the
        machine from this dict with one constructor call
        (``repro.replay.replayer.relaunch``), so a setting written here
        is a setting replayed."""
        return {
            "nprocs": self.nprocs,
            "profile": self.profile.name,
            "programs": programs,
            "recv_timeout_s": self.recv_timeout_s,
            "copy_on_send": self.copy_on_send,
            "observe": bool(self.observe),
            "check_leaks": bool(self.check_leaks),
            "workload": None,
        }

    def _process(self, rank: int, faults: FaultPlan | None) -> Process:
        """One rank, configured from the machine's settings and the
        launch's fault plan."""
        proc = Process(rank, self.nprocs, self.cost_model)
        if self.recv_timeout_s is not None:
            proc.recv_timeout_s = self.recv_timeout_s
        proc.copy_on_send = self.copy_on_send
        if faults is not None:
            proc.faults = faults
            proc.slowdown = faults.slowdown_for(rank)
        if self.observe:
            proc.enable_observability()
        if self.trace or self.observe or self.recorder is not None:
            proc.trace = []
        if self.recorder is not None:
            proc.recorder = self.recorder.rank_recorder(rank)
        return proc

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> SPMDResult:
        """Run ``fn(comm, *args, **kwargs)`` on every rank and collect results.

        ``fn`` receives the world communicator as its first argument; the
        ambient :class:`Process` is reachable as ``comm.process`` or via
        :func:`~repro.vmachine.process.current_process`.
        """
        spec = ProgramSpec("world", self.nprocs, fn, args, kwargs)
        return self._launch([spec], world=True)[spec.name]

    def _launch(
        self,
        specs: list[ProgramSpec],
        world: bool = False,
        isolate: tuple[int, Any, Any] | None = None,
    ) -> dict[str, SPMDResult]:
        """Start every rank of ``specs``; return each program's result.

        Global ranks are contiguous blocks in spec order.  Communicator
        context ids are blocks of ``CONTEXT_STRIDE`` (user and collective
        tags stay below it, and ``ANY_TAG`` wildcards are scoped to one
        block).  ``world`` is the one-program machine: the program takes
        block 0, ``fn`` receives its communicator and a recording is of
        kind ``"vm"``.  Otherwise program ``i`` takes block ``i + 1``,
        every pair of programs one block after those, ``fn`` receives a
        :class:`ProgramContext` and a recording is of kind ``"programs"``.

        ``isolate=(rank, mailbox, sink)`` is isolation replay, whose only
        caller is :func:`repro.replay.replayer.replay_rank`: only
        ``rank``'s thread starts, it receives from ``mailbox``, and every
        message to a peer goes to ``sink``.

        The launch runs on a new fault plan built from the machine's plan
        (``"program:<name>"`` crash events expanded to ranks), so launching
        twice draws the same faults twice.  That plan and ``_config`` are
        the run's replay handle, attached to its results or error and
        handed to the recorder.
        """
        blocks: dict[str, list[int]] = {}
        base = 0
        for s in specs:
            blocks[s.name] = list(range(base, base + s.nprocs))
            base += s.nprocs
        if base != self.nprocs or len(blocks) != len(specs):
            raise ValueError(
                f"programs {[(s.name, s.nprocs) for s in specs]} must have "
                f"distinct names and fill {self.nprocs} processor(s)"
            )
        first = 0 if world else 1
        contexts = {
            name: (first + i) * CONTEXT_STRIDE for i, name in enumerate(blocks)
        }
        pair_contexts: dict[tuple[str, str], int] = {}
        for k, (a, b) in enumerate(combinations(blocks, 2), first + len(specs)):
            pair_contexts[a, b] = pair_contexts[b, a] = k * CONTEXT_STRIDE
        # Contention is per program: coupled programs run on *disjoint* node
        # sets (the paper allocates the client and server their own nodes), so
        # each program's node-link sharing depends on its own process count.
        contentions = {
            s.name: self.profile.contention_factor(s.nprocs) for s in specs
        }

        programs = None if world else [[s.name, s.nprocs] for s in specs]
        plan_dict = faultplan_to_dict(self.faults, blocks)
        handle = {"config": self._config(programs), "fault_plan": plan_dict}
        faults = faultplan_from_dict(plan_dict)
        processes = [self._process(r, faults) for r in range(self.nprocs)]
        router = {p.rank: p.mailbox for p in processes}
        only = None
        if isolate is not None:
            only, log_mailbox, sink = isolate
            router = dict.fromkeys(router, sink)
            router[only] = processes[only].mailbox = log_mailbox
        detector = FailureDetector()
        for p in processes:
            detector.register(p.mailbox)

        values: list[Any] = [None] * self.nprocs
        errors: list[RankError] = []
        errors_lock = threading.Lock()

        def worker(spec: ProgramSpec, proc: Process) -> None:
            proc.bind()
            try:
                name, mine = spec.name, blocks[spec.name]
                arg: Any = Communicator(
                    proc, mine, router,
                    context=contexts[name], contention=contentions[name],
                )
                if not world:
                    arg = ProgramContext(name, arg, {
                        other: InterComm(
                            proc, mine, theirs, router,
                            context=pair_contexts[name, other],
                            # The sender's own node link is the modelled
                            # bottleneck.
                            contention=contentions[name],
                        )
                        for other, theirs in blocks.items() if other != name
                    })
                values[proc.rank] = spec.fn(arg, *spec.args, **spec.kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to host
                with errors_lock:
                    errors.append(
                        RankError(proc.rank, exc, traceback.format_exc())
                    )
                # Graceful degradation: mark this rank dead so receives
                # blocked on it raise RankLostError (with diagnostics)
                # promptly, instead of closing every mailbox and erasing
                # who actually failed.  Ranks blocked on still-live peers
                # unblock transitively as the failure cascades, and the
                # coupling layer upgrades a lost peer program's ranks to
                # PeerLostError.
                detector.mark_dead(proc.rank, f"{type(exc).__name__}: {exc}")
            finally:
                proc.unbind()

        threads = [
            threading.Thread(
                target=worker,
                args=(s, processes[g]),
                name=f"vproc-{g}" if world else f"{s.name}-{local}",
                daemon=True,
            )
            for s in specs
            for local, g in enumerate(blocks[s.name])
            if only is None or g == only
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        errors.sort(key=lambda e: e.rank)
        if not errors and self.check_leaks:
            # A correct program consumes every message it is sent; leftovers
            # mean mismatched sends/receives (a silent protocol bug).
            errors = [
                RankError(
                    p.rank,
                    RuntimeError("unconsumed messages"),
                    f"rank {p.rank}: {n} message(s) were delivered "
                    "but never received (mismatched send/recv)",
                )
                for p in processes
                if (n := p.mailbox.pending())
            ]
        error = None
        if errors:
            error = SPMDError(errors)
            error.replay_handle = handle
        traces = [p.trace if p.trace is not None else [] for p in processes]
        if self.recorder is not None:
            self.recorder.finalize(
                kind="vm" if world else "programs",
                handle=handle,
                clocks=[p.clock for p in processes],
                traces=traces,
                values=values,
                error=error,
            )
        if error is not None:
            raise error

        def result(granks: list[int]) -> SPMDResult:
            procs = [processes[g] for g in granks]
            return SPMDResult(
                values=[values[g] for g in granks],
                clocks=[p.clock for p in procs],
                stats=[p.stats for p in procs],
                traces=[traces[g] for g in granks],
                metrics=[p.metrics.snapshot() for p in procs],
                spans=[p.spans if p.spans is not None else [] for p in procs],
                replay=handle,
            )

        return {name: result(granks) for name, granks in blocks.items()}
