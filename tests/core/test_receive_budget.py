"""One receive budget: every blocking wait reads ``Process.recv_timeout_s``.

The budget is set once per run (``VirtualMachine(recv_timeout_s=...)`` or
``run_programs(recv_timeout_s=...)``).  Each blocking entry point below
waits on peers that never send and must give up after that budget with a
text naming it; and no public signature may take a per-call ``timeout``
/ ``deadline_s`` again.
"""

import inspect
import time

import numpy as np

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
import repro.core
import repro.core.coupling
import repro.vmachine
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import mc_compute_schedule, mc_copy
from repro.core.coupling import CoupledExchange, coupled_universe
from repro.core.universe import SingleProgramUniverse, Universe
from repro.vmachine import (
    Communicator,
    InterComm,
    ProgramSpec,
    Request,
    VirtualMachine,
    run_programs,
    waitall,
    waitany,
)
from repro.vmachine.faults import PeerLostError, RankLostError
from repro.vmachine.reliability import Reliability, ReliableView

from helpers import index_sor, section_sor

BUDGET = 0.2
TAG = 7
SHAPE = (4, 6)
GRID = np.arange(24.0).reshape(SHAPE)
PERM = np.random.default_rng(1).permutation(24)
WHOLE = section_sor((slice(None), slice(None)), SHAPE)


def _fence(comm, a, b):
    rel = Reliability()
    rel.send(comm, a, "never acked", TAG)
    return rel.fence


#: entry point -> (make(comm, a, b) -> the blocking call, the error it
#: raises); ``a`` and ``b`` are peers that never send
WAITS = {
    "recv": (lambda c, a, b: lambda: c.recv(a, TAG), TimeoutError),
    "recv_any": (lambda c, a, b: lambda: c.recv_any(TAG), TimeoutError),
    "irecv-wait": (lambda c, a, b: c.irecv(a, TAG).wait, TimeoutError),
    "waitany": (lambda c, a, b: lambda: waitany(
        [c.irecv(a, TAG), c.irecv(b, TAG)]), TimeoutError),
    "waitall": (lambda c, a, b: lambda: waitall(
        [c.irecv(a, TAG), c.irecv(b, TAG)]), TimeoutError),
    "arrivals-in-order": (lambda c, a, b: lambda: list(
        c.arrivals([a, b], TAG)), TimeoutError),
    "arrivals-overlap": (lambda c, a, b: lambda: list(
        c.arrivals([a, b], TAG, overlap=True)), TimeoutError),
    "reliable-recv": (lambda c, a, b: lambda: Reliability().over(c).recv(
        a, TAG), TimeoutError),
    "reliable-arrivals-in-order": (lambda c, a, b: lambda: list(
        Reliability().over(c).arrivals([a, b], TAG)), TimeoutError),
    "reliable-arrivals-overlap": (lambda c, a, b: lambda: list(
        Reliability().over(c).arrivals([a, b], TAG, overlap=True)),
        TimeoutError),
    "fence": (_fence, RankLostError),
}


def _outcome(call):
    """``(error class name, seconds, text)`` of ``call()``: plain values,
    so a recorded run can digest them."""
    t0 = time.monotonic()
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, time.monotonic() - t0, str(exc)
    return None, time.monotonic() - t0, "returned"


def _check(name, error, outcome):
    """The reason ``outcome`` breaks the budget, or None."""
    kind, elapsed, text = outcome
    if kind != error.__name__:
        return f"{name}: raised {kind}, not {error.__name__}: {text}"
    if not BUDGET * 0.9 < elapsed < 5.0:
        return f"{name}: gave up after {elapsed:.3f}s"
    if f"{BUDGET}s" not in text:
        return f"{name}: text does not name {BUDGET}s: {text}"
    return None


def test_every_wait_gives_up_after_the_machine_budget():
    """All entry points wait at once, one per rank, so the test costs one
    budget: ranks 0..10 each run one ``WAITS`` entry against the last two
    ranks, which send nothing; rank 11 runs ``mc_copy`` over a
    communicator it shares only with those two, which build the schedule
    with it and then leave."""
    names = list(WAITS) + ["mc_copy"]

    def spmd(comm):
        a, b = comm.size - 2, comm.size - 1
        role = names[comm.rank] if comm.rank < len(names) else None
        sub = comm.split(0 if role in (None, "mc_copy") else 1)
        if role in (None, "mc_copy"):
            A = BlockPartiArray.from_global(sub, GRID)
            B = ChaosArray.zeros(sub, PERM % sub.size)
            sched = mc_compute_schedule(sub, "blockparti", A, WHOLE,
                                        "chaos", B, index_sor(PERM))
        if role is None:
            return None
        if role == "mc_copy":
            return _outcome(
                lambda: mc_copy(SingleProgramUniverse(sub), sched, A, B))
        make, _ = WAITS[role]
        return _outcome(make(comm, a, b))

    # the silent peers leave rank sends unreceived, on purpose
    vm = VirtualMachine(len(names) + 2, recv_timeout_s=BUDGET,
                        check_leaks=False)
    values = vm.run(spmd).values
    errors = {name: error for name, (_, error) in WAITS.items()}
    errors["mc_copy"] = TimeoutError
    broken = [_check(name, errors[name], values[r])
              for r, name in enumerate(names)]
    assert [b for b in broken if b] == []


def test_coupled_pull_gives_up_after_the_machine_budget():
    def src_prog(ctx):
        A = BlockPartiArray.from_global(ctx.comm, GRID)
        uni = coupled_universe(ctx, "dstp", "src")
        sched = mc_compute_schedule(uni, "blockparti", A, WHOLE,
                                    "chaos", None, None)
        return _outcome(lambda: CoupledExchange(uni, sched).pull(A))

    def dst_prog(ctx):
        B = ChaosArray.zeros(ctx.comm, PERM % ctx.comm.size)
        uni = coupled_universe(ctx, "srcp", "dst")
        mc_compute_schedule(uni, "blockparti", None, None,
                            "chaos", B, index_sor(PERM))
        return None  # never pulls: nothing is ever sent back

    res = run_programs(
        [ProgramSpec("srcp", 1, src_prog), ProgramSpec("dstp", 1, dst_prog)],
        recv_timeout_s=BUDGET,
    )
    outcome = res["srcp"].values[0]
    assert _check("CoupledExchange.pull", PeerLostError, outcome) is None
    assert "dstp" in outcome[2]


# ---------------------------------------------------------------------------
# the option does not grow back
# ---------------------------------------------------------------------------

FORBIDDEN = {"timeout", "deadline_s"}
#: ``mc_copy_many`` accepts and ignores ``timeout``: the perf harness
#: (``perf/workloads.py``) still passes it
IGNORED = {("repro.core", "mc_copy_many", "timeout")}
CLASSES = (Communicator, InterComm, Request, Reliability, ReliableView,
           Universe, CoupledExchange)


def _params(fn):
    try:
        return inspect.signature(fn).parameters
    except (TypeError, ValueError):  # a builtin without a signature
        return {}


def _exported():
    for module in (repro.core, repro.core.coupling, repro.vmachine):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield module.__name__, name, obj
    for cls in CLASSES:
        for name, member in inspect.getmembers(cls, callable):
            if not name.startswith("__") or name == "__init__":
                yield cls.__qualname__, name, member


def test_no_public_signature_takes_a_per_call_budget():
    offenders = [
        f"{owner}.{name}({param}=)"
        for owner, name, fn in _exported()
        for param in FORBIDDEN & set(_params(fn))
        if (owner, name, param) not in IGNORED
    ]
    assert offenders == []
