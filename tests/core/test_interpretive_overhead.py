"""A budget on the executor's interpretive overhead.

A plan is lowered once so that a move does not re-interpret it: per
message the executor makes one row-kernel call, and per segment a
handful of Python calls (the pack charge, the batched NumPy operation),
not a walk through adapter → ``compile_offsets`` → cast rule →
``charge_pack`` again.
Wall-clock cannot guard that in CI, a count can: ``sys.setprofile``
"call" events whose code lives under ``repro/core/`` (no wait loop runs
there, so the count repeats exactly) for one steady-state fused k = 8
push and one bare k = 1 move on a 4-rank machine, per fused segment and
per bare message.

Measured when the flat-plan executor landed (parent → change): 44.1 →
14.5 calls per fused segment (4149 → 1359 calls for 94 segments in 12
messages), 43.1 → 26.1 calls per bare message (474 → 287 for 11
messages) — everything under ``repro/core/`` counted, both halves, the
intra-processor copies and the per-call entry included.  With
point-to-point on the endpoint (no universe forwarding call, no arrival
generator or retry wrapper under ``repro/core/``): 14.3 → 13.9 per fused
segment, 26.1 → 23.2 per bare message.  With one row-kernel call per
message (``repro.core.registry.move_row``: the clock stored once per row,
the counters bumped once per loop, no null span) and ``MoveProgram``
reading 1-D storage and the built index directly: 15.3 → 8.9 per fused
segment (1435 → 833 calls), 24.3 → 18.3 per bare message (267 → 201).
The budgets below leave ~13-15 % headroom over that; a change that
needs more should say why.
"""

import numpy as np
import pytest

import repro.blockparti  # noqa: F401
import repro.chaos  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
)
from repro.vmachine import VirtualMachine

from helpers import index_sor, python_calls, section_sor

#: the budgets are the all-hooks-off executor's (a recorder hashes every
#: fused segment through ``repro/core/wire.py``)
pytestmark = pytest.mark.usefixtures("clean_repro_env")

P, N = 4, 64
CALLS_PER_FUSED_SEGMENT = 10.0
CALLS_PER_BARE_MESSAGE = 21.0


def _core_calls(op):
    """Python calls into ``repro/core/`` made by ``op()`` on this rank."""
    return len(python_calls(op, lambda path: "/repro/core/" in path))


def _measure(k):
    """``(core calls, messages, segments)`` of the third execution of a
    k-field move, summed over the ranks — the first two fill the memos a
    timestep loop runs on."""
    perms = [np.random.default_rng(j).permutation(N) for j in range(k)]

    def body(comm):
        full = section_sor((slice(0, N),), (N,))
        srcs = [BlockPartiArray.from_global(comm, np.arange(N) + 1.0 * j)
                for j in range(k)]
        dsts = [ChaosArray.zeros(comm, perm % P) for perm in perms]
        scheds = [
            mc_compute_schedule(comm, "blockparti", a, full,
                                "chaos", b, index_sor(perm))
            for a, b, perm in zip(srcs, dsts, perms)
        ]
        if k == 1:
            def op():
                mc_copy(comm, scheds[0], srcs[0], dsts[0])
        else:
            plan = mc_compute_plan(scheds)

            def op():
                mc_copy_many(comm, plan, srcs, dsts)
        op()
        op()
        comm.barrier()  # nobody is still inside the second op
        stats = comm.process.stats
        sent = stats["messages_sent"]
        calls = _core_calls(op)
        segments = sum(len(offs) > 0 for s in scheds
                       for d, offs in s.sends.items() if d != comm.rank)
        return calls, stats["messages_sent"] - sent, segments

    values = VirtualMachine(P).run(body).values
    return tuple(sum(v[i] for v in values) for i in range(3))


def test_calls_per_fused_segment():
    calls, messages, segments = _measure(8)
    assert messages == P * (P - 1) and 7 * messages < segments <= 8 * messages
    assert calls / segments <= CALLS_PER_FUSED_SEGMENT, calls / segments


def test_calls_per_bare_message():
    calls, messages, segments = _measure(1)
    assert P * (P - 2) < messages == segments <= P * (P - 1)
    assert calls / messages <= CALLS_PER_BARE_MESSAGE, calls / messages


def test_the_count_repeats_exactly():
    assert _measure(8) == _measure(8)
