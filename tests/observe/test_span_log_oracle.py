"""The span log against an oracle that does not know how spans are built.

A hooked fused move — faults, reliability, trace, observe and a recorder
all on, four ranks — and, on every rank, four properties of what it
logged: the records nest by ``depth`` and ``[start, end]``; a record's
``path`` is its enclosing records' names joined with its own; a name's
``span_seconds`` total is the in-order sum of its records' durations;
and every trace event's phase is the path of a span open at that event.
The log is in closing order, so a record's children are the records
closed before it, one level deeper, since its previous sibling closed.
A leaf span closed at the wrong depth, with the wrong path or under the
wrong phase breaks one of them.
"""

import numpy as np

from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import (IndexRegion, SectionRegion, mc_compute_plan,
                        mc_compute_schedule, mc_copy_many,
                        mc_new_set_of_regions)
from repro.core.universe import SingleProgramUniverse
from repro.distrib.section import Section
from repro.replay import Recorder
from repro.vmachine import VirtualMachine
from repro.vmachine.faults import FaultPlan, FaultRates

N, K = 12, 3


def fused_push(comm):
    perm = np.random.default_rng(3).permutation(N * N)
    ssor = mc_new_set_of_regions(SectionRegion(Section.full((N, N))))
    dsor = mc_new_set_of_regions(IndexRegion(perm))
    srcs, dsts, scheds = [], [], []
    for j in range(K):
        a = BlockPartiArray.from_function(
            comm, (N, N), lambda i, jj, j=j: (j + 1.0) * (i * N + jj))
        b = ChaosArray.zeros(comm, perm % comm.size)
        scheds.append(mc_compute_schedule(comm, "blockparti", a, ssor,
                                          "chaos", b, dsor))
        srcs.append(a)
        dsts.append(b)
    universe = SingleProgramUniverse(comm)
    universe.enable_reliability()
    plan = mc_compute_plan(scheds)
    for _ in range(3):
        mc_copy_many(universe, plan, srcs, dsts)
    return dict(comm.process.metrics.span_seconds)


def hooked_run():
    faults = FaultPlan(seed=1997, rates=FaultRates(
        drop=0.05, dup=0.05, reorder=0.05, delay=0.05))
    return VirtualMachine(4, trace=True, observe=True, recorder=Recorder(),
                          faults=faults).run(fused_push)


def check_nesting(records):
    """Every record is inside its parent, after its previous sibling, and
    its path is the parent's path plus its name; the roots are left."""
    open_children = []  # closed records whose parent has not closed yet
    for r in records:
        kids = [c for c in open_children if c.depth > r.depth]
        open_children = [c for c in open_children if c.depth <= r.depth]
        assert all(c.depth == r.depth + 1 for c in kids), (r, kids)
        previous_end = r.start
        for c in kids:
            assert previous_end <= c.start <= c.end <= r.end, (r, c)
            assert c.path == f"{r.path}/{c.name}", (r, c)
            previous_end = c.end
        open_children.append(r)
    for root in open_children:
        assert root.depth == 0 and root.path == root.name, root


def check_totals(records, span_seconds):
    totals = {}
    for r in records:
        totals[r.name] = totals.get(r.name, 0.0) + (r.end - r.start)
    assert totals == span_seconds


def check_phases(records, events):
    """An event's phase (a fault event's less its own ``/kind``) names a
    span whose interval holds the event's time."""
    intervals = {}
    for r in records:
        intervals.setdefault(r.path, []).append((r.start, r.end))
    for e in events:
        phase = e.phase
        if e.kind.startswith("fault:"):
            phase = phase[: -len(e.kind)].rstrip("/")
        if not phase:
            continue
        assert any(start <= e.time <= end
                   for start, end in intervals.get(phase, ())), e


def test_hooked_fused_move_logs_a_consistent_span_tree(clean_repro_env):
    res = hooked_run()
    leaves = {"wire", "pack", "unpack", "copy:local"}
    assert any(e.kind.startswith("fault:") for t in res.traces for e in t)
    for rank in range(4):
        records, events = res.spans[rank], res.traces[rank]
        assert leaves <= {r.name for r in records}
        check_nesting(records)
        check_totals(records, res.values[rank])
        check_phases(records, events)


def test_the_oracle_refuses_a_leaf_logged_at_the_wrong_depth_or_path(
        clean_repro_env):
    res = hooked_run()
    records = res.spans[0]
    i = next(i for i, r in enumerate(records) if r.name == "wire")
    for bad in (records[i]._replace(depth=records[i].depth + 1),
                records[i]._replace(path="wire"),
                records[i]._replace(start=records[i].start - 1.0)):
        try:
            check_nesting(records[:i] + [bad] + records[i + 1:])
        except AssertionError:
            continue
        raise AssertionError(f"the oracle accepted {bad}")
