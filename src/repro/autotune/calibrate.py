"""Calibration and validation: run candidates, refit, compare.

The search tier never touches the virtual machine; this module is the
bridge back.  :func:`measure_mapping` executes one (workload, mapping)
pair under ``VirtualMachine(observe=True)`` and splits the run into a
schedule-build window and a data-move window with
:meth:`~repro.observe.metrics.MetricsRegistry.snapshot` /
:meth:`~repro.observe.metrics.MetricsSnapshot.diff` — the measured
per-term span totals are the exact clock decomposition PR 5's
attribution guarantees.  :func:`calibrate` refits the model's per-term
build coefficients against those totals; :func:`validate_top` executes
the search's top-N candidates and reports predicted vs measured, which
is how ``bench_autotune`` certifies the auto-chosen mapping against the
exhaustive measured optimum.

Table residency (``mapping.table == "paged"``) is measured by
substitution: the replicated-table build is measured as usual, then the
rank's dereference queries are replayed through both a replicated and a
:class:`~repro.chaos.PagedTranslationTable`, and the paged build time is
composed as ``build + (paged deref − replicated deref)`` — the paged
inspector *replaces* the local dereference with the collective round,
it does not add to it.
"""

from __future__ import annotations

import dataclasses

from repro.autotune.model import TERMS, Coefficients, CostModel, Prediction
from repro.autotune.search import SearchResult
from repro.autotune.workload import DistSpec, MappingPoint, WorkloadSpec

__all__ = [
    "MeasuredRun",
    "calibrate",
    "measure_mapping",
    "validate_top",
]


@dataclasses.dataclass(frozen=True)
class MeasuredRun:
    """Measured logical-time decomposition of one executed mapping."""

    mapping: MappingPoint
    #: schedule-build elapsed (max over ranks, seconds)
    build_s: float
    #: one timestep's data moves, elapsed (max over ranks, seconds)
    move_s: float
    #: build + reuse × move — same objective the search ranks by
    total_s: float
    #: per-term build totals, averaged over ranks (MetricsSnapshot.diff)
    build_terms: dict[str, float]
    #: per-term move totals, averaged over ranks
    move_terms: dict[str, float]
    #: per-rank final logical clocks of the move window (bit-exactness
    #: anchor for the property suite)
    move_clocks: tuple[float, ...]
    #: per-rank clocks at the start of the move window
    move_start_clocks: tuple[float, ...]

    def row(self) -> dict:
        return {
            "mapping": self.mapping.label(),
            "measured_total_ms": self.total_s * 1e3,
            "measured_build_ms": self.build_s * 1e3,
            "measured_move_ms": self.move_s * 1e3,
        }


def _make_array(comm, spec: DistSpec, n: int):
    """(lib name, array) for one side's distribution choice."""
    if spec.regular:
        from repro.hpf.array import HPFArray

        return "hpf", HPFArray.distribute(comm, (n,), (spec.hpf_spec(),))
    from repro.chaos import ChaosArray

    return "chaos", ChaosArray.zeros(comm, spec.owners(n, comm.size))


def _sors(workload: WorkloadSpec):
    from repro.core import mc_new_set_of_regions
    from repro.core.region import IndexRegion, SectionRegion
    from repro.distrib.section import Section

    n = workload.nelems
    if workload.pattern == "section":
        half = n // 2
        src = SectionRegion(Section((0,), (half,), (1,)))
        dst = SectionRegion(Section((n - half,), (n,), (1,)))
    else:
        src = SectionRegion(Section.full((n,)))
        if workload.pattern == "identity":
            dst = SectionRegion(Section.full((n,)))
        else:
            dst = IndexRegion(workload.dst_indices())
    return mc_new_set_of_regions(src), mc_new_set_of_regions(dst)


def _term_mean(snapshots) -> dict[str, float]:
    """Per-term totals averaged over the per-rank snapshot diffs."""
    out = {t: 0.0 for t in TERMS}
    for snap in snapshots:
        for term, seconds in snap.term_totals().items():
            if term in out:
                out[term] += seconds
    return {t: v / max(1, len(snapshots)) for t, v in out.items()}


def _paged_deref_delta(comm, workload: WorkloadSpec, mapping: MappingPoint):
    """Per-rank clock delta: paged dereference minus replicated, for this
    rank's slice of the destination queries (zero when no irregular side
    or the mapping keeps the table replicated)."""
    if mapping.table != "paged":
        return 0.0
    spec = mapping.dst if not mapping.dst.regular else mapping.src
    if spec.regular:
        return 0.0
    from repro.chaos import PagedTranslationTable, TranslationTable

    proc = comm.process
    owners = spec.owners(workload.nelems, comm.size)
    queries = workload.dst_indices()[comm.rank :: comm.size]
    t0 = proc.clock
    table = TranslationTable.from_owners(owners, comm.size)
    table.dereference(queries)
    t_repl = proc.clock - t0
    t1 = proc.clock
    paged = PagedTranslationTable(comm, owners)
    paged.dereference(queries)
    t_paged = proc.clock - t1
    return t_paged - t_repl


def measure_mapping(
    workload: WorkloadSpec, mapping: MappingPoint
) -> MeasuredRun:
    """Execute one mapped workload under observe=True and decompose it."""
    from repro.core import (
        mc_compute_plan,
        mc_compute_schedule,
        mc_copy,
        mc_copy_many,
    )
    from repro.vmachine import VirtualMachine

    k = workload.narrays
    fused = mapping.fusion > 1 and k > 1

    def spmd(comm):
        proc = comm.process
        src_lib, src0 = _make_array(comm, mapping.src, workload.nelems)
        dst_lib, dst0 = _make_array(comm, mapping.dst, workload.nelems)
        srcs = [src0] + [
            _make_array(comm, mapping.src, workload.nelems)[1]
            for _ in range(k - 1)
        ]
        dsts = [dst0] + [
            _make_array(comm, mapping.dst, workload.nelems)[1]
            for _ in range(k - 1)
        ]
        for i, a in enumerate(srcs):
            a.local[:] = comm.rank + i + 1.0
        src_sor, dst_sor = _sors(workload)
        comm.barrier()
        before = proc.metrics.snapshot()
        t0 = proc.clock
        sched = mc_compute_schedule(
            comm, src_lib, src0, src_sor, dst_lib, dst0, dst_sor,
            mapping.method, policy=mapping.policy,
        )
        table_delta = _paged_deref_delta(comm, workload, mapping)
        plan = mc_compute_plan([sched] * k) if fused else None
        mid = proc.metrics.snapshot()
        t1 = proc.clock
        for _ in range(workload.reuse):
            if fused:
                mc_copy_many(comm, plan, srcs, dsts, policy=mapping.policy)
            else:
                for a, b in zip(srcs, dsts):
                    mc_copy(comm, sched, a, b, policy=mapping.policy)
        t2 = proc.clock
        after = proc.metrics.snapshot()
        return {
            "build_s": (t1 - t0) + table_delta,
            "move_total_s": t2 - t1,
            "move_start": t1,
            "move_end": t2,
            "build_diff": mid.diff(before),
            "move_diff": after.diff(mid),
        }

    result = VirtualMachine(
        workload.nprocs, profile=workload.profile, observe=True
    ).run(spmd)
    rows = result.values
    build_s = max(r["build_s"] for r in rows)
    move_total = max(r["move_end"] - r["move_start"] for r in rows)
    move_s = move_total / workload.reuse
    return MeasuredRun(
        mapping=mapping,
        build_s=build_s,
        move_s=move_s,
        total_s=build_s + workload.reuse * move_s,
        build_terms=_term_mean([r["build_diff"] for r in rows]),
        move_terms=_term_mean([r["move_diff"] for r in rows]),
        move_clocks=tuple(r["move_end"] for r in rows),
        move_start_clocks=tuple(r["move_start"] for r in rows),
    )


def calibrate(
    workload: WorkloadSpec,
    candidates: list[MappingPoint],
    model: CostModel | None = None,
) -> CostModel:
    """Refit the build-tier coefficients from measured runs.

    Executes each candidate once, then fits one multiplier per cost term
    by ratio of sums — ``θ_t = Σ measured_t / Σ predicted_t`` — the
    least-squares solution for a single scale factor through the origin
    with uniform per-run weights.  Terms the candidates never exercise
    keep their prior coefficient.
    """
    model = model or CostModel(workload.profile)
    from repro.autotune.workload import pair_matrix, run_matrix

    measured_sum = {t: 0.0 for t in TERMS}
    predicted_sum = {t: 0.0 for t in TERMS}
    for mapping in candidates:
        run = measure_mapping(workload, mapping)
        counts = pair_matrix(workload, mapping.src, mapping.dst)
        runs = run_matrix(workload, mapping.src, mapping.dst)
        est = model.build_terms(workload, mapping, counts, runs)
        for t in TERMS:
            measured_sum[t] += run.build_terms.get(t, 0.0)
            predicted_sum[t] += est.get(t, 0.0)
    prior = model.coefficients.as_dict()
    fitted = {
        t: (measured_sum[t] / predicted_sum[t])
        if predicted_sum[t] > 0.0 and measured_sum[t] > 0.0
        else prior[t]
        for t in TERMS
    }
    return CostModel(model.profile, Coefficients(**fitted))


def validate_top(
    workload: WorkloadSpec,
    search: SearchResult,
    top: int = 3,
) -> list[tuple[Prediction, MeasuredRun]]:
    """Execute the search's top-N candidates; pair predicted with measured."""
    out = []
    for pred in search.ranked[:top]:
        out.append((pred, measure_mapping(workload, pred.mapping)))
    return out
