"""Analytical cost model of a mapped workload (predict before you run).

Two tiers of fidelity, deliberately separated:

**Exact tier — the data move.**  :meth:`CostModel.simulate_move` is a
discrete-event replay of the move executor (:mod:`repro.core.plan`)
that owns neither the order nor the price of a charge: each rank walks
the route the executor itself builds (:func:`repro.core.plan.traversal`
— local copies, sends, receives) and every duration comes from the
machine's :class:`repro.vmachine.cost_model.CostModel` (the charges of
MODEL.md §1).  Because every send of a move completes before any
receive of that move consumes it, arrival times are computable without
iteration, and the predicted per-rank clocks equal the measured logical
clocks **to the last bit**: the suite pins single, fused and sequential
multi-array moves, ORDERED and OVERLAP, on both machine profiles,
across methods, distributions and P.

**Approximate tier — schedule build and table residency.**
:meth:`CostModel.build_terms` composes per-term estimates
(``alpha``/``beta``/``occupancy``/``per_element`` — the observe
taxonomy, MODEL.md §10) for the COOPERATION and DUPLICATION builders and
for replicated vs paged translation tables.  These estimates carry a
:class:`Coefficients` vector of per-term multipliers that the
calibration path refits from measured span totals
(:meth:`~repro.observe.metrics.MetricsSnapshot.diff`), closing the
model↔measurement loop without ever claiming build-time bit-exactness.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autotune.workload import (
    DistSpec,
    MappingPoint,
    WorkloadSpec,
    pair_matrix,
    run_matrix,
)
from repro.core import plan
from repro.core.policy import ExecutorPolicy
from repro.core.wire import RUN_WIRE_BYTES
from repro.vmachine.cost_model import CostModel as MachineCost, MachineProfile

__all__ = ["Coefficients", "CostModel", "Prediction", "TERMS"]

#: the observe taxonomy subset the model composes (MODEL.md §10/§14)
TERMS = ("alpha", "beta", "occupancy", "per_element")

#: reuse steps simulated exactly before extrapolating the steady state.
#: Later moves of a reuse loop start from the skewed clocks earlier
#: moves left behind, so the per-step cost drifts for a few steps and
#: then converges; past the cap each rank advances by its converged
#: per-step delta.
CHAIN_CAP = 256


@dataclasses.dataclass(frozen=True)
class Coefficients:
    """Per-term multipliers for the *approximate* (build) tier.

    The exact move simulation never consults these — scaling a bit-exact
    prediction could only make it wrong.  Calibration refits them so the
    analytical build estimates track the measured ``schedule:build``
    span totals on the machine profile in use.
    """

    alpha: float = 1.0
    beta: float = 1.0
    occupancy: float = 1.0
    per_element: float = 1.0

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    def apply(self, terms: dict[str, float]) -> float:
        d = self.as_dict()
        return sum(d.get(t, 1.0) * v for t, v in terms.items())


@dataclasses.dataclass(frozen=True)
class Prediction:
    """One mapping point's predicted cost decomposition (seconds)."""

    mapping: MappingPoint
    #: elapsed logical seconds of one timestep's data moves, averaged
    #: over the reuse loop (exact tier, chained across steps)
    move_s: float
    #: analytical build estimate per cost term (approximate tier)
    build_terms: dict[str, float]
    #: coefficient-corrected build estimate
    build_s: float
    #: build + reuse × per-step moves — the ranking objective
    total_s: float
    #: per-term decomposition of the move (derived from the exact replay)
    move_terms: dict[str, float]

    def row(self) -> dict:
        """Flat JSON-friendly view for tables and benchmark records."""
        return {
            "mapping": self.mapping.label(),
            "predicted_total_ms": self.total_s * 1e3,
            "predicted_move_ms": self.move_s * 1e3,
            "predicted_build_ms": self.build_s * 1e3,
            "move_terms_ms": {t: v * 1e3 for t, v in self.move_terms.items()},
            "build_terms_ms": {t: v * 1e3 for t, v in self.build_terms.items()},
        }


class CostModel:
    """Predicts elapsed logical clock for (workload, mapping) pairs."""

    def __init__(
        self,
        profile: MachineProfile,
        coefficients: Coefficients | None = None,
    ):
        self.profile = profile
        self.cost = MachineCost(profile)
        self.coefficients = coefficients or Coefficients()

    # -- exact tier: the data move ----------------------------------------

    def simulate_move(
        self,
        counts: np.ndarray,
        itemsize: int,
        policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
        start_clocks: list[float] | None = None,
        segments: int = 1,
        fused: bool = False,
        terms: dict[str, float] | None = None,
    ) -> list[float]:
        """Replay one executed move; return the per-rank final clocks.

        ``counts[s, d]`` is the element count rank ``s`` sends rank
        ``d`` (diagonal = direct local copies).  ``segments`` is the
        number of same-shaped member schedules; ``fused=True`` models
        one :class:`~repro.core.plan.MovePlan` message per pair
        (``segments`` packed segments behind one header), ``fused=False``
        with ``segments > 1`` models the segments as *sequential*
        single-schedule moves.  ``terms`` (optional) accumulates the
        move's alpha/beta/occupancy/per_element decomposition — kept out
        of the clock arithmetic so the replay stays bit-exact.

        Each rank walks the executor's own route
        (:func:`~repro.core.plan.traversal`) and charges the machine's
        own durations (:class:`~repro.vmachine.cost_model.CostModel`),
        added to plain Python float clocks as the engine adds them.
        """
        counts = np.asarray(counts)
        P = counts.shape[0]
        if counts.shape != (P, P):
            raise ValueError(f"counts must be square, got {counts.shape}")
        clocks = [0.0] * P if start_clocks is None else list(start_clocks)
        if len(clocks) != P:
            raise ValueError(f"{len(clocks)} start clocks for {P} ranks")
        cost = self.cost
        contention = self.profile.contention_factor(P)
        latency = cost.post_injection_latency()
        note = (lambda t, v: None) if terms is None else (
            lambda t, v: terms.__setitem__(t, terms.get(t, 0.0) + v)
        )
        # Plain Python ints once, outside the hot loops: element-wise
        # numpy scalar reads dominate the replay's wall time at P=64.
        rows = counts.tolist()
        routes = [
            plan.traversal(
                policy, r, P, row[r],
                {d: n for d, n in enumerate(row) if n and d != r},
                [s for s in range(P) if s != r and rows[s][r]],
            )
            for r, row in enumerate(rows)
        ]
        nseg, moves = (segments, 1) if fused else (1, segments)
        for _ in range(moves):
            # Send half of every rank completes before any receive
            # consumes it (the executors send before they receive, and
            # the virtual transport buffers eagerly), so arrivals
            # resolve in one pass.
            arrivals: dict[tuple[int, int], float] = {}
            for r, route in enumerate(routes):
                c = clocks[r]
                if route.local:
                    pack = cost.pack(route.local)
                    for _ in range(nseg):
                        c = c + pack
                        note("per_element", pack)
                for d, n in route.dests:
                    pack = cost.pack(n)
                    for _ in range(nseg):
                        c = c + pack
                        note("per_element", pack)
                    nbytes = plan.wire_nbytes((n * itemsize,) * nseg)
                    before = c
                    c = c + cost.send_occupancy(nbytes, contention)
                    beta, occupancy = cost.split_injection(
                        c - before, nbytes, contention
                    )
                    note("beta", beta)
                    note("occupancy", occupancy)
                    arrivals[r, d] = c + latency
                clocks[r] = c
            for r, route in enumerate(routes):
                c = clocks[r]
                for s in route.completion(lambda s: arrivals[s, r]):
                    a = arrivals[s, r]
                    if a > c:
                        note("alpha", a - c)
                        c = a
                    n = rows[s][r]
                    drain = cost.recv_overhead(
                        plan.wire_nbytes((n * itemsize,) * nseg)
                    )
                    c = c + drain
                    note("occupancy", drain)
                    pack = cost.pack(n)
                    for _ in range(nseg):
                        c = c + pack
                        note("per_element", pack)
                clocks[r] = c
        return clocks

    # -- approximate tier: schedule build + table residency ----------------

    def build_terms(
        self,
        workload: WorkloadSpec,
        mapping: MappingPoint,
        counts: np.ndarray,
        runs: np.ndarray,
    ) -> dict[str, float]:
        """Per-term analytical estimate of one schedule build (seconds).

        Composes the observe taxonomy from the builder's structure:
        startup + descriptor/piece exchanges (``alpha``/``occupancy``),
        run-encoded schedule pieces on the wire (``beta``), and the
        dereference/locate work that dominates Chaos-style inspectors
        (``per_element``; paper §5.1).  Honest about its tier: these are
        rate×volume estimates, refit by calibration, never bit-exact.
        """
        p = self.profile
        P = workload.nprocs
        n_per = workload.nelems / P
        runs_per = float(runs.sum()) / P
        off_diag = counts.copy()
        np.fill_diagonal(off_diag, 0)
        peers = float((off_diag > 0).sum()) / P  # active peers per rank
        terms = {t: 0.0 for t in TERMS}
        terms["occupancy"] += p.startup

        def deref_side(spec: DistSpec, nelem: float) -> None:
            if spec.regular:
                terms["per_element"] += (
                    runs_per * p.locate_run + nelem * p.locate_elem
                )
                return
            terms["per_element"] += nelem * p.deref + nelem * p.hash_ref
            if mapping.table == "paged":
                # One batched request/reply round: 16-byte entries both
                # ways plus the collective's message overheads.
                terms["alpha"] += 2 * p.alpha
                terms["beta"] += 2 * 16 * nelem / p.bandwidth
                terms["occupancy"] += 2 * peers * (p.o_send + p.o_recv)

        if mapping.method.name == "COOPERATION":
            # Each side dereferences its own elements, then the pieces of
            # the schedule are distributed to their executing ranks.
            deref_side(mapping.src, n_per)
            deref_side(mapping.dst, n_per)
            terms["alpha"] += 2 * p.alpha
            terms["occupancy"] += 2 * peers * (p.o_send + p.o_recv)
            piece_bytes = runs_per * RUN_WIRE_BYTES
            terms["beta"] += 2 * piece_bytes / p.bandwidth
        else:  # DUPLICATION: exchange descriptors, dereference both locally
            descriptor_bytes = 0.0
            for spec in (mapping.src, mapping.dst):
                if spec.regular:
                    descriptor_bytes += 64.0
                else:
                    # A replicated translation table travels whole: the
                    # paper's practicality caveat made quantitative.
                    descriptor_bytes += 16.0 * workload.nelems
            terms["alpha"] += 2 * p.alpha
            terms["occupancy"] += 2 * (p.o_send + p.o_recv)
            terms["beta"] += descriptor_bytes / p.bandwidth
            deref_side(mapping.src, 2 * n_per)
            deref_side(mapping.dst, 2 * n_per)
        return terms

    def simulate_reuse(
        self,
        counts: np.ndarray,
        itemsize: int,
        policy: ExecutorPolicy,
        reuse: int,
        segments: int = 1,
        fused: bool = False,
        terms: dict[str, float] | None = None,
    ) -> float:
        """Elapsed clock of the whole reuse loop (max over ranks).

        One cold-start move costs less than the steady state: later
        steps start from the skewed clocks earlier steps left behind,
        and inside a tight candidate band that drift decides rankings.
        The chain replays steps exactly (each step's end clocks feed
        the next step's start) until the per-rank per-step deltas
        converge — the skew saturates within a few steps — then
        extrapolates the remainder with the steady-state delta
        (:data:`CHAIN_CAP` bounds the exact prefix either way).
        """
        clocks = self.simulate_move(
            counts, itemsize, policy, segments=segments, fused=fused,
            terms=terms,
        )
        steps = min(reuse, CHAIN_CAP)
        done = 1
        delta = list(clocks)
        step_terms: dict[str, float] = dict(terms) if terms else {}
        while done < steps:
            prev = list(clocks)
            before = dict(terms) if terms is not None else None
            clocks = self.simulate_move(
                counts, itemsize, policy, start_clocks=clocks,
                segments=segments, fused=fused, terms=terms,
            )
            if terms is not None:
                step_terms = {
                    t: v - before.get(t, 0.0) for t, v in terms.items()
                }
            new_delta = [c - p for c, p in zip(clocks, prev)]
            done += 1
            converged = all(
                abs(d - nd) <= 1e-12 * max(abs(nd), 1e-30)
                for d, nd in zip(delta, new_delta)
            )
            delta = new_delta
            if converged:
                break
        if reuse > done:
            tail = reuse - done
            clocks = [c + tail * d for c, d in zip(clocks, delta)]
            if terms is not None:
                for t, v in step_terms.items():
                    terms[t] = terms.get(t, 0.0) + tail * v
        return max(clocks)

    # -- composition --------------------------------------------------------

    def predict(
        self,
        workload: WorkloadSpec,
        mapping: MappingPoint,
        move: tuple[float, dict[str, float]] | None = None,
    ) -> Prediction:
        """Full prediction: exact chained moves + corrected build.

        ``move`` optionally supplies a precomputed ``(move_total,
        move_terms)`` pair from :meth:`simulate_reuse` — the search
        shares one replay across candidates with the same
        (distributions, policy, fusion) instead of re-chaining here.
        """
        counts = pair_matrix(workload, mapping.src, mapping.dst)
        runs = run_matrix(workload, mapping.src, mapping.dst)
        k = workload.narrays
        fused = mapping.fusion > 1 and k > 1
        if move is None:
            move_terms: dict[str, float] = {}
            move_total = self.simulate_reuse(
                counts, workload.itemsize, mapping.policy, workload.reuse,
                segments=k, fused=fused, terms=move_terms,
            )
        else:
            move_total, move_terms = move[0], dict(move[1])
        move_s = move_total / workload.reuse
        build = self.build_terms(workload, mapping, counts, runs)
        build_s = self.coefficients.apply(build)
        total = build_s + move_total
        return Prediction(
            mapping=mapping,
            move_s=move_s,
            build_terms=build,
            build_s=build_s,
            total_s=total,
            move_terms=move_terms,
        )
