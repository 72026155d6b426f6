"""Runtime hook: resolve ``policy="auto"`` from a schedule or plan.

The full mapper (:func:`~repro.autotune.search.search_mapping`) decides
distributions before arrays exist — a host-side planning step.  But one
axis of the mapping space is still open *after* the schedule is built:
the executor policy.  :func:`choose_policy` closes it per rank from the
schedule's own stats, and :func:`resolve_policy` is the tiny shim the
move executor (:mod:`repro.core.plan`) calls with every ``policy=``
argument, so ``mc_copy`` / ``mc_copy_many`` / ``CoupledExchange`` / the
service resolve ``"auto"`` in one place, per rank and per direction,
from the plan actually executed.

The decision is the cost model's, collapsed to its closed form: ORDERED
and OVERLAP charge identical pack/injection/drain totals, and differ
only in the ``alpha`` waits — rotated injection staggers arrivals and
wait-any completion consumes them in arrival order, so OVERLAP's
predicted elapsed is never above ORDERED's, strictly below as soon as a
rank completes receives from more than one peer.  With at most one
active receive peer the two executors issue byte-identical charge
sequences, and ORDERED (the paper-faithful, byte-guarded default) wins
the tie.  Per-rank divergence is safe: policy affects only local
ordering, never placement (the OVERLAP≡ORDERED destination-equality
property tests pin this).
"""

from __future__ import annotations

from typing import Any

from repro.core.policy import ExecutorPolicy

__all__ = ["choose_policy", "resolve_policy"]


def choose_policy(
    schedule_or_plan: Any, my_rank: int | None = None
) -> ExecutorPolicy:
    """Model-driven executor policy for an already-built schedule/plan.

    OVERLAP exactly when this rank completes receives from more than one
    remote peer (the regime where arrival-order completion hides
    latency); ORDERED — the byte-guarded paper default — otherwise,
    including the degenerate all-local and single-peer cases where both
    executors produce identical charge sequences.

    Accepts a schedule (peers with a nonempty receive half), a MovePlan
    (one message per ``recv_programs`` entry), or — what the move
    executor passes — the plain list of source ranks it is about to
    receive from.  ``my_rank`` excludes this rank's own direct-local-copy
    entry from a schedule or plan of a *single-program* move; leave it
    ``None`` for the executor's list (already remote-only) and across two
    programs, where every source rank is remote.
    """
    recvs = getattr(schedule_or_plan, "recvs", None)
    if recvs is not None:
        peers = [s for s, off in recvs.items() if len(off) > 0]
    else:
        peers = getattr(schedule_or_plan, "recv_programs", schedule_or_plan)
    active = sum(1 for s in peers if s != my_rank)
    return ExecutorPolicy.OVERLAP if active > 1 else ExecutorPolicy.ORDERED


def resolve_policy(
    policy: "ExecutorPolicy | str",
    schedule_or_plan: Any,
    my_rank: int | None = None,
) -> ExecutorPolicy:
    """Coerce a policy argument, resolving the string ``"auto"`` — the
    one resolver behind every ``policy=`` parameter (the move executor
    in :mod:`repro.core.plan` calls it with its active-source list)."""
    if isinstance(policy, str) and policy.lower() == "auto":
        return choose_policy(schedule_or_plan, my_rank)
    return ExecutorPolicy.coerce(policy)
