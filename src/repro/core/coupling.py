"""Coupling helpers for separate-program Meta-Chaos (§5.2, §5.4).

Convenience layer over :class:`~repro.core.universe.TwoProgramUniverse`:
build the universe from a :class:`~repro.vmachine.program.ProgramContext`,
align two programs' clocks at a phase boundary (:func:`sync_programs`),
and drive repeated bidirectional exchanges with one symmetric schedule —
"the communication schedule is also symmetric ... the only change required
would be to switch the calls to MC_DataMoveSend and MC_DataMoveRecv
between the programs" (§4.3).  Applications exchanging several fields per
timestep use :meth:`CoupledExchange.push_many` / :meth:`CoupledExchange.
pull_many`, which fuse the k per-field messages of each processor pair
into one.  All four methods are one :func:`exchange` over the schedule's
memoised :class:`~repro.core.plan.MovePlan` per (field count, direction)
(:func:`~repro.core.plan.plan_of`); a one-field plan travels the bare
wire, so ``push(a)`` and ``push_many([a])`` are the same move.  The
multi-tenant service runs its rounds' fused plans through the same
:func:`exchange`.

Graceful peer-failure degradation: a :class:`CoupledExchange` constructed
with ``deadline_s`` bounds every push/pull (and the reliable layer's
fence) by that wall-clock deadline.  If the peer program crashes — or
simply stops answering — the exchange raises
:class:`~repro.vmachine.faults.PeerLostError` *naming the peer program*
within the deadline instead of hanging, upgrading the transport-level
:class:`~repro.vmachine.faults.RankLostError` / ``TimeoutError`` with the
coupling-level context (which peer, which direction, undelivered
envelopes, last-ack state).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.plan import MovePlan, plan_move_recv, plan_move_send, plan_of
from repro.core.policy import ExecutorPolicy
from repro.core.schedule import CommSchedule
from repro.core.universe import TwoProgramUniverse, Universe
from repro.vmachine.faults import PeerLostError, RankLostError
from repro.vmachine.program import ProgramContext

__all__ = ["coupled_universe", "sync_programs", "guard_peer", "exchange",
           "CoupledExchange"]

_TAG_SYNC = (1 << 21) + 7


def sync_programs(ctx: ProgramContext, peer: str) -> None:
    """Align this program's logical clocks with program ``peer``'s at a
    phase boundary (collective over both programs).

    Without it, the faster program's next phase absorbs the other
    program's unrelated preceding work as blocked-receive wait, so a
    per-phase breakdown would charge one phase for another's cost (the
    paper measures each component separately).  Rank 0s exchange a
    token; the intra-program barriers propagate the aligned clock.
    """
    ic = ctx.peer(peer)
    ctx.comm.barrier()
    if ctx.rank == 0:
        ic.send(0, None, _TAG_SYNC)
        ic.recv(0, _TAG_SYNC)
    ctx.comm.barrier()


def coupled_universe(
    ctx: ProgramContext, peer: str, role: str
) -> TwoProgramUniverse:
    """Universe for a copy between this program and program ``peer``.

    ``role`` is this program's part: ``"src"`` if it owns the source data
    structure of the schedule about to be built, ``"dst"`` otherwise.
    The peer program's name is stashed on the universe so failure
    reports can say *which program* was lost, not just which rank.
    """
    universe = TwoProgramUniverse(ctx.comm, ctx.peer(peer), role)
    universe.peer_program = peer
    return universe


def guard_peer(universe: Universe, direction: str, fn, *args, **kwargs):
    """Run one coupled phase, upgrading transport-level failures
    (:class:`~repro.vmachine.faults.RankLostError`, ``TimeoutError``) to
    :class:`~repro.vmachine.faults.PeerLostError` naming the peer program
    — a coupled program must learn *which program* died (which
    direction, undelivered envelopes, last-ack state), and must learn it
    within the deadline instead of hanging."""
    try:
        return fn(*args, **kwargs)
    except PeerLostError:
        raise
    except (RankLostError, TimeoutError) as exc:
        raise peer_lost(universe, exc, direction) from exc


def peer_lost(
    universe: Universe, exc: BaseException, direction: str
) -> PeerLostError:
    """The :class:`~repro.vmachine.faults.PeerLostError` for ``exc``.  A
    time-out's text is the ``TimeoutError``'s own, which names the budget
    that actually bounded the wait (a ``timeout=`` or the process receive
    time-out)."""
    proc = universe.process
    if isinstance(exc, RankLostError):
        return PeerLostError(
            exc.rank,
            exc.lost_rank,
            f"{direction}: {exc.reason}",
            peer_program=universe.peer_program,
            pending=exc.pending,
            last_ack=exc.last_ack,
        )
    rel = universe.reliability
    return PeerLostError(
        proc.rank,
        -1,
        f"{direction}: {exc}",
        peer_program=universe.peer_program,
        pending=proc.mailbox.pending_summary(),
        last_ack=rel.describe() if rel is not None else None,
    )


def exchange(
    plan: MovePlan,
    arrays: Sequence[Any],
    universe: TwoProgramUniverse,
    reverse: bool,
    policy: ExecutorPolicy | str,
    deadline_s: float | None = None,
) -> None:
    """Run ``plan`` forward (push) or, with ``reverse``, over the reversed
    universe (pull; the plan must fuse the reversed schedules): the
    program that owns the direction's source sends, its peer receives,
    each wait of either half bounded by ``deadline_s``, else by the
    process receive time-out (:func:`guard_peer`)."""
    if reverse:
        universe = universe.reversed()
    sending = universe.my_src_rank is not None
    direction = (
        f"{'pull' if reverse else 'push'} "
        f"({'send' if sending else 'receive'} half)"
    )
    if sending:
        guard_peer(universe, direction, plan_move_send, plan,
                   arrays, universe, policy=policy, timeout=deadline_s)
    else:
        guard_peer(universe, direction, plan_move_recv, plan,
                   arrays, universe, policy=policy, timeout=deadline_s)


class CoupledExchange:
    """A reusable bidirectional exchange over one symmetric schedule.

    Constructed on both programs with the same schedule (each side holds
    its own halves).  ``push`` moves data in the schedule's forward
    direction, ``pull`` in reverse; each side calls the method with its
    own local array and the object works out whether to send or receive.

    Parameters
    ----------
    deadline_s:
        Wall-clock bound for each wait of a push/pull (a receive, the
        reliable fence's ack wait); when it expires (or the
        peer is detected dead) the exchange raises
        :class:`~repro.vmachine.faults.PeerLostError` naming the peer
        program.  ``None`` (default) uses the per-process receive
        timeout.
    reliability:
        Opt-in reliable delivery for the exchanged data
        (:meth:`~repro.core.universe.Universe.enable_reliability`).
        Attached to the universe, so both directions of the exchange use
        one protocol instance.
    """

    def __init__(
        self,
        universe: TwoProgramUniverse,
        schedule: CommSchedule,
        policy: ExecutorPolicy | str = ExecutorPolicy.ORDERED,
        deadline_s: float | None = None,
        reliability: bool = False,
    ):
        self.universe = universe
        self.schedule = schedule
        #: executor policy applied to every push/pull on this exchange.
        #: ``"auto"`` stays symbolic here and is resolved by the executor
        #: per direction, from the plan each call actually runs: OVERLAP
        #: when this rank completes receives from more than one remote
        #: peer *in that direction*, ORDERED otherwise.  Per-rank
        #: divergence is safe — policy never affects placement, only
        #: local ordering.
        self.policy = policy
        #: wall-clock budget per exchange before declaring the peer lost
        self.deadline_s = deadline_s
        if reliability:
            universe.enable_reliability()

    def _exchange(self, arrays: Sequence[Any], reverse: bool) -> None:
        """Move ``arrays`` forward (push) or in reverse (pull) over k
        copies of the exchange schedule (or of its reverse) — the plan
        :func:`~repro.core.plan.plan_of` memoises on the schedule, so a
        timestep loop exchanging the same k fields compiles it once."""
        exchange(
            plan_of(self.schedule, len(arrays), reverse), arrays,
            self.universe, reverse, self.policy, self.deadline_s,
        )

    def push(self, local_array: Any) -> None:
        """Forward copy: source program sends, destination receives.

        Raises :class:`~repro.vmachine.faults.PeerLostError` within the
        deadline when the peer program has failed.
        """
        self._exchange((local_array,), False)

    def pull(self, local_array: Any) -> None:
        """Reverse copy along the same (symmetric) schedule."""
        self._exchange((local_array,), True)

    def push_many(self, local_arrays: Sequence[Any]) -> None:
        """Forward copy of several fields in one fused message per pair.

        Equivalent to ``for a in local_arrays: push(a)`` — identical
        destination bytes — but each processor pair exchanges one fused
        message instead of ``len(local_arrays)``, saving the per-message
        latency k-1 times per pair and per timestep.  Both programs must
        pass the same number of arrays, in the same order.
        """
        self._exchange(local_arrays, False)

    def pull_many(self, local_arrays: Sequence[Any]) -> None:
        """Reverse fused copy of several fields (symmetric schedule)."""
        self._exchange(local_arrays, True)
