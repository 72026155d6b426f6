"""Where the two sides of a copy live: one program or two (§5.1-5.2).

Meta-Chaos moves data between a *source group* of processors (owning the
source data structure) and a *destination group* (owning the destination).
In the single-program case (paper Figure 2) the two groups are the same
processors; in the two-program case (Figure 3) they are disjoint programs
connected by an inter-communicator.

A :class:`Universe` is the two endpoints a processor reaches those groups
through — :attr:`~Universe.to_src` and :attr:`~Universe.to_dst`, each the
program's own communicator toward its own group or the inter-communicator
toward the peer's — plus group sizes and role membership.  The schedule
builder and the move executor address ``universe.to_dst.send(d, ...)`` /
``universe.to_src.arrivals(...)`` by group rank and never ask which kind
of endpoint they hold.

A universe also owns the (optional) reliable-delivery protocol instance
for its data plane: :meth:`Universe.enable_reliability` attaches a
:class:`~repro.vmachine.reliability.Reliability` layer, after which
:meth:`Universe.data_plane` hands the move executor an endpoint's
reliable view instead of the endpoint, while schedule construction stays
on the bare transport (mirroring the paper's Alpha-farm split of a
reliable control path and a UDP data path).  The instance is shared with
the :meth:`Universe.reversed` view, so sequence numbers — and therefore
duplicate suppression — persist across the two directions of a coupled
exchange.
"""

from __future__ import annotations

from repro.vmachine.comm import Communicator, InterComm
from repro.vmachine.process import Process
from repro.vmachine.reliability import Reliability
# Reserved tags for Meta-Chaos traffic (outside user tag space), re-exported
# for the schedule builder and the move executor.
from repro.vmachine.tags import (  # noqa: F401
    TAG_DATA,
    TAG_DESCRIPTOR,
    TAG_SCHED_PIECES,
    TAG_SCHED_SRCINFO,
)

__all__ = ["Universe", "SingleProgramUniverse", "TwoProgramUniverse"]


class Universe:
    """Topology of one source-group/destination-group pairing: the two
    endpoints this processor reaches the groups through, their sizes and
    its own membership.  Constructed as a :class:`SingleProgramUniverse`
    or a :class:`TwoProgramUniverse`.
    """

    #: opt-in reliable-delivery protocol for the data plane (None = bare
    #: transport; see :meth:`enable_reliability`)
    reliability: Reliability | None = None
    #: peer program name, stashed by :func:`repro.core.coupling.
    #: coupled_universe` for failure diagnostics
    peer_program: str | None = None

    def __init__(self, comm: Communicator, to_src, to_dst,
                 src_size: int, dst_size: int):
        #: this program's own communicator, and the calling rank's process
        self.comm = comm
        self.process: Process = comm.process
        #: the endpoint carrying this processor's traffic to/from the
        #: source / destination group, addressed by group rank: ``comm``
        #: toward the program's own group, the inter-communicator toward
        #: the peer's
        self.to_src = to_src
        self.to_dst = to_dst
        #: number of processors in the source / destination groups
        self.src_size = src_size
        self.dst_size = dst_size
        #: this processor's rank within each group (None if not a member)
        self.my_src_rank = comm.rank if to_src is comm else None
        self.my_dst_rank = comm.rank if to_dst is comm else None
        #: True when both groups are the same program's processors
        self.single_program = to_src is to_dst

    # -- reliable data plane --------------------------------------------------

    def enable_reliability(self) -> Reliability:
        """Attach (or return the existing) reliable-delivery layer.

        Once enabled, :func:`~repro.core.datamove.data_move` and friends
        route every ``TAG_DATA`` payload through the sequence-numbered
        ack/retransmit protocol; schedule-construction traffic keeps using
        the bare transport.  Idempotent: a second call returns the same
        instance.
        """
        if self.reliability is None:
            self.reliability = Reliability()
        return self.reliability

    def data_plane(self, endpoint):
        """``endpoint`` (:attr:`to_src` or :attr:`to_dst`) as the move
        executor uses it: the endpoint itself, or — once reliability is
        enabled — its reliable view, with the same ``send``/``recv``/
        ``arrivals``."""
        rel = self.reliability
        return endpoint if rel is None else rel.over(endpoint)

    def end_phase(self, fence: bool = True) -> None:
        """Close a data-plane phase (no-op when reliability is disabled):
        block until all reliably sent data is acknowledged, or — ``fence``
        false — only release held-back packets.  See :meth:`~repro.
        vmachine.reliability.Reliability.fence` for failure semantics."""
        rel = self.reliability
        if rel is not None:
            if fence:
                rel.fence()
            else:
                rel.flush()

    # -- same-physical-processor tests -----------------------------------------

    def same_proc_dst(self, d: int) -> bool:
        """Is destination-group rank ``d`` this very processor?"""
        return self.single_program and self.my_src_rank == d

    def same_proc_src(self, s: int) -> bool:
        """Is source-group rank ``s`` this very processor?"""
        return self.single_program and self.my_dst_rank == s

    def reversed(self) -> "Universe":
        """The same topology with source and destination roles swapped.
        One program is its own reverse; :class:`TwoProgramUniverse`
        builds the complementary view."""
        return self


class SingleProgramUniverse(Universe):
    """Both data structures live in one SPMD program (paper Figure 2)."""

    def __init__(self, comm: Communicator):
        super().__init__(comm, comm, comm, comm.size, comm.size)


class TwoProgramUniverse(Universe):
    """Source and destination live in two coupled programs (Figure 3).

    Each side constructs its own view: ``role`` names which group *this*
    program plays.  The peer program must construct the complementary
    view with the same ``intercomm`` pairing.
    """

    def __init__(self, comm: Communicator, intercomm: InterComm, role: str):
        if role not in ("src", "dst"):
            raise ValueError("role must be 'src' or 'dst'")
        self.intercomm = intercomm
        self.role = role
        if role == "src":
            super().__init__(comm, comm, intercomm,
                             comm.size, intercomm.remote_size)
        else:
            super().__init__(comm, intercomm, comm,
                             intercomm.remote_size, comm.size)

    def reversed(self) -> "TwoProgramUniverse":
        rev = TwoProgramUniverse(
            self.comm, self.intercomm, "dst" if self.role == "src" else "src"
        )
        # The reversed view shares the reliable-delivery protocol instance:
        # sequence numbers must persist across push/pull directions for
        # duplicate suppression to work across retransmissions.
        rev.reliability = self.reliability
        rev.peer_program = self.peer_program
        return rev
