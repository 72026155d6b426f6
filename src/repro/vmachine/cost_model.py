"""Analytical cost model for the virtual parallel machine.

The model is LogGP-flavoured.  Each rank owns a logical clock (seconds).
Primitive charges:

``send``
    Sender pays a fixed CPU overhead ``o_send`` per message.  The message
    *arrives* at ``sender_clock + alpha + nbytes / bandwidth`` — latency plus
    serialization of the payload on the wire.

``recv``
    Receiver pays ``o_recv`` after the arrival time.

``compute``
    Per-element work: floating point (``gamma_flop``), memory traffic for
    packing/copying (``gamma_byte``), and the translation-table dereference
    cost ``deref`` that dominates Chaos-style schedule building (paper
    section 5.1: "The cost of the schedule computation for Chaos is
    dominated by the calls to the Chaos dereference function").

Machine profiles calibrate the constants so that the logical-clock results
land in the same regime as the paper's tables.  Absolute agreement is not a
goal (the paper measured real 1996 hardware); *shape* agreement is — who
wins, scaling with processor count, cooperation-vs-duplication ratios.

Profiles
--------
:data:`IBM_SP2`
    The 16-node SP2 used for Tables 1-5 (MPL transport, high per-element
    dereference cost on POWER2 CPUs, ~35 MB/s sustained point-to-point).

:data:`ALPHA_FARM_ATM`
    The 8-node, 4-way SMP DEC Alpha farm connected via OC-3 ATM used for the
    client/server experiments (Figures 10-15).  The ATM link is shared by
    the processes of one node, so this profile carries a per-node link
    contention factor.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["MachineProfile", "CostModel", "IBM_SP2", "ALPHA_FARM_ATM"]


@dataclasses.dataclass(frozen=True)
class MachineProfile:
    """Primitive rates of one machine configuration.

    All times are in seconds; ``bandwidth`` is bytes/second.
    """

    name: str
    #: per-message wire latency (seconds)
    alpha: float
    #: point-to-point bandwidth (bytes/second)
    bandwidth: float
    #: per-message sender CPU overhead
    o_send: float
    #: per-message receiver CPU overhead
    o_recv: float
    #: per floating-point operation
    gamma_flop: float
    #: per byte of local memory traffic (packing, copying, unpacking)
    gamma_byte: float
    #: per-element dereference through a Chaos-style translation table
    deref: float
    #: per-reference hashing/deduplication cost in Chaos-style inspectors
    hash_ref: float
    #: per-element cost of a regular (closed-form) distribution dereference
    deref_regular: float
    #: per-element cost of gather/scatter through an offset list (pack,
    #: unpack, indirection-array access) — dominates data-copy time
    pack_per_elem: float
    #: per-run cost of closed-form section/block intersection (the cheap
    #: "locate my elements" path of the regular libraries)
    locate_run: float
    #: per-element bookkeeping while expanding located runs
    locate_elem: float
    #: fixed cost of starting any schedule/collective operation
    startup: float
    #: processors per SMP node (for link-contention modelling); 1 = no SMP
    procs_per_node: int = 1
    #: if true, processes on one node share the node's network link
    shared_node_link: bool = False

    def contention_factor(self, nprocs: int) -> float:
        """Bandwidth-division factor for ``nprocs`` processes on this machine.

        On the Alpha farm, up to four processes share each node's single ATM
        adapter, so effective per-process bandwidth shrinks once more than
        one process is placed per node.  On the SP2 each CPU owns its switch
        adapter and there is no sharing.
        """
        if not self.shared_node_link or nprocs <= 0:
            return 1.0
        per_node = math.ceil(nprocs / max(1, math.ceil(nprocs / self.procs_per_node)))
        return float(max(1, per_node))


# Calibrated so Tables 1-5 land in the paper's regime (hundreds of ms for
# 64k-point schedule builds, tens of ms for megabyte-scale copies).
IBM_SP2 = MachineProfile(
    name="IBM-SP2/MPL",
    alpha=40e-6,
    bandwidth=35e6,
    o_send=30e-6,
    o_recv=30e-6,
    gamma_flop=15e-9,
    gamma_byte=9e-9,
    deref=30e-6,
    hash_ref=1.5e-6,
    deref_regular=50e-9,
    pack_per_elem=350e-9,
    locate_run=2e-6,
    locate_elem=10e-9,
    startup=250e-6,
)

ALPHA_FARM_ATM = MachineProfile(
    name="DEC-Alpha-farm/ATM",
    alpha=400e-6,
    bandwidth=14e6,
    o_send=80e-6,
    o_recv=80e-6,
    # Scalar Fortran/HPF-compiled flop rate (~6 Mflop/s): calibrated so a
    # sequential 512x512 matvec costs ~90 ms, which reproduces both the
    # ~4.5x twenty-vector server speedup (Fig. 13) and the ~2-vector
    # break-even (Fig. 15).
    gamma_flop=170e-9,
    gamma_byte=6e-9,
    deref=20e-6,
    hash_ref=1.0e-6,
    deref_regular=40e-9,
    pack_per_elem=250e-9,
    locate_run=2e-6,
    locate_elem=8e-9,
    startup=600e-6,
    procs_per_node=4,
    shared_node_link=True,
)


class CostModel:
    """Stateless charge calculator bound to a :class:`MachineProfile`.

    The :class:`~repro.vmachine.process.Process` applies the returned charges
    to its logical clock; this class only computes durations, which keeps the
    model easy to unit-test in isolation.
    """

    def __init__(self, profile: MachineProfile):
        self.profile = profile

    # -- messaging ---------------------------------------------------------
    #
    # LogGP split: the sender is *occupied* for o_send plus the payload's
    # link-injection time (nbytes/bandwidth, scaled by node-link
    # contention) — a one-process client really does serialize a 2 MB
    # matrix through its own adapter.  The message then arrives one wire
    # latency after injection completes; the receiver pays o_recv plus a
    # small per-byte drain.

    def send_occupancy(self, nbytes: int, contention: float = 1.0) -> float:
        """Sender-side time to inject one message into the network."""
        p = self.profile
        return p.o_send + contention * nbytes / p.bandwidth

    def split_injection(
        self, delta: float, nbytes: int, contention: float = 1.0,
        slowdown: float = 1.0,
    ) -> tuple[float, float]:
        """``(beta, occupancy)`` of an injection that moved a clock by
        ``delta``: the wire serialization (``nbytes / bandwidth``, capped
        at ``delta``) and the rest, so the two sum to ``delta`` exactly."""
        beta = min(delta, contention * nbytes / self.profile.bandwidth * slowdown)
        return beta, delta - beta

    def post_injection_latency(self) -> float:
        """Wire latency from injection completion to availability."""
        return self.profile.alpha

    def recv_overhead(self, nbytes: int) -> float:
        """CPU time the receiver spends draining one message."""
        p = self.profile
        return p.o_recv + nbytes * p.gamma_byte * 0.25

    # -- local work --------------------------------------------------------

    def flops(self, n: float) -> float:
        """Time for ``n`` floating point operations."""
        return n * self.profile.gamma_flop

    def mem(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` through memory (pack/unpack/copy)."""
        return nbytes * self.profile.gamma_byte

    def deref_irregular(self, nelems: float) -> float:
        """Time for ``nelems`` translation-table dereferences (Chaos-style)."""
        return nelems * self.profile.deref

    def deref_regular(self, nelems: float) -> float:
        """Time for ``nelems`` closed-form (block arithmetic) dereferences."""
        return nelems * self.profile.deref_regular

    def hash_refs(self, nrefs: float) -> float:
        """Time to hash/deduplicate ``nrefs`` indirection references."""
        return nrefs * self.profile.hash_ref

    def pack(self, nelems: float) -> float:
        """Time to gather/scatter ``nelems`` elements through an offset list."""
        return nelems * self.profile.pack_per_elem

    def locate(self, nruns: float, nelems: float) -> float:
        """Time to locate locally-owned elements via closed-form
        intersection producing ``nruns`` runs over ``nelems`` elements."""
        return nruns * self.profile.locate_run + nelems * self.profile.locate_elem

    def startup(self) -> float:
        """Fixed cost charged at the start of a schedule/collective op."""
        return self.profile.startup
