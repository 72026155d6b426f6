"""Virtual distributed-memory parallel machine.

This subpackage is the hardware/transport substrate for the reproduction.
The paper ran on a 16-node IBM SP2 (MPL message passing) and an 8-node DEC
Alpha farm connected by an ATM switch (PVM / UDP).  Neither is available, so
we substitute a *virtual machine*: every virtual processor ("rank") runs the
SPMD program in its own thread with a private address space, exchanging data
only through an explicit message-passing :class:`Communicator`.

Times reported by the virtual machine are **logical-clock** times: each rank
carries a clock that advances according to a LogGP-style analytical cost
model (:mod:`repro.vmachine.cost_model`).  A message sent at sender-clock
``t`` with ``n`` payload bytes becomes available to the receiver at
``t + alpha + n/bandwidth``; local work charges per-element/per-byte costs.
This makes the reported times deterministic and hardware independent while
preserving exactly the quantities the paper's evaluation depends on:
message counts, message sizes and per-element processing work.

The transport is perfectly reliable by default.  A seeded
:class:`FaultPlan` (``VirtualMachine(faults=...)``) turns it into the
paper's Alpha-farm UDP fabric — dropping, duplicating, reordering,
delaying and corrupting messages deterministically — and the opt-in
:class:`Reliability` layer implements the ack/retransmit protocol that
makes data moves correct on top of it, with every control message charged
by the same cost model.
"""

from repro.vmachine.cost_model import CostModel, MachineProfile, IBM_SP2, ALPHA_FARM_ATM
from repro.vmachine.message import Message, Mailbox, ANY_SOURCE, ANY_TAG
from repro.vmachine.payload import payload_nbytes
from repro.vmachine.process import Process, current_process, default_recv_timeout_s
from repro.vmachine.comm import Communicator, InterComm, Request, waitall, waitany
from repro.vmachine.machine import VirtualMachine, RankError, SPMDError
from repro.vmachine.program import ProgramSpec, run_programs, CoupledResult
from repro.vmachine.timing import PhaseTimer, TimingReport, merge_timings
from repro.vmachine.trace import (
    MESSAGE_KINDS,
    TraceEvent,
    format_tag,
    format_timeline,
    message_matrix,
    rank_activity,
)
from repro.vmachine.faults import (
    CrashEvent,
    DeliveryReceipt,
    FailureDetector,
    FaultPlan,
    FaultRates,
    FaultRule,
    PeerLostError,
    RankLostError,
    SimulatedCrash,
    tag_class,
)
from repro.vmachine.reliability import Reliability, ReliabilityConfig
from repro.vmachine.window import Window, RMAHandle, TAG_RMA_BASE, ACCUMULATE_OPS

__all__ = [
    "CostModel",
    "MachineProfile",
    "IBM_SP2",
    "ALPHA_FARM_ATM",
    "Message",
    "Mailbox",
    "ANY_SOURCE",
    "ANY_TAG",
    "Process",
    "current_process",
    "Communicator",
    "Request",
    "InterComm",
    "waitany",
    "waitall",
    "VirtualMachine",
    "RankError",
    "SPMDError",
    "ProgramSpec",
    "run_programs",
    "CoupledResult",
    "PhaseTimer",
    "TimingReport",
    "merge_timings",
    "TraceEvent",
    "MESSAGE_KINDS",
    "format_tag",
    "message_matrix",
    "rank_activity",
    "format_timeline",
    "payload_nbytes",
    "default_recv_timeout_s",
    "FaultPlan",
    "FaultRates",
    "FaultRule",
    "CrashEvent",
    "DeliveryReceipt",
    "FailureDetector",
    "RankLostError",
    "PeerLostError",
    "SimulatedCrash",
    "tag_class",
    "Reliability",
    "ReliabilityConfig",
    "Window",
    "RMAHandle",
    "TAG_RMA_BASE",
    "ACCUMULATE_OPS",
]
