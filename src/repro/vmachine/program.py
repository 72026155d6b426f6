"""Multiple programs on one virtual machine.

The paper's sections 5.2 and 5.4 run *two separately written programs* on
disjoint processor sets (a regular-mesh program and an irregular-mesh
program; an HPF compute server and a Parti client) that exchange data only
through Meta-Chaos.  :func:`run_programs` reproduces that setting: each
:class:`ProgramSpec` gets its own contiguous block of global ranks, a
private intra-program :class:`~repro.vmachine.comm.Communicator`, and an
:class:`~repro.vmachine.comm.InterComm` to every other program.  The ranks
are started by the machine's one launcher
(:meth:`repro.vmachine.machine.VirtualMachine._launch`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vmachine.machine import (
    ProgramContext,
    ProgramSpec,
    SPMDResult,
    VirtualMachine,
)

__all__ = ["ProgramSpec", "ProgramContext", "CoupledResult", "run_programs"]


@dataclass
class CoupledResult:
    """Per-program results of a coupled run."""

    programs: dict[str, SPMDResult]

    def __getitem__(self, name: str) -> SPMDResult:
        return self.programs[name]

    @property
    def elapsed_ms(self) -> float:
        return max(r.elapsed_ms for r in self.programs.values())

    def span_ms(self, name: str) -> float:
        """:meth:`SPMDResult.span_ms` over every program's ranks."""
        return max(r.span_ms(name) for r in self.programs.values())


def run_programs(specs: list[ProgramSpec], *args, **settings) -> CoupledResult:
    """Run several programs concurrently on disjoint processor sets.

    Global ranks are assigned contiguously in spec order.  The inter-program
    network uses the same cost profile as the intra-program network (on the
    SP2 both are the switch; on the Alpha farm both are the ATM fabric).

    Everything after ``specs`` is a run setting of
    :class:`~repro.vmachine.machine.VirtualMachine` (``profile``, ``trace``,
    ``check_leaks``, ``recv_timeout_s``, ``copy_on_send``, ``faults``,
    ``observe``, ``recorder``) and is forwarded to a machine of
    ``sum(s.nprocs for s in specs)`` processors.  Recorded artifacts index
    ranks *globally* (spec-order blocks), which is also how the single-rank
    isolation replayer addresses them.
    """
    if not specs:
        raise ValueError("need at least one program")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate program names in {names}")
    for s in specs:
        if s.nprocs < 1:
            raise ValueError(f"program {s.name!r} needs at least one processor")
    machine = VirtualMachine(sum(s.nprocs for s in specs), *args, **settings)
    return CoupledResult(programs=machine._launch(specs))
