"""Message-leak detection tests — the check belongs to the launcher, so
every case runs through both entry points."""

import numpy as np
import pytest

from repro.vmachine import ProgramSpec, VirtualMachine, run_programs
from repro.vmachine.machine import SPMDError


def _as_machine(nprocs, spmd, **settings):
    return VirtualMachine(nprocs, **settings).run(spmd).values


def _as_program(nprocs, spmd, **settings):
    spec = ProgramSpec("only", nprocs, lambda ctx: spmd(ctx.comm))
    return run_programs([spec], **settings)["only"].values


ENTRY_POINTS = (_as_machine, _as_program)


class TestLeakDetection:
    def test_unreceived_message_fails_the_run(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, "orphan")  # never received
            return True

        for run in ENTRY_POINTS:
            with pytest.raises(SPMDError, match="never received"):
                run(2, spmd)

    def test_can_be_disabled(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, "orphan")
            return True

        for run in ENTRY_POINTS:
            assert run(2, spmd, check_leaks=False) == [True, True]

    def test_unwaited_irecv_is_a_leak(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, "x")
            elif comm.rank == 1:
                comm.irecv(0)  # posted, never waited
            return True

        for run in ENTRY_POINTS:
            with pytest.raises(SPMDError, match="never received"):
                run(2, spmd)

    def test_clean_program_passes(self):
        def spmd(comm):
            comm.alltoall([np.zeros(3) for _ in range(comm.size)])
            comm.barrier()
            return True

        for run in ENTRY_POINTS:
            assert all(run(4, spmd))

    def test_leak_report_names_the_rank(self):
        def spmd(comm):
            if comm.rank == 2:
                comm.send(0, None)
            return True

        for run in ENTRY_POINTS:
            with pytest.raises(SPMDError, match="rank 0"):
                run(3, spmd)
