"""Graceful degradation: prompt failure surfacing instead of hangs,
configurable receive timeouts with rich diagnostics, and the copy-on-send
debug mode for the zero-copy transport."""

import time

import numpy as np
import pytest

from repro.vmachine import VirtualMachine
from repro.vmachine.faults import CrashEvent, FaultPlan, RankLostError
from repro.vmachine.machine import SPMDError


class TestPromptFailureSurfacing:
    def test_peer_crash_unblocks_receiver_fast(self):
        """A receive blocked on a crashed rank must fail via the failure
        detector long before the (large) receive timeout expires."""
        plan = FaultPlan(seed=0, crashes=[CrashEvent(rank=1, after_sends=0)])

        def spmd(comm):
            if comm.rank == 0:
                comm.recv(1, 3)
            else:
                comm.send(0, "never", 3)  # crash fires before delivery

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            VirtualMachine(2, recv_timeout_s=60.0, faults=plan).run(spmd)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0  # detector, not timeout, ended the wait
        assert ei.value.lost_ranks == [0]
        lost = [e.exception for e in ei.value.errors if e.rank == 0][0]
        assert isinstance(lost, RankLostError)
        assert lost.lost_rank == 1

    def test_failure_cascade_keeps_root_cause(self):
        """P=4 pipeline: rank 2 crashes; the transitive RankLostError
        cascade must not bury the root cause."""
        plan = FaultPlan(seed=0, crashes=[CrashEvent(rank=2, at_time_s=0.0)])

        def spmd(comm):
            # ring: everyone waits on its left neighbour except rank 0,
            # which waits on rank 2's message directly
            if comm.rank == 2:
                comm.send(3, 1, 5)  # crash fires here
            elif comm.rank == 3:
                comm.recv(2, 5)
                comm.send(0, 1, 5)
            elif comm.rank == 0:
                comm.recv(3, 5)

        with pytest.raises(SPMDError) as ei:
            VirtualMachine(4, recv_timeout_s=30.0, faults=plan).run(spmd)
        err = ei.value
        assert [e.rank for e in err.root_causes] == [2]
        assert set(err.lost_ranks) == {0, 3}


class TestConfigurableTimeout:
    def test_per_machine_timeout_applies(self):
        def spmd(comm):
            comm.recv(1, 7)  # nothing ever sent

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            VirtualMachine(2, recv_timeout_s=0.2).run(spmd)
        assert time.monotonic() - t0 < 10.0
        assert any(
            isinstance(e.exception, TimeoutError) for e in ei.value.errors
        )

    def test_timeout_diagnostics_name_source_tag_context_and_pending(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.send(1, b"xyzw", 9)   # pending, wrong tag
                comm.recv(1, 7)
            else:
                comm.send(0, b"dead-end", 9)
                comm.recv(0, 9)

        with pytest.raises(SPMDError) as ei:
            VirtualMachine(2, recv_timeout_s=0.3).run(spmd)
        msg = str(
            [e for e in ei.value.errors if e.rank == 0][0].exception
        )
        assert "source=1" in msg
        assert "tag=0:7" in msg
        assert "communicator context block" in msg
        assert "undelivered envelope" in msg
        assert "(src=1, tag=0:9, 8B)" in msg


class TestCopyOnSend:
    @staticmethod
    def _mutate_after_send(comm):
        """Rank 0 sends a buffer and then mutates it; rank 1 observes the
        payload only after the mutation has happened (flag message)."""
        if comm.rank == 0:
            buf = np.zeros(4)
            comm.send(1, buf, 1)
            buf[:] = 99.0            # mutate-after-send hazard
            comm.send(1, "mutated", 2)
            return None
        comm.recv(0, 2)              # wait until the sender has mutated
        return comm.recv(0, 1).copy()

    def test_zero_copy_exposes_mutation(self):
        got = VirtualMachine(2).run(self._mutate_after_send).values[1]
        np.testing.assert_array_equal(got, np.full(4, 99.0))

    def test_copy_on_send_isolates_receiver(self):
        got = (
            VirtualMachine(2, copy_on_send=True)
            .run(self._mutate_after_send)
            .values[1]
        )
        np.testing.assert_array_equal(got, np.zeros(4))
