"""The wait-any/wait-all completion layer and tag-scoped wildcards.

``waitany`` is the primitive behind the OVERLAP executor: it completes
whichever posted receive has the earliest *logical* arrival, so receivers
drain messages in arrival order instead of rank order.  Determinism is
part of the contract — the pick depends only on logical arrival times
(ties broken by source rank), never on host thread scheduling.

The tag-scoping tests pin the satellite fix: an ``ANY_TAG`` probe,
``Request.test`` or wildcard receive on one communicator must never match
another communicator's traffic (wire tags live in per-context blocks).
"""

import numpy as np
import pytest

from repro.vmachine import ANY_TAG, VirtualMachine, waitall, waitany
from repro.vmachine.comm import CONTEXT_STRIDE
from repro.vmachine.machine import SPMDError

from helpers import run_spmd


class TestWaitany:
    def test_completes_earliest_logical_arrival(self):
        """Rank 2's message leaves first, so it completes first even though
        the receive for rank 1 was posted first."""

        def spmd(comm):
            if comm.rank == 1:
                comm.process.charge(5e-3)  # delay injection by 5 ms
                comm.send(0, "slow")
            elif comm.rank == 2:
                comm.send(0, "fast")
            elif comm.rank == 0:
                reqs = [comm.irecv(1), comm.irecv(2)]
                first = waitany(reqs)
                second = waitany(reqs)
                return [first, second]
            return None

        got = run_spmd(3, spmd).values[0]
        assert got == [(1, "fast"), (0, "slow")]

    def test_tie_breaks_by_source_rank(self):
        """Equal arrivals resolve to the lower source, deterministically."""

        def spmd(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(2), comm.irecv(1)]
                order = [waitany(reqs)[0] for _ in range(2)]
                return order
            comm.send(0, comm.rank)  # symmetric: identical arrival clocks
            return None

        # Request index 1 is source rank 1 -> completes first.
        assert run_spmd(3, spmd).values[0] == [1, 0]

    def test_same_pair_fifo_preserved(self):
        """Two receives matching the same (source, tag) drain in send order."""

        def spmd(comm):
            if comm.rank == 1:
                comm.send(0, "first", tag=4)
                comm.send(0, "second", tag=4)
            elif comm.rank == 0:
                reqs = [comm.irecv(1, tag=4), comm.irecv(1, tag=4)]
                a = waitany(reqs)[1]
                b = waitany(reqs)[1]
                return [a, b]
            return None

        assert run_spmd(2, spmd).values[0] == ["first", "second"]

    def test_waitany_without_incomplete_requests_raises(self):
        def spmd(comm):
            if comm.rank == 1:
                comm.send(0, 99)
            elif comm.rank == 0:
                reqs = [comm.irecv(1)]
                waitany(reqs)
                with pytest.raises(ValueError):
                    waitany(reqs)
                return True
            return None

        assert run_spmd(2, spmd).values[0] is True

    def test_waitall_returns_payloads_in_request_order(self):
        """Payload order follows the request list, not completion order."""

        def spmd(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(s) for s in (1, 2, 3)]
                return waitall(reqs)
            if comm.rank == 1:
                comm.process.charge(3e-3)  # rank 1 sends last
            comm.send(0, f"from-{comm.rank}")
            return None

        assert run_spmd(4, spmd).values[0] == ["from-1", "from-2", "from-3"]

    def test_waitany_charges_only_completed_arrival(self):
        """Completing the early message must not advance the clock to the
        late message's arrival (physical wait costs no logical time)."""

        def spmd(comm):
            if comm.rank == 1:
                comm.process.charge(50e-3)
                comm.send(0, "late")
            elif comm.rank == 2:
                comm.send(0, "early")
            elif comm.rank == 0:
                reqs = [comm.irecv(1), comm.irecv(2)]
                waitany(reqs)
                clock_after_first = comm.process.clock
                waitany(reqs)
                return clock_after_first, comm.process.clock
            return None

        after_first, after_second = run_spmd(3, spmd).values[0]
        assert after_first < 50e-3  # early completion not dragged to 50 ms
        assert after_second >= 50e-3

    def test_timeout_names_context_unmatched_sources_and_pending(self):
        """A timed-out ``waitany`` is as diagnosable as a timed-out ``recv``:
        communicator context block, who is still owed, and what *is*
        queued — in delivery order, not index order."""

        def spmd(comm):
            sub = comm.split(0)
            if comm.rank == 1:
                sub.send(0, np.zeros(2), tag=9)
                sub.send(0, None, tag=8)
                sub.send(0, "x", tag=9)
            comm.barrier()  # rank 1's three envelopes are queued at rank 0
            if comm.rank != 0:
                return None
            reqs = [sub.irecv(1, tag=4), sub.irecv(2, tag=4), sub.irecv(1, tag=8)]
            with pytest.raises(TimeoutError) as ei:
                waitany(reqs)
            for tag in (9, 8, 9):
                sub.recv(1, tag=tag)
            return str(ei.value), sub._context // CONTEXT_STRIDE

        # a budget the split and the barrier before the wait cannot trip
        text, block = VirtualMachine(3, recv_timeout_s=0.5).run(spmd).values[0]
        assert block > 0
        assert f"in communicator context block {block} timed out" in text
        assert "still unmatched sources [1, 2]" in text
        # the split communicator's block, not ``tag & 0xFFFF``'s bare 9/8/9
        assert (f"3 undelivered envelope(s): (src=1, tag={block}:9, 16B), "
                f"(src=1, tag={block}:8, 8B), (src=1, tag={block}:9, 1B)") in text


class TestTagScoping:
    def test_any_tag_probe_does_not_cross_communicators(self):
        """A message on a split communicator is invisible to a world-scoped
        ANY_TAG probe (and vice versa)."""

        def spmd(comm):
            sub = comm.split(0)
            if comm.rank == 1:
                sub.send(0, "sub-traffic", tag=3)
            comm.barrier()  # ensure physical delivery everywhere
            if comm.rank == 0:
                world_sees = comm.probe(1, ANY_TAG)
                sub_sees = sub.probe(1, ANY_TAG)
                payload = sub.recv(1, tag=3)
                return world_sees, sub_sees, payload
            return None

        world_sees, sub_sees, payload = run_spmd(2, spmd).values[0]
        assert world_sees is False
        assert sub_sees is True
        assert payload == "sub-traffic"

    def test_request_test_scoped_to_context(self):
        """Request.test with ANY_TAG must not report another communicator's
        pending message as a match."""

        def spmd(comm):
            sub = comm.split(0)
            if comm.rank == 1:
                sub.send(0, "decoy", tag=9)
            comm.barrier()
            if comm.rank == 0:
                req = comm.irecv(1, tag=ANY_TAG)
                ready_with_decoy_only = req.test()
            comm.barrier()
            if comm.rank == 1:
                comm.send(0, "real", tag=2)
            if comm.rank == 0:
                got = req.wait()
                decoy = sub.recv(1, tag=9)
                return ready_with_decoy_only, got, decoy
            return None

        ready, got, decoy = run_spmd(2, spmd).values[0]
        assert ready is False  # the sub-communicator message never matched
        assert got == "real"
        assert decoy == "decoy"

    def test_recv_any_scoped_to_context(self):
        def spmd(comm):
            sub = comm.split(0)
            if comm.rank == 1:
                sub.send(0, "sub", tag=1)
                comm.send(0, "world", tag=1)
            if comm.rank == 0:
                src, payload = comm.recv_any(tag=1)
                assert (src, payload) == (1, "world")
                return sub.recv(1, tag=1)
            return None

        assert run_spmd(2, spmd).values[0] == "sub"

    def test_unconsumed_cross_context_message_still_leaks(self):
        """Scoping must not hide real protocol bugs from the leak check."""

        def spmd(comm):
            sub = comm.split(0)
            if comm.rank == 1:
                sub.send(0, "never received", tag=5)
            comm.barrier()
            return None

        with pytest.raises(SPMDError, match="never received"):
            run_spmd(2, spmd)
