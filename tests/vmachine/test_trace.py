"""Message tracing and analysis tests."""

import numpy as np
import pytest

from repro.vmachine import (
    ProgramSpec,
    VirtualMachine,
    format_timeline,
    message_matrix,
    rank_activity,
    run_programs,
)


def ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, np.zeros(50), tag=1)
    comm.recv(left, tag=1)
    return True


class TestTracing:
    @pytest.mark.usefixtures("clean_repro_env")  # REPRO_RECORD implies tracing
    def test_disabled_by_default(self):
        res = VirtualMachine(3).run(ring)
        assert res.traces == [[], [], []]

    def test_events_recorded(self):
        res = VirtualMachine(3, trace=True).run(ring)
        for events in res.traces:
            kinds = [e.kind for e in events]
            assert kinds.count("send") == 1
            assert kinds.count("recv") == 1

    def test_message_matrix_bytes(self):
        res = VirtualMachine(4, trace=True).run(ring)
        m = message_matrix(res.traces)
        for r in range(4):
            assert m[r, (r + 1) % 4] == 400  # 50 doubles
            assert m[r, r] == 0

    def test_message_matrix_counts(self):
        res = VirtualMachine(4, trace=True).run(ring)
        m = message_matrix(res.traces, what="count")
        assert m.sum() == 4

    def test_rank_activity_accounts_waits(self):
        def spmd(comm):
            if comm.rank == 0:
                comm.process.charge(0.01)  # rank 0 is slow to send
                comm.send(1, None)
            else:
                comm.recv(0)
            return True

        res = VirtualMachine(2, trace=True).run(spmd)
        act = rank_activity(res.traces, res.clocks)
        assert act[1]["blocked"] > 0.009
        assert act[1]["busy"] < act[1]["total"]
        assert act[0]["blocked"] == 0.0

    def test_timeline_renders(self):
        res = VirtualMachine(2, trace=True).run(ring)
        text = format_timeline(res.traces)
        assert "send" in text and "recv" in text
        assert "0 -> 1" in text

    def test_timeline_truncation(self):
        def chatty(comm):
            for _ in range(30):
                comm.barrier()

        res = VirtualMachine(2, trace=True).run(chatty)
        text = format_timeline(res.traces, limit=5)
        assert "more events" in text

    def test_events_time_ordered_per_rank(self):
        res = VirtualMachine(4, trace=True).run(
            lambda comm: [comm.barrier() for _ in range(3)] and True
        )
        for events in res.traces:
            times = [e.time for e in events]
            assert times == sorted(times)

    def test_traced_programs(self):
        def prog_a(ctx):
            ctx.peer("b").send(0, np.zeros(10))
            return True

        def prog_b(ctx):
            ctx.peer("a").recv(0)
            return True

        res = run_programs(
            [ProgramSpec("a", 1, prog_a), ProgramSpec("b", 1, prog_b)],
            trace=True,
        )
        a_events = res["a"].traces[0]
        assert any(e.kind == "send" and e.nbytes == 80 for e in a_events)
        b_events = res["b"].traces[0]
        assert any(e.kind == "recv" for e in b_events)

    def test_tracing_does_not_change_clocks(self):
        plain = VirtualMachine(3).run(ring)
        traced = VirtualMachine(3, trace=True).run(ring)
        assert plain.clocks == traced.clocks
