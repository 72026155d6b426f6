"""VirtualMachine SPMD execution tests."""

import numpy as np
import pytest

from repro.vmachine import VirtualMachine
from repro.vmachine.machine import SPMDError

from helpers import run_spmd


class TestRun:
    def test_values_in_rank_order(self):
        res = run_spmd(5, lambda comm: comm.rank * 2)
        assert res.values == [0, 2, 4, 6, 8]

    def test_args_and_kwargs_forwarded(self):
        def spmd(comm, a, b=0):
            return a + b + comm.rank

        res = VirtualMachine(2).run(spmd, 10, b=5)
        assert res.values == [15, 16]

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            VirtualMachine(0)

    def test_fresh_state_between_runs(self):
        vm = VirtualMachine(2)
        r1 = vm.run(lambda comm: comm.process.charge(1.0) or comm.process.clock)
        r2 = vm.run(lambda comm: comm.process.clock)
        assert r2.values == [0.0, 0.0]
        assert r1.clocks[0] == pytest.approx(1.0)

    def test_current_process_accessible(self):
        from repro.vmachine.process import current_process

        def spmd(comm):
            return current_process().rank == comm.rank

        assert all(run_spmd(3, spmd).values)


class TestErrors:
    def test_single_rank_failure_propagates(self):
        def spmd(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(SPMDError, match="rank 1 exploded") as ei:
            run_spmd(3, spmd)
        assert [e.rank for e in ei.value.errors] in ([1], [0, 1], [1, 2], [0, 1, 2])

    def test_failure_unblocks_other_ranks(self):
        # Without mailbox closing this would hang for the full timeout.
        def spmd(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(0)  # would block forever

        with pytest.raises(SPMDError, match="boom"):
            run_spmd(2, spmd)

    def test_errors_sorted_by_rank(self):
        def spmd(comm):
            raise RuntimeError(f"r{comm.rank}")

        with pytest.raises(SPMDError) as ei:
            run_spmd(4, spmd)
        ranks = [e.rank for e in ei.value.errors]
        assert ranks == sorted(ranks)


class TestResult:
    def test_elapsed_is_slowest_rank(self):
        def spmd(comm):
            comm.process.charge(0.001 * (comm.rank + 1))

        res = run_spmd(4, spmd)
        assert res.elapsed_ms == pytest.approx(4.0)

    def test_span_ms_is_max(self):
        def spmd(comm):
            if comm.rank < 2:
                with comm.process.span("a"):
                    comm.process.charge(0.001 * (2 - comm.rank))
            with comm.process.span("p"):
                comm.process.charge(0.001 * comm.rank)

        res = run_spmd(3, spmd)
        assert res.span_ms("p") == pytest.approx(2.0)
        # a rank that never opened the span counts as zero
        assert res.span_ms("a") == pytest.approx(2.0)
        assert res.span_ms("never") == 0.0
        assert [m.span_seconds.get("a", 0.0) for m in res.metrics] == [
            0.002, 0.001, 0.0]

    def test_total_stat_sums_ranks(self):
        def spmd(comm):
            comm.barrier()

        res = run_spmd(4, spmd)
        # dissemination barrier: ceil(log2 4) = 2 rounds, 1 msg per round
        assert res.total_stat("messages_sent") == 8

    def test_deterministic_clocks(self):
        def spmd(comm):
            comm.alltoall([np.arange(10) for _ in range(comm.size)])
            comm.bcast(np.zeros(100), root=0)
            return None

        c1 = run_spmd(4, spmd).clocks
        c2 = run_spmd(4, spmd).clocks
        assert c1 == c2
