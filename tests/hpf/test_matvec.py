"""Distributed matvec tests (the HPF server kernel)."""

import numpy as np
import pytest

from repro.hpf import HPFArray, distributed_matvec, local_matvec_time
from repro.vmachine import ALPHA_FARM_ATM, IBM_SP2
from repro.vmachine.machine import SPMDError

from helpers import run_spmd

M, N = 20, 16
A_G = np.random.default_rng(24).random((M, N))
X_G = np.random.default_rng(25).random(N)


class TestDistributedMatvec:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_matches_numpy(self, nprocs):
        def spmd(comm):
            A = HPFArray.from_global(comm, A_G, ("block", "*"))
            x = HPFArray.from_global(comm, X_G, ("block",))
            y = HPFArray.distribute(comm, (M,), ("block",))
            distributed_matvec(A, x, y)
            return y.gather_global()

        got = run_spmd(nprocs, spmd).values[0]
        np.testing.assert_allclose(got, A_G @ X_G)

    def test_shape_mismatch(self):
        def spmd(comm):
            A = HPFArray.from_global(comm, A_G, ("block", "*"))
            x = HPFArray.distribute(comm, (N + 1,), ("block",))
            y = HPFArray.distribute(comm, (M,), ("block",))
            distributed_matvec(A, x, y)

        with pytest.raises(SPMDError, match="shape mismatch"):
            run_spmd(2, spmd)

    def test_non_matrix_rejected(self):
        def spmd(comm):
            A = HPFArray.from_global(comm, X_G, ("block",))
            distributed_matvec(A, A, A)

        with pytest.raises(SPMDError, match="matrix"):
            run_spmd(2, spmd)

    def test_internal_communication_grows_with_procs(self):
        """The allgather term behind the paper's 8-process server optimum."""

        def spmd(comm):
            A = HPFArray.from_global(comm, A_G, ("block", "*"))
            x = HPFArray.from_global(comm, X_G, ("block",))
            y = HPFArray.distribute(comm, (M,), ("block",))
            comm.barrier()
            before = comm.process.stats["messages_sent"]
            distributed_matvec(A, x, y)
            return comm.process.stats["messages_sent"] - before

        m2 = sum(run_spmd(2, spmd).values)
        m8 = sum(run_spmd(8, spmd).values)
        assert m8 > m2

    def test_compute_time_scales_down(self):
        # Large enough that flops dominate the allgather latency.
        big = np.random.default_rng(1).random((512, 512))

        def make(p):
            def spmd(comm):
                A = HPFArray.from_global(comm, big, ("block", "*"))
                x = HPFArray.from_global(comm, big[0], ("block",))
                y = HPFArray.distribute(comm, (512,), ("block",))
                with comm.process.span("mv"):
                    distributed_matvec(A, x, y)
                return None

            return spmd

        t1 = run_spmd(1, make(1)).span_ms("mv")
        t4 = run_spmd(4, make(4)).span_ms("mv")
        assert t4 < t1


class TestLocalMatvecTime:
    def test_flop_model(self):
        t = local_matvec_time(512, 512, ALPHA_FARM_ATM)
        assert t == pytest.approx(2 * 512 * 512 * ALPHA_FARM_ATM.gamma_flop)

    def test_profiles_differ(self):
        assert local_matvec_time(100, 100, IBM_SP2) != local_matvec_time(
            100, 100, ALPHA_FARM_ATM
        )
