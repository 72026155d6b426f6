"""Universe topology tests (single- and two-program)."""

import pytest

from repro.core.universe import SingleProgramUniverse, TwoProgramUniverse
from repro.vmachine import ProgramSpec, run_programs

from helpers import run_spmd


class TestSingleProgram:
    def test_roles_and_sizes(self):
        def spmd(comm):
            u = SingleProgramUniverse(comm)
            assert u.single_program
            assert u.src_size == u.dst_size == comm.size
            assert u.my_src_rank == u.my_dst_rank == comm.rank
            assert u.same_proc_dst(comm.rank)
            assert not u.same_proc_dst((comm.rank + 1) % comm.size) or comm.size == 1
            assert u.reversed() is u
            return True

        assert all(run_spmd(3, spmd).values)

    def test_send_recv_through_universe(self):
        def spmd(comm):
            u = SingleProgramUniverse(comm)
            if comm.rank == 0:
                u.to_dst.send(1, "x", 5)
            elif comm.rank == 1:
                return u.to_src.recv(0, 5)
            return None

        assert run_spmd(2, spmd).values[1] == "x"


class TestTwoProgram:
    def test_roles_and_sizes(self):
        def src_prog(ctx):
            u = TwoProgramUniverse(ctx.comm, ctx.peer("d"), "src")
            assert not u.single_program
            assert u.src_size == 2 and u.dst_size == 3
            assert u.my_src_rank == ctx.rank and u.my_dst_rank is None
            assert not u.same_proc_dst(0)
            r = u.reversed()
            assert r.my_dst_rank == ctx.rank and r.my_src_rank is None
            return True

        def dst_prog(ctx):
            u = TwoProgramUniverse(ctx.comm, ctx.peer("s"), "dst")
            assert u.src_size == 2 and u.dst_size == 3
            assert u.my_dst_rank == ctx.rank and u.my_src_rank is None
            return True

        res = run_programs(
            [ProgramSpec("s", 2, src_prog), ProgramSpec("d", 3, dst_prog)]
        )
        assert all(res["s"].values) and all(res["d"].values)

    def test_cross_group_messaging(self):
        def src_prog(ctx):
            u = TwoProgramUniverse(ctx.comm, ctx.peer("d"), "src")
            u.to_dst.send(0, f"s{ctx.rank}", 1)
            return True

        def dst_prog(ctx):
            u = TwoProgramUniverse(ctx.comm, ctx.peer("s"), "dst")
            if ctx.rank == 0:
                return sorted(u.to_src.recv(s, 1) for s in range(u.src_size))
            return None

        res = run_programs(
            [ProgramSpec("s", 3, src_prog), ProgramSpec("d", 2, dst_prog)]
        )
        assert res["d"].values[0] == ["s0", "s1", "s2"]

    def test_intra_group_messaging_through_universe(self):
        def src_prog(ctx):
            u = TwoProgramUniverse(ctx.comm, ctx.peer("d"), "src")
            if ctx.rank == 0:
                u.to_src.send(1, "intra", 2)
            elif ctx.rank == 1:
                return u.to_src.recv(0, 2)
            return None

        res = run_programs(
            [ProgramSpec("s", 2, src_prog), ProgramSpec("d", 1, lambda c: None)]
        )
        assert res["s"].values[1] == "intra"

    def test_invalid_role(self):
        def prog(ctx):
            with pytest.raises(ValueError, match="role"):
                TwoProgramUniverse(ctx.comm, ctx.peer("b"), "client")
            return True

        res = run_programs(
            [ProgramSpec("a", 1, prog), ProgramSpec("b", 1, lambda c: None)]
        )
        assert res["a"].values == [True]
