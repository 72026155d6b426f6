"""Binomial-tree reduce/allreduce: fold order, tree shape, log-depth cost.

``Communicator.reduce`` combines partials over a binomial tree: O(log P)
logical depth instead of the O(P) serialized receives of a gather-based
fold, while keeping the *operand order* linear in virtual-rank order
(``root, root+1, ..., P-1, 0, ..., root-1``).  That ordering contract is
what lets non-commutative (but associative) operators work unchanged —
these tests pin it with list concatenation, the canonical associative
non-commutative op.  ``tree_fold`` computes the same value locally, in
the same grouping.
"""

import functools
import math

import pytest

from repro.vmachine import VirtualMachine
from repro.vmachine.comm import tree_fold

from helpers import run_spmd


def _concat(a, b):
    return a + b


class TestFoldOrder:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    def test_concat_in_rank_order_at_root_zero(self, size):
        def spmd(comm):
            return comm.reduce([comm.rank], _concat, root=0)

        vals = run_spmd(size, spmd).values
        assert vals[0] == list(range(size))
        assert all(v is None for v in vals[1:])

    @pytest.mark.parametrize("size,root", [(4, 1), (6, 5), (7, 3), (8, 4)])
    def test_concat_wraps_from_any_root(self, size, root):
        """Operands fold in virtual-rank order: root, root+1, ..., wrap."""

        def spmd(comm):
            return comm.reduce([comm.rank], _concat, root=root)

        vals = run_spmd(size, spmd).values
        expect = [(root + k) % size for k in range(size)]
        assert vals[root] == expect
        assert all(vals[r] is None for r in range(size) if r != root)

    @pytest.mark.parametrize("size", [1, 2, 5, 9, 16])
    def test_allreduce_concat_everywhere(self, size):
        def spmd(comm):
            return comm.allreduce([comm.rank], _concat)

        assert run_spmd(size, spmd).values == [list(range(size))] * size

    def test_string_concat_non_commutative(self):
        """String concat would scramble under any reordering."""

        def spmd(comm):
            return comm.reduce("abcdefg"[comm.rank], _concat, root=2)

        assert run_spmd(7, spmd).values[2] == "cdefgab"


class TestTreeShape:
    def _traced_reduce(self, size, root=0):
        def spmd(comm):
            comm.reduce([comm.rank], _concat, root=root)
            return None

        return VirtualMachine(size, trace=True).run(spmd).traces

    def test_root_receives_log_p_messages(self):
        """At P=8 root 0's children are exactly ranks 1, 2 and 4."""
        traces = self._traced_reduce(8)
        recv_sources = sorted(
            ev.peer for ev in traces[0] if ev.kind == "recv"
        )
        assert recv_sources == [1, 2, 4]

    @pytest.mark.parametrize("size", [2, 3, 6, 8, 13, 16])
    def test_binomial_shape_bounds(self, size):
        """Each non-root sends exactly one partial; every rank receives at
        most ceil(log2 P); total messages are exactly P-1."""
        traces = self._traced_reduce(size)
        depth = math.ceil(math.log2(size))
        total_sends = 0
        for rank, trace in enumerate(traces):
            sends = [ev for ev in trace if ev.kind == "send"]
            recvs = [ev for ev in trace if ev.kind == "recv"]
            total_sends += len(sends)
            if rank == 0:
                assert not sends
            else:
                assert len(sends) == 1
            assert len(recvs) <= depth
        assert total_sends == size - 1

    def test_logical_depth_is_logarithmic(self):
        """The root's elapsed time grows ~log P, not ~P: quadrupling the
        processor count from 8 to 32 must cost far less than 4x."""

        def spmd(comm):
            t0 = comm.process.clock
            comm.reduce(comm.rank, lambda a, b: a + b, root=0)
            return comm.process.clock - t0

        t8 = max(run_spmd(8, spmd).values)
        t32 = max(run_spmd(32, spmd).values)
        # Linear fold would scale by ~31/7 > 4.4; tree depth by 5/3 < 1.7.
        assert t32 / t8 < 2.5


def _pair(a, b):
    """Shows the grouping: ``((0, 1), (2, 3))``, not ``(((0, 1), 2), 3)``."""
    return (a, b)


class TestTreeFold:
    def test_grouping_is_the_reduce_at_root_zero(self):
        for size in (1, 2, 3, 5, 6, 7, 8, 13, 16):
            def spmd(comm):
                return comm.reduce(comm.rank, _pair, root=0)

            got = run_spmd(size, spmd).values[0]
            assert tree_fold(list(range(size)), _pair) == got, size

    def test_float_fold_is_bit_for_bit_the_reduce(self):
        """1 + (2**-53 + 2**-53) is 1 + 2**-52, while either linear fold
        rounds each 2**-53 away: a linear fold, or one that drops the
        zero partial (which regroups the rest), gets 1.0."""
        values = [1.0, 0.0, 2.0 ** -53, 2.0 ** -53]

        def spmd(comm):
            return comm.reduce(values[comm.rank], lambda x, y: x + y,
                               root=0)

        got = run_spmd(len(values), spmd).values[0]
        add = lambda x, y: x + y  # noqa: E731
        assert tree_fold(values, add) == got == 1.0 + 2.0 ** -52
        assert functools.reduce(add, values) == 1.0
        assert tree_fold([v for v in values if v], add) == 1.0
