"""An epoch is one exchange: window ops buffer per target and cross the
wire as one message per pair at the fence — for one window, or for a
group of windows fenced together.

Message counts are read off ``proc.stats["messages_sent"]`` (what the
transport really sent, not the ``rma_*`` op counters); results are held
to a sequential oracle that replays every epoch in the documented
``(window, origin rank, issue order)`` total order; and the fence's two
release points for fault-plan-held messages are exercised on a bare
window, with no container in between.
"""

import numpy as np
import pytest

from repro.vmachine import VirtualMachine, Window
from repro.vmachine.faults import FaultPlan, FaultRates
from repro.vmachine.reliability import Reliability
from repro.vmachine.window import fence

P = 4
WIN = 12  # elements exposed per rank
EPOCHS = 3


def _sent(comm, body):
    """``(messages, bytes)`` this rank sent while running ``body()``."""
    stats = comm.process.stats
    before = stats["messages_sent"], stats["bytes_sent"]
    body()
    return (stats["messages_sent"] - before[0],
            stats["bytes_sent"] - before[1])


class TestMessageCounts:
    def test_hundred_puts_to_one_target_are_one_message(self):
        def spmd(comm):
            win = Window(comm, np.zeros(128))

            def epoch():
                if comm.rank == 1:
                    for i in range(100):
                        win.put(0, [float(i)], start=i)
                win.fence()

            return _sent(comm, epoch)[0], win.local[:100].copy()

        res = VirtualMachine(2).run(spmd)
        assert [v[0] for v in res.values] == [1, 1]  # not 100 (+ a count)
        np.testing.assert_array_equal(res.values[0][1], np.arange(100.0))

    def test_fence_sends_one_batch_per_peer_and_one_response_per_asker(self):
        def spmd(comm):
            rank = comm.rank
            win = Window(comm, np.zeros(WIN))
            counts = []
            # epoch 0: nothing issued -> the P-1 (empty) batches only
            counts.append(_sent(comm, win.fence)[0])

            # epoch 1: writes only, several per pair -> still P-1
            def writes():
                for peer in range(P):
                    win.put(peer, [1.0, 2.0], start=rank)
                    win.accumulate(peer, [3.0], start=rank)
                win.fence()
            counts.append(_sent(comm, writes)[0])

            # epoch 2: rank r reads from r+1 (get + fetch_add: one pair,
            # one response) and from r+2 (cas) -> every rank, as a
            # target, answers exactly two origins
            def reads():
                win.get((rank + 1) % P, 0, 4)
                win.fetch_add((rank + 1) % P, 0, 1.0)
                win.compare_and_swap((rank + 2) % P, 1, 0.0, 9.0)
                win.fence()
            counts.append(_sent(comm, reads)[0])
            return counts

        res = VirtualMachine(P).run(spmd)
        for counts in res.values:
            assert counts == [P - 1, P - 1, (P - 1) + 2]

    def test_self_targeted_ops_send_nothing(self):
        def spmd(comm):
            win = Window(comm, np.zeros(WIN))
            empty = _sent(comm, win.fence)
            handles = []

            def own():
                win.put(comm.rank, np.arange(4.0))
                win.accumulate(comm.rank, np.ones(4))
                handles.append(win.fetch_add(comm.rank, 0, 5.0))
                handles.append(win.get(comm.rank, 0, 4))
                win.fence()
            return (empty, _sent(comm, own),
                    [np.asarray(h.value).tolist() for h in handles])

        res = VirtualMachine(3).run(spmd)
        for empty, own, values in res.values:
            # same messages AND bytes as a fence with nothing issued: one
            # bare header per peer (outer list 8, ids (0,) 16, empty list 8)
            assert own == empty == (2, 2 * 32)
            assert values == [1.0, [6.0, 2.0, 3.0, 4.0]]


# -- sequential oracle over mixed batches -----------------------------------


def _scripts(seed):
    """``scripts[epoch][rank]`` -> list of ops; small integer-valued floats
    so ``compare_and_swap`` hits and sums are exact."""
    rng = np.random.default_rng(seed)
    epochs = []
    for _ in range(EPOCHS):
        per_rank = []
        for _rank in range(P):
            ops = []
            for _ in range(int(rng.integers(0, 10))):
                kind = str(rng.choice(["put", "acc", "fadd", "cas", "get"]))
                target = int(rng.integers(0, P))
                if kind in ("put", "acc", "get"):
                    count = int(rng.integers(1, 5))
                    start = int(rng.integers(0, WIN - count + 1))
                    arg = (rng.integers(0, 4, count).astype(float)
                           if kind != "get" else count)
                    ops.append((kind, target, start, arg))
                elif kind == "fadd":
                    ops.append((kind, target, int(rng.integers(0, WIN)),
                                float(rng.integers(1, 4))))
                else:
                    ops.append((kind, target, int(rng.integers(0, WIN)),
                                float(rng.integers(0, 4)),
                                float(rng.integers(0, 4))))
            per_rank.append(ops)
        epochs.append(per_rank)
    return epochs


def _issue(win, ops):
    handles = []
    for kind, target, at, *args in ops:
        if kind == "put":
            win.put(target, args[0], start=at)
        elif kind == "acc":
            win.accumulate(target, args[0], start=at)
        elif kind == "fadd":
            handles.append(win.fetch_add(target, at, args[0]))
        elif kind == "cas":
            handles.append(win.compare_and_swap(target, at, *args))
        else:
            handles.append(win.get(target, at, args[0]))
    return handles


def _oracle(epochs):
    """Replay each epoch in (origin, issue order) on plain arrays; gets
    read the post-epoch state.  Returns final state and, per rank, the
    resolved values in handle order."""
    state = [np.zeros(WIN) for _ in range(P)]
    resolved = [[] for _ in range(P)]
    for per_rank in epochs:
        gets = []
        for origin, ops in enumerate(per_rank):
            for kind, target, at, *args in ops:
                mem = state[target]
                if kind == "put":
                    mem[at:at + len(args[0])] = args[0]
                elif kind == "acc":
                    mem[at:at + len(args[0])] += args[0]
                elif kind == "fadd":
                    resolved[origin].append(float(mem[at]))
                    mem[at] += args[0]
                elif kind == "cas":
                    resolved[origin].append(float(mem[at]))
                    if mem[at] == args[0]:
                        mem[at] = args[1]
                else:
                    slot = len(resolved[origin])
                    resolved[origin].append(None)
                    gets.append((origin, slot, target, at, args[0]))
        for origin, slot, target, at, count in gets:
            resolved[origin][slot] = state[target][at:at + count].tolist()
    return state, resolved


def _program(epochs, reliable):
    def spmd(comm):
        win = Window(comm, np.zeros(WIN), reliable=reliable)
        values = []
        for per_rank in epochs:
            handles = _issue(win, per_rank[comm.rank])
            win.fence()
            values += [np.asarray(h.value).tolist() for h in handles]
        return win.local.copy(), values

    return spmd


def _assert_matches_oracle(res, epochs):
    state, resolved = _oracle(epochs)
    for rank in range(P):
        local, values = res.values[rank]
        np.testing.assert_array_equal(local, state[rank])
        assert values == resolved[rank]


class TestSequentialOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_batches_match_origin_issue_order(self, seed):
        epochs = _scripts(seed)
        res = VirtualMachine(P).run(_program(epochs, False))
        _assert_matches_oracle(res, epochs)


class TestHeldMessagesAreReleased:
    """One batch per pair per phase has no later traffic to overtake it,
    so a held one is only ever released by the fence's own flush: once
    after the batch sends, once after the response sends."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unreliable_window_under_reorder_and_delay_completes(self, seed):
        plan = FaultPlan(seed=seed,
                         rates=FaultRates(reorder=0.5, delay=0.5),
                         classes=("rma",))
        epochs = _scripts(seed)
        # a missing flush is a circular wait: fail in seconds, not minutes
        res = VirtualMachine(P, faults=plan, recv_timeout_s=5.0).run(
            _program(epochs, False))
        _assert_matches_oracle(res, epochs)
        assert res.total_stat("faults_hold") > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_reliable_window_under_chaos_matches_oracle(self, seed):
        plan = FaultPlan(
            seed=seed,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("rma",))
        epochs = _scripts(seed)
        res = VirtualMachine(P, faults=plan, recv_timeout_s=5.0).run(
            _program(epochs, True))
        _assert_matches_oracle(res, epochs)
        faults = {k: res.total_stat(k)
                  for k in ("faults_drop", "faults_dup", "faults_hold")}
        assert all(faults.values()), faults


# -- group epochs: several windows, one fence --------------------------------


def _group_program(scripts, reliable):
    """One window per member script.  Every epoch issues the members'
    ops interleaved one by one across the members, then fences the
    whole group once."""

    def spmd(comm):
        rel = Reliability() if reliable else None
        wins = [Window(comm, np.zeros(WIN), reliability=rel) for _ in scripts]
        values = [[] for _ in wins]
        for epoch in range(EPOCHS):
            queues = [list(s[epoch][comm.rank]) for s in scripts]
            handles = [[] for _ in wins]
            while any(queues):
                for m, win in enumerate(wins):
                    if queues[m]:
                        handles[m] += _issue(win, [queues[m].pop(0)])
            fence(*wins)
            for m, hs in enumerate(handles):
                values[m] += [np.asarray(h.value).tolist() for h in hs]
        assert [w.epoch for w in wins] == [EPOCHS] * len(wins)
        return [(w.local.copy(), v) for w, v in zip(wins, values)]

    return spmd


def _assert_group_matches_oracle(res, scripts):
    # members own disjoint memory, so (window, origin, issue order) is
    # each member's own (origin, issue order) replay
    for m, epochs in enumerate(scripts):
        state, resolved = _oracle(epochs)
        for rank in range(P):
            local, values = res.values[rank][m]
            np.testing.assert_array_equal(local, state[rank])
            assert values == resolved[rank]


def _group_scripts(seed):
    return [_scripts(100 * seed + m) for m in range(2 + seed % 2)]


class TestGroupFence:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_group_matches_window_origin_issue_order(self, seed):
        scripts = _group_scripts(seed)
        res = VirtualMachine(P).run(_group_program(scripts, False))
        _assert_group_matches_oracle(res, scripts)

    def test_one_batch_per_peer_and_one_response_per_asker(self):
        def spmd(comm):
            rank = comm.rank
            wins = [Window(comm, np.zeros(WIN)) for _ in range(3)]
            counts = [_sent(comm, lambda: fence(*wins))[0]]

            def writes():
                for win in wins:
                    for peer in range(P):
                        win.put(peer, [1.0], start=rank)
                fence(*wins)
            counts.append(_sent(comm, writes)[0])

            # three members ask rank+1 (two of them) and rank+2: every
            # rank, as a target, answers two origins, once each
            def reads():
                wins[0].get((rank + 1) % P, 0, 4)
                wins[1].fetch_add((rank + 1) % P, 0, 1.0)
                wins[2].compare_and_swap((rank + 2) % P, 1, 0.0, 9.0)
                fence(*wins)
            counts.append(_sent(comm, reads)[0])
            return counts, dict(comm.process.stats)

        res = VirtualMachine(P).run(spmd)
        for counts, stats in res.values:
            assert counts == [P - 1, P - 1, (P - 1) + 2]
            assert stats["rma_fences"] == 3  # one per group, not per member

    def test_bad_groups_raise_before_sending(self):
        def spmd(comm):
            half = comm.split(comm.rank % 2)
            a = Window(comm, np.zeros(2))
            b = Window(comm, np.zeros(2))
            other = Window(half, np.zeros(2))
            private = Window(comm, np.zeros(2), reliable=True)
            shared = Reliability()
            s1 = Window(comm, np.zeros(2), reliability=shared)
            s2 = Window(comm, np.zeros(2), reliability=shared)
            sent = comm.process.stats["messages_sent"]
            # another communicator, a window twice, reliable + unreliable,
            # two private reliability instances
            for group in ((a, other), (a, b, a), (a, private), (private, s1)):
                with pytest.raises(ValueError, match="distinct windows on one "
                                   "communicator and one channel"):
                    fence(*group)
            assert comm.process.stats["messages_sent"] == sent
            s1.put((comm.rank + 1) % comm.size, [1.0])
            fence(s1, s2)  # one shared instance is one channel
            return s1.local.tolist()

        assert VirtualMachine(2).run(spmd).values == [[1.0, 0.0]] * 2

    def test_mismatched_group_sizes_raise_and_apply_nothing(self):
        def spmd(comm):
            a = Window(comm, np.zeros(2))
            b = Window(comm, np.zeros(2))
            a.put(0, [float(comm.rank + 1)], start=1)
            try:
                fence(a, b) if comm.rank == 0 else fence(a)
            except RuntimeError as exc:
                return str(exc), a.local.tolist()
            return None, a.local.tolist()

        res = VirtualMachine(3, check_leaks=False).run(spmd)
        errors = [err for err, _ in res.values]
        assert all(errors), errors
        assert "rank 0 fenced windows (0, 1)" in errors[0]
        assert "carries windows (0,)" in errors[0]
        assert "carries windows (0, 1)" in errors[1]
        # the puts bound for rank 0's window never applied
        assert res.values[0][1] == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_reliable_group_under_chaos_matches_oracle(self, seed):
        plan = FaultPlan(
            seed=seed,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("rma",))
        scripts = _group_scripts(seed)
        res = VirtualMachine(P, faults=plan, recv_timeout_s=5.0).run(
            _group_program(scripts, True))
        _assert_group_matches_oracle(res, scripts)
        faults = {k: res.total_stat(k)
                  for k in ("faults_drop", "faults_dup", "faults_hold")}
        assert all(faults.values()), faults


class TestLocalStores:
    def test_peer_get_sees_a_local_write_made_after_it_was_issued(self):
        """A get is served inside its target's next fence, which in
        program order comes after the target's local stores: the write
        needs no fence of its own (what CP-ALS's factor update uses)."""

        def spmd(comm):
            rank, size = comm.rank, comm.size
            win = Window(comm, np.zeros(4))
            win.fence()
            h = win.get((rank + 1) % size, 0, 4)
            comm.barrier()  # every get is issued before any write below
            win.local[:] = 10.0 * (rank + 1)
            win.fence()
            return h.value.tolist()

        res = VirtualMachine(P).run(spmd)
        for rank, value in enumerate(res.values):
            assert value == [10.0 * ((rank + 1) % P + 1)] * 4
