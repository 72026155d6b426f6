"""One-sided windows: put/get/accumulate semantics, fence epochs,
atomics, determinism, accounting and fault-tolerant operation."""

import numpy as np
import pytest

from repro.vmachine import VirtualMachine, Window
from repro.vmachine.faults import FaultPlan, FaultRates, tag_class
from repro.vmachine.machine import SPMDError
from repro.vmachine.payload import payload_nbytes
from repro.vmachine.reliability import Reliability, ReliabilityConfig
from repro.vmachine.trace import MESSAGE_KINDS
from repro.vmachine.window import TAG_RMA_BASE


def run(nprocs, fn, *, faults=None, trace=False, observe=False,
        recv_timeout_s=30.0, **kwargs):
    vm = VirtualMachine(nprocs, faults=faults, trace=trace, observe=observe,
                        recv_timeout_s=recv_timeout_s)
    return vm.run(fn, **kwargs)


class TestBasics:
    def test_put_lands_after_fence(self):
        def spmd(comm):
            win = Window(comm, np.zeros(8))
            # Every rank writes its rank id into slot `rank` of rank 0.
            win.put(0, [float(comm.rank + 1)], start=comm.rank)
            win.fence()
            return win.local.copy()

        res = run(4, spmd)
        np.testing.assert_array_equal(
            res.values[0], [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        for r in range(1, 4):
            assert not res.values[r].any()

    def test_get_reads_remote_state(self):
        def spmd(comm):
            win = Window(comm, np.full(4, float(comm.rank)))
            win.fence()  # epoch 0: publish initial state
            h = win.get((comm.rank + 1) % comm.size)
            win.fence()
            return h.value

        res = run(4, spmd)
        for r in range(4):
            np.testing.assert_array_equal(
                res.values[r], np.full(4, float((r + 1) % 4)))

    def test_get_observes_post_epoch_state(self):
        # A get issued in the same epoch as a put sees the put applied:
        # gets are served after all mutations of the epoch.
        def spmd(comm):
            win = Window(comm, np.zeros(2))
            if comm.rank == 1:
                win.put(0, [7.0, 9.0])
            h = win.get(0) if comm.rank == 2 else None
            win.fence()
            return None if h is None else h.value

        res = run(4, spmd)
        np.testing.assert_array_equal(res.values[2], [7.0, 9.0])

    def test_accumulate_sums_all_origins(self):
        def spmd(comm):
            win = Window(comm, np.zeros(4))
            win.accumulate(0, np.ones(4) * (comm.rank + 1))
            win.fence()
            return win.local.copy()

        res = run(4, spmd)
        np.testing.assert_array_equal(res.values[0], np.full(4, 10.0))

    def test_accumulate_min_max(self):
        def spmd(comm):
            win = Window(comm, np.full(2, 5.0))
            win.accumulate(0, [float(comm.rank)], start=0, op="min")
            win.accumulate(0, [float(comm.rank)], start=1, op="max")
            win.fence()
            return win.local.copy()

        res = run(4, spmd)
        np.testing.assert_array_equal(res.values[0], [0.0, 5.0])

    def test_self_targeted_ops_need_no_message(self):
        def spmd(comm):
            win = Window(comm, np.zeros(4))
            win.put(comm.rank, [1.0, 2.0], start=1)
            h = win.get(comm.rank, 1, 2)
            win.fence()
            sent = comm.process.stats["messages_sent"]
            return h.value, sent

        res = run(2, spmd)
        for value, sent in res.values:
            np.testing.assert_array_equal(value, [1.0, 2.0])
            # Only the fence collectives (alltoall/allgather) sent traffic;
            # self-targeted one-sided ops are local.
            assert sent > 0

    def test_multiple_epochs_reset_state(self):
        def spmd(comm):
            win = Window(comm, np.zeros(2))
            for epoch in range(3):
                win.accumulate(0, [1.0], start=0)
                win.fence()
            assert win.epoch == 3
            return win.local.copy()

        res = run(3, spmd)
        np.testing.assert_array_equal(res.values[0], [9.0, 0.0])

    def test_integer_window(self):
        def spmd(comm):
            win = Window(comm, np.zeros(4, dtype=np.int64))
            win.accumulate(0, np.array([1, 2, 3, 4]))
            win.fence()
            return win.local.copy()

        res = run(2, spmd)
        np.testing.assert_array_equal(res.values[0], [2, 4, 6, 8])


class TestAtomics:
    def test_fetch_add_reserves_disjoint_ranges(self):
        # The BCL queue idiom: every rank reserves `k` slots off a shared
        # tail counter; the returned old values must be distinct multiples
        # of k covering [0, P*k).
        def spmd(comm):
            tail = Window(comm, np.zeros(1, dtype=np.int64))
            h = tail.fetch_add(0, 0, 3)
            tail.fence()
            return int(h.value), int(tail.local[0])

        res = run(4, spmd)
        olds = sorted(v[0] for v in res.values)
        assert olds == [0, 3, 6, 9]
        assert res.values[0][1] == 12

    def test_compare_and_swap_single_winner(self):
        EMPTY = -1

        def spmd(comm):
            win = Window(comm, np.full(1, EMPTY, dtype=np.int64))
            h = win.compare_and_swap(0, 0, EMPTY, comm.rank)
            win.fence()
            return int(h.value), int(win.local[0])

        res = run(4, spmd)
        olds = [v[0] for v in res.values]
        # Exactly one origin saw EMPTY (it won); later ones saw the winner.
        assert olds.count(EMPTY) == 1
        winner = olds.index(EMPTY)
        assert res.values[0][1] == winner

    def test_handle_raises_before_fence(self):
        def spmd(comm):
            win = Window(comm, np.zeros(2))
            h = win.get((comm.rank + 1) % comm.size)
            try:
                h.value
            except RuntimeError:
                premature = True
            else:
                premature = False
            win.fence()
            return premature, h.ready

        res = run(2, spmd)
        for premature, ready in res.values:
            assert premature and ready


class TestValidationAndIsolation:
    def test_rejects_2d_storage(self):
        def spmd(comm):
            Window(comm, np.zeros((2, 2)))

        with pytest.raises(SPMDError):
            run(2, spmd)

    def test_bounds_checked_against_remote_extent(self):
        def spmd(comm):
            # Uneven extents: rank r exposes r+1 elements.
            win = Window(comm, np.zeros(comm.rank + 1))
            err = None
            try:
                win.put(0, [1.0, 2.0])  # rank 0 only exposes 1 element
            except IndexError as e:
                err = str(e)
            win.fence()
            return err

        res = run(3, spmd)
        for err in res.values:
            assert err is not None and "extent" in err

    def test_get_to_the_end_checks_the_target_first(self):
        """``get(target)`` with no ``count`` reads the target's extent:
        an out-of-range target is the same ``ValueError`` every other op
        raises, not an ``IndexError`` from the extent lookup."""

        def spmd(comm):
            win = Window(comm, np.zeros(2))
            for count in (None, 1):
                with pytest.raises(ValueError,
                                   match=f"target rank {comm.size} out of range"):
                    win.get(comm.size, 0, count)
            win.fence()

        run(2, spmd)

    def test_rejects_unknown_accumulate_op(self):
        def spmd(comm):
            win = Window(comm, np.zeros(2))
            with pytest.raises(ValueError):
                win.accumulate(0, [1.0], op="prod")
            win.fence()

        run(2, spmd)

    def test_shared_instance_excludes_creating_one(self):
        """``reliability=rel`` with ``reliable=True`` or a config used to
        be accepted and the config dropped; it is refused before anything
        collective happens (no message sent, no window id drawn)."""

        def spmd(comm):
            rel = Reliability()
            sent = comm.process.stats["messages_sent"]
            for extra in ({"reliable": True},
                          {"reliability_config": ReliabilityConfig(max_retries=2)}):
                with pytest.raises(ValueError, match="not both"):
                    Window(comm, np.zeros(2), reliability=rel, **extra)
            assert comm.process.stats["messages_sent"] == sent
            win = Window(comm, np.zeros(2), reliability=rel)
            assert win._wid == 0 and win._rel is rel
            win.put((comm.rank + 1) % comm.size, [3.0])
            win.fence()
            return win.local.tolist()

        assert run(2, spmd).values == [[3.0, 0.0]] * 2

    def test_two_windows_do_not_cross_match(self):
        def spmd(comm):
            a = Window(comm, np.zeros(2))
            b = Window(comm, np.zeros(2))
            assert a._data_tag != b._data_tag
            if comm.rank == 1:
                a.put(0, [1.0], start=0)
                b.put(0, [2.0], start=1)
            # Interleaved fences: each window drains only its own traffic.
            a.fence()
            b.fence()
            return a.local.copy(), b.local.copy()

        res = run(2, spmd)
        np.testing.assert_array_equal(res.values[0][0], [1.0, 0.0])
        np.testing.assert_array_equal(res.values[0][1], [0.0, 2.0])

    def test_window_tags_classify_as_rma(self):
        def spmd(comm):
            win = Window(comm, np.zeros(1))
            win.fence()
            return win._data_tag, win._resp_tag

        res = run(2, spmd)
        data_tag, resp_tag = res.values[0]
        assert data_tag >= TAG_RMA_BASE
        # Wire tags carry the communicator context stride; the class
        # probe sees through it (and through reliability envelopes).
        assert tag_class(data_tag) == "rma"
        assert tag_class(resp_tag) == "rma"


class TestAccounting:
    def test_put_charges_origin_clock(self):
        # Issuing is free on the origin's clock; the fence pays one
        # injection (o_send + beta * sum of the batch's bytes) per
        # non-self pair, whatever the number of ops buffered for it.
        puts = {0: [np.ones(1024)] + [np.ones(3)] * 9, 2: [np.ones(7)]}
        # what rank 1's fence sends, in its staggered order (2 then 0),
        # and what a rank with nothing to say sends: a one-member group
        # batch is the member ids, then the member's envelope list
        seq = iter(range(100))
        batches = {t: [(0,), [("put", next(seq), 0, d) for d in puts[t]]]
                   for t in (0, 2)}
        wire_nbytes = [payload_nbytes(batches[2]), payload_nbytes(batches[0]),
                       payload_nbytes([(0,), []])]

        def spmd(comm):
            proc = comm.process
            before = proc.clock
            win = Window(comm, np.zeros(1024))
            mid = proc.clock
            if comm.rank == 1:
                for target, arrays in puts.items():
                    for data in arrays:
                        win.put(target, data)
                win.put(1, np.ones(5))          # self: never on the wire
            after_issue = proc.clock
            win.fence()
            return (mid - before, after_issue - mid,
                    [proc.cost.send_occupancy(n, comm._contention)
                     for n in wire_nbytes])

        res = run(3, spmd, observe=True)
        ctor_cost, _, (*per_pair, empty_pair) = res.values[1]
        assert ctor_cost > 0          # allgather is charged
        assert [v[1] for v in res.values] == [0.0, 0.0, 0.0]
        assert not any(s.path.startswith("rma:put/") for s in res.spans[1])
        # the fence's first P-1 wire spans are its sends (then it receives)
        wires = [[s.end - s.start for s in res.spans[r]
                  if s.path == "rma:fence/wire"][:2] for r in range(3)]
        assert wires[1] == pytest.approx(per_pair)
        # a rank that issued nothing pays the bare header: the outer
        # list, the one-id tuple and an empty envelope list
        assert payload_nbytes([(0,), []]) == 8 + 16 + 8
        for r in (0, 2):
            assert wires[r] == pytest.approx([empty_pair] * 2)

    def test_metrics_counters(self):
        def spmd(comm):
            win = Window(comm, np.zeros(8))
            win.put(0, np.ones(4))
            win.accumulate(1, np.ones(2))
            h = win.get(0, 0, 4)
            win.fetch_add(1, 7, 1.0)
            win.fence()
            h.value
            return dict(comm.process.stats)

        res = run(2, spmd)
        s = res.values[0] if res.values[0].get("rma_puts") else res.values[1]
        for rank_stats in res.values:
            assert rank_stats["rma_fences"] == 1
        assert s["rma_puts"] == 1
        assert s["rma_accs"] == 1
        assert s["rma_gets"] == 1
        assert s["rma_fetch_ops"] == 1
        assert s["rma_bytes_put"] == 32
        assert s["rma_bytes_got"] == 32

    def test_trace_annotations_are_not_messages(self):
        def spmd(comm):
            win = Window(comm, np.zeros(4))
            if comm.rank == 1:
                win.put(0, np.ones(2))
            win.fence()
            return None

        res = run(2, spmd, trace=True)
        kinds = {ev.kind for ev in res.traces[1]}
        assert "rma:put" in kinds
        for ev in res.traces[1]:
            if ev.kind.startswith("rma:"):
                assert ev.kind not in MESSAGE_KINDS

    def test_observe_spans_present(self):
        def spmd(comm):
            win = Window(comm, np.zeros(4))
            win.put(0, np.ones(2))
            win.fence()
            return None

        res = run(2, spmd, observe=True)
        names = {s.name for s in res.spans[1]}
        assert "rma:put" in names
        assert "rma:fence" in names


class TestDeterminismAndFaults:
    def test_float_accumulate_is_bitwise_deterministic(self):
        # Many origins accumulate non-commutative float garbage; the
        # (origin, seq) total order makes the result bitwise stable.
        def spmd(comm):
            rng = np.random.default_rng(100 + comm.rank)
            win = Window(comm, np.zeros(16))
            for _ in range(5):
                win.accumulate(0, rng.standard_normal(16) * 1e-3)
            win.fence()
            return win.local.tobytes(), comm.process.clock

        a = run(4, spmd)
        b = run(4, spmd)
        assert a.values[0][0] == b.values[0][0]
        assert a.clocks == b.clocks

    def test_reliable_window_survives_rma_chaos(self):
        plan = FaultPlan(
            seed=13,
            rates=FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2),
            classes=("rma",),
        )

        def spmd(comm):
            win = Window(comm, np.zeros(8), reliable=True)
            win.accumulate(0, np.ones(8) * (comm.rank + 1))
            h = win.get(0, 0, 8)
            win.fence()
            return h.value, dict(comm.process.stats)

        res = run(4, spmd, faults=plan)
        total = sum(range(1, 5))
        dropped = 0
        for value, stats in res.values:
            np.testing.assert_array_equal(value, np.full(8, float(total)))
            dropped += stats.get("faults_drop", 0)
        assert dropped > 0  # the plan actually hit the rma class

    def test_unreliable_window_clean_channel_matches_reliable(self):
        def spmd(comm, reliable):
            win = Window(comm, np.zeros(8), reliable=reliable)
            win.accumulate(0, np.arange(8.0) * (comm.rank + 1))
            win.fence()
            return win.local.copy()

        plain = run(4, spmd, reliable=False)
        reliable = run(4, spmd, reliable=True)
        np.testing.assert_array_equal(plain.values[0], reliable.values[0])
