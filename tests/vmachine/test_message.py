"""Unit tests for messages and mailboxes."""

import threading
import time

import numpy as np
import pytest

from repro.vmachine.message import ANY_SOURCE, ANY_TAG, Mailbox, Message
from repro.vmachine.payload import payload_nbytes


def msg(source=0, tag=0, payload=None, arrival=0.0):
    return Message(source=source, dest=1, tag=tag, payload=payload, arrival=arrival)


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(None) == 8

    def test_tuple_recursive(self):
        n = payload_nbytes((np.zeros(4), np.zeros(2)))
        assert n == 8 + 32 + 16

    def test_dict_recursive(self):
        n = payload_nbytes({1: np.zeros(2)})
        assert n == 8 + 8 + 16

    def test_object_with_nbytes_attribute(self):
        class Fake:
            nbytes = 123

        assert payload_nbytes(Fake()) == 123

    def test_opaque_object_small_envelope(self):
        assert payload_nbytes(object()) == 64


class TestMatching:
    def test_exact_match(self):
        m = msg(source=3, tag=7)
        assert m.matches(3, 7)
        assert not m.matches(3, 8)
        assert not m.matches(2, 7)

    def test_wildcards(self):
        m = msg(source=3, tag=7)
        assert m.matches(ANY_SOURCE, 7)
        assert m.matches(3, ANY_TAG)
        assert m.matches(ANY_SOURCE, ANY_TAG)


class TestMailbox:
    def test_deliver_then_receive(self):
        mb = Mailbox(0)
        mb.deliver(msg(source=2, tag=5, payload="hi"))
        got = mb.receive(2, 5, timeout=1.0)
        assert got.payload == "hi"

    def test_receive_skips_nonmatching(self):
        mb = Mailbox(0)
        mb.deliver(msg(source=1, tag=1, payload="a"))
        mb.deliver(msg(source=2, tag=2, payload="b"))
        assert mb.receive(2, 2, timeout=1.0).payload == "b"
        assert mb.pending() == 1

    def test_fifo_per_source_tag(self):
        mb = Mailbox(0)
        for i in range(5):
            mb.deliver(msg(source=1, tag=1, payload=i))
        got = [mb.receive(1, 1, timeout=1.0).payload for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_timeout_raises(self):
        mb = Mailbox(0)
        with pytest.raises(TimeoutError, match="timed out"):
            mb.receive(0, 0, timeout=0.05)

    def test_timeout_names_a_lazily_built_context(self):
        mb = Mailbox(0)
        mb.deliver(msg(source=3, tag=4, payload=b"12345678"))
        built = []

        def label():
            built.append(1)
            return "communicator context block 7"

        with pytest.raises(TimeoutError) as ei:
            mb.receive(1, 2, timeout=0.05, context=label)
        text = str(ei.value)
        assert "in communicator context block 7 timed out after 0.05s" in text
        assert "1 undelivered envelope(s): (src=3, tag=0:4, 0B)" in text
        with pytest.raises(TimeoutError, match="context block 7"):
            mb.receive_any_of([(1, 2, None)], timeout=0.05, context=label)
        assert built == [1, 1]

    def test_diagnostics_tell_two_communicators_apart(self):
        # contexts are multiples of 1 << 32, so every pair of communicators
        # differs by a multiple of 1 << 16: ``tag & 0xFFFF`` printed both 7
        from repro.vmachine.comm import CONTEXT_STRIDE
        from repro.vmachine.faults import RankLostError

        one, two = 1 * CONTEXT_STRIDE + 7, 2 * CONTEXT_STRIDE + 7
        assert (one & 0xFFFF) == (two & 0xFFFF) == 7
        mb = Mailbox(0)
        mb.deliver(msg(source=3, tag=one))
        mb.deliver(msg(source=3, tag=two))
        with pytest.raises(TimeoutError) as ei:
            mb.receive(3, 3 * CONTEXT_STRIDE + 7, timeout=0)
        text = str(ei.value)
        assert "receive(source=3, tag=3:7)" in text
        assert "(src=3, tag=1:7, 0B), (src=3, tag=2:7, 0B)" in text
        with pytest.raises(TimeoutError, match=r"tag=-1\)"):
            mb.receive(2, ANY_TAG, timeout=0)
        lost = str(RankLostError(0, 3, "crashed", [(3, one, 8), (3, two, 8)]))
        assert "(src=3, tag=1:7, 8B), (src=3, tag=2:7, 8B)" in lost

    def test_queued_message_reads_no_clock_and_builds_no_label(self, monkeypatch):
        """The hit path: no deadline taken, no diagnostics formatted."""
        import repro.vmachine.message as message

        def forbidden(*args):
            raise AssertionError("not on the hit path")

        mb = Mailbox(0)
        mb.deliver(msg(source=1, tag=1, payload="a"))
        mb.deliver(msg(source=1, tag=2, payload="b"))
        monkeypatch.setattr(message.time, "monotonic", forbidden)
        assert mb.receive(1, 1, timeout=5.0, context=forbidden).payload == "a"
        k, got = mb.receive_any_of([(1, 2, None)], timeout=5.0, context=forbidden)
        assert (k, got.payload) == (0, "b")

    @pytest.mark.parametrize("wait_any", [False, True])
    def test_spurious_wakeups_do_not_extend_the_deadline(self, wait_any):
        mb = Mailbox(0)
        stop = threading.Event()

        def pester():  # bounded, so a deadline that did move still ends
            for _ in range(300):
                if stop.wait(0.01):
                    break
                mb.wake()

        t = threading.Thread(target=pester)
        t.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                if wait_any:
                    mb.receive_any_of([(1, 1, None)], timeout=0.2)
                else:
                    mb.receive(1, 1, timeout=0.2)
        finally:
            stop.set()
            t.join(timeout=5.0)
        assert not t.is_alive()
        assert 0.2 <= time.monotonic() - t0 < 2.0

    def test_blocking_receive_wakes_on_delivery(self):
        mb = Mailbox(0)
        result = []

        def receiver():
            result.append(mb.receive(1, 1, timeout=5.0).payload)

        t = threading.Thread(target=receiver)
        t.start()
        mb.deliver(msg(source=1, tag=1, payload="late"))
        t.join(timeout=5.0)
        assert result == ["late"]

    def test_closed_mailbox_rejects_delivery(self):
        mb = Mailbox(0)
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.deliver(msg())

    def test_closed_mailbox_unblocks_receive(self):
        mb = Mailbox(0)
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.receive(0, 0, timeout=5.0)

    def test_probe(self):
        mb = Mailbox(0)
        assert not mb.probe(1, 1)
        mb.deliver(msg(source=1, tag=1))
        assert mb.probe(1, 1)
        assert not mb.probe(1, 2)


class TestPackArena:
    def _arena(self):
        from repro.vmachine.message import PackArena

        stats = {}
        return PackArena(stats), stats

    def test_size_class_power_of_two(self):
        from repro.vmachine.message import ARENA_MIN_CLASS, PackArena

        assert PackArena.size_class(0) == ARENA_MIN_CLASS
        assert PackArena.size_class(1) == ARENA_MIN_CLASS
        assert PackArena.size_class(ARENA_MIN_CLASS) == ARENA_MIN_CLASS
        assert PackArena.size_class(ARENA_MIN_CLASS + 1) == 2 * ARENA_MIN_CLASS
        assert PackArena.size_class(1000) == 1024
        with pytest.raises(ValueError):
            PackArena.size_class(-1)

    def test_miss_then_hit(self):
        arena, stats = self._arena()
        lease = arena.checkout(300)
        assert len(lease.buffer) == 512
        assert stats["arena_misses"] == 1
        lease.release()
        again = arena.checkout(400)  # same size class
        assert again.buffer is lease.buffer
        assert stats["arena_hits"] == 1
        assert stats["arena_bytes_reused"] == 512

    def test_release_is_idempotent(self):
        arena, _ = self._arena()
        lease = arena.checkout(100)
        lease.release()
        lease.release()  # no double-pooling
        a = arena.checkout(100)
        b = arena.checkout(100)
        assert a.buffer is not b.buffer

    def test_high_water_tracks_total_capacity(self):
        arena, stats = self._arena()
        l1 = arena.checkout(256)
        l2 = arena.checkout(256)
        assert stats["arena_high_water_bytes"] == 512
        l1.release()
        l2.release()
        # Reuse does not grow the footprint ceiling.
        arena.checkout(256)
        assert stats["arena_high_water_bytes"] == 512
        assert arena.owned_bytes == 512

    def test_distinct_size_classes_do_not_mix(self):
        arena, _ = self._arena()
        small = arena.checkout(256)
        small.release()
        big = arena.checkout(2048)
        assert len(big.buffer) == 2048
        assert big.buffer is not small.buffer

    def test_bypass_is_unpooled(self):
        arena, stats = self._arena()
        lease = arena.checkout(256, pooled=False)
        lease.release()
        assert stats["arena_bypass"] == 1
        assert "arena_misses" not in stats
        assert arena.pooled_bytes == 0  # release went nowhere

    def test_checkout_release_charge_no_stats_time(self):
        # The arena is pure bookkeeping: no clock key ever appears.
        arena, stats = self._arena()
        arena.checkout(512).release()
        assert all(k.startswith("arena_") for k in stats)
