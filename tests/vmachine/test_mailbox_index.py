"""The ``(source, tag)``-indexed mailbox against the linear-scan one.

The mailbox the index replaced — one deque, every receive a scan in
delivery order — is kept here as the oracle (in the spirit of the
reference inspector and the reference plan interpreter): seeded random
scripts drive both and must see the *same message objects* at every step.
The threaded half checks the wait primitive the index made possible: the
single blocked receiver is woken only by the delivery it waits for, and a
wake-up is never lost, duplicated or left over for the next wait.
"""

import random
import sys
import threading
import time
from collections import deque

import pytest

from repro.vmachine.faults import FailureDetector, RankLostError
from repro.vmachine.message import ANY_SOURCE, ANY_TAG, Mailbox, Message

# -- the oracle ---------------------------------------------------------------


class LinearMailbox:
    """The parent commit's matcher, minus the locking: first match of a
    linear scan in delivery order; wait-any claims by deque position."""

    def __init__(self):
        self.messages = deque()

    def deliver(self, message):
        self.messages.append(message)

    def deliver_many(self, messages):
        self.messages.extend(messages)

    def receive(self, source, tag, tag_range=None):
        for i, msg in enumerate(self.messages):
            if msg.matches(source, tag, tag_range):
                del self.messages[i]
                return msg
        return None

    def receive_any_of(self, patterns):
        """``(k, message)``, or the unmatched sources when incomplete."""
        claimed, candidates, unmatched = set(), [], []
        for k, (source, tag, tag_range) in enumerate(patterns):
            for i, msg in enumerate(self.messages):
                if i not in claimed and msg.matches(source, tag, tag_range):
                    candidates.append((msg.arrival, msg.source, msg.tag, i, k))
                    claimed.add(i)
                    break
            else:
                unmatched.append(source)
        if unmatched:
            return unmatched
        _, _, _, i, k = min(candidates, key=lambda c: (c[0], c[1], c[2]))
        msg = self.messages[i]
        del self.messages[i]
        return k, msg

    def probe(self, source, tag, tag_range=None):
        return any(m.matches(source, tag, tag_range) for m in self.messages)

    def pending_summary(self):
        return [(m.source, m.tag, m.nbytes) for m in self.messages]


def pending_text(summary, limit=8):
    if not summary:
        return "no undelivered envelopes pending"
    # ``format_tag``'s block:user_tag, spelled out (CONTEXT_STRIDE = 1 << 32)
    shown = ", ".join(f"(src={s}, tag={t >> 32}:{t & 0xFFFFFFFF}, {n}B)"
                      for s, t, n in summary[:limit])
    more = f" ... and {len(summary) - limit} more" if len(summary) > limit else ""
    return f"{len(summary)} undelivered envelope(s): {shown}{more}"


# -- seeded scripts -----------------------------------------------------------

SOURCES = (0, 1, 2, 3)
#: two "communicator" tag blocks, so a scoped ANY_TAG has something to exclude
BLOCKS = ((100, 104), (200, 203))
TAGS = tuple(t for lo, hi in BLOCKS for t in range(lo, hi))


def random_pattern(rng):
    source = rng.choice(SOURCES + (ANY_SOURCE,))
    if rng.random() < 0.3:
        return source, ANY_TAG, rng.choice(BLOCKS + (None,))
    return source, rng.choice(TAGS), None


def random_message(rng, serial):
    # few distinct arrivals, so wait-any ties on (arrival, source, tag) occur
    return Message(rng.choice(SOURCES), 9, rng.choice(TAGS), serial,
                   rng.choice((0.0, 1.0, 1.0, 2.5)), rng.randrange(64))


@pytest.mark.parametrize("seed", range(20))
def test_random_scripts_match_the_linear_scan(seed):
    rng = random.Random(seed)
    real, oracle = Mailbox(9), LinearMailbox()
    serial = 0
    for step in range(2000):
        op = rng.random()
        if op < 0.30:
            msg = random_message(rng, serial)
            serial += 1
            real.deliver(msg)
            oracle.deliver(msg)
        elif op < 0.38:
            batch = [random_message(rng, serial + i)
                     for i in range(rng.randrange(1, 5))]
            if rng.random() < 0.5:  # the fault layer's duplicate
                batch.append(batch[0].clone())
            serial += len(batch)
            real.deliver_many(batch)
            oracle.deliver_many(list(batch))
        elif op < 0.68:
            source, tag, tag_range = random_pattern(rng)
            want = oracle.receive(source, tag, tag_range)
            if want is None:
                summary = oracle.pending_summary()
                with pytest.raises(TimeoutError) as ei:
                    real.receive(source, tag, timeout=0, tag_range=tag_range)
                assert str(ei.value).endswith(pending_text(summary))
            else:
                got = real.receive(source, tag, timeout=0, tag_range=tag_range)
                assert got is want, (seed, step)
        elif op < 0.80:
            pattern = random_pattern(rng)
            assert real.probe(*pattern) == oracle.probe(*pattern), (seed, step)
        elif op < 0.97:
            patterns = [random_pattern(rng) for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.4:  # a repeated pattern needs two envelopes
                patterns.append(rng.choice(patterns))
            summary = oracle.pending_summary()
            want = oracle.receive_any_of(patterns)
            if isinstance(want, list):
                with pytest.raises(TimeoutError) as ei:
                    real.receive_any_of(patterns, timeout=0)
                assert str(ei.value).endswith(
                    f"still unmatched sources {want}; {pending_text(summary)}")
            else:
                k, got = real.receive_any_of(patterns, timeout=0)
                assert (k, got) == (want[0], want[1]) and got is want[1], \
                    (seed, step)
        else:
            assert real.pending_summary() == oracle.pending_summary()
        assert real.pending() == len(oracle.messages)
        # a key lives only while it has envelopes queued
        assert all(real._queues.values())
    while oracle.messages:  # drain in delivery order
        assert real.receive(ANY_SOURCE, ANY_TAG, timeout=0) \
            is oracle.receive(ANY_SOURCE, ANY_TAG)
    assert real._queues == {}


def test_distinct_tags_do_not_grow_the_index():
    """Every collective draws a fresh tag; the index must forget them."""
    box = Mailbox(0)
    high = 0
    for tag in range(1 << 24, (1 << 24) + 50_000):
        box.deliver(Message(1, 0, tag, None, 0.0))
        high = max(high, len(box._queues))
        box.receive(1, tag, timeout=0)
    assert high == 1 and box._queues == {}


def test_pending_summary_lists_delivery_order_across_keys():
    box = Mailbox(0)
    order = [(2, 7), (1, 7), (2, 5), (1, 7), (2, 7)]
    for n, (source, tag) in enumerate(order):
        box.deliver(Message(source, 0, tag, None, 0.0, n))
    assert box.pending_summary() == [(s, t, n) for n, (s, t) in enumerate(order)]
    with pytest.raises(TimeoutError, match=r"5 undelivered envelope\(s\): "
                       r"\(src=2, tag=0:7, 0B\), \(src=1, tag=0:7, 1B\), "
                       r"\(src=2, tag=0:5, 2B\)"):
        box.receive(3, 3, timeout=0)


# -- the wait primitive -------------------------------------------------------


def blocked(box, timeout=5.0):
    """Spin until ``box`` has a registered blocked receiver."""
    deadline = time.monotonic() + timeout
    while box._waiting is None:
        assert time.monotonic() < deadline, "receiver never blocked"
        time.sleep(0.0005)


class CountingMailbox(Mailbox):
    """Counts how often the receiver goes (back) to sleep."""

    sleeps = 0

    def _wait(self, awaited, remaining):
        self.sleeps += 1
        super()._wait(awaited, remaining)


def in_thread(fn):
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            out["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, out


def finish(t, out):
    t.join(timeout=10.0)
    assert not t.is_alive()
    return out


class TestTargetedWakeup:
    def test_exact_receiver_sleeps_through_other_keys(self):
        box = CountingMailbox(0)
        t, out = in_thread(lambda: box.receive(1, 1, timeout=5.0))
        blocked(box)
        for n in range(50):  # somebody else's envelopes: no wake-up
            box.deliver(Message(2, 0, 2, n, 0.0))
        box.deliver(Message(1, 0, 1, "mine", 0.0))
        assert finish(t, out)["value"].payload == "mine"
        assert box.sleeps == 1
        assert box.pending() == 50

    def test_wildcard_receiver_wakes_on_any_delivery(self):
        box = CountingMailbox(0)
        t, out = in_thread(
            lambda: box.receive(ANY_SOURCE, 7, timeout=5.0))
        blocked(box)
        box.deliver(Message(2, 0, 2, None, 0.0))  # wakes it, does not match
        blocked(box)
        box.deliver(Message(3, 0, 7, "any", 0.0))
        assert finish(t, out)["value"].payload == "any"
        assert box.sleeps == 2

    def test_wait_any_wakes_until_every_pattern_is_present(self):
        box = CountingMailbox(0)
        patterns = [(1, 5, None), (2, 5, None)]
        t, out = in_thread(lambda: box.receive_any_of(patterns, timeout=5.0))
        blocked(box)
        box.deliver(Message(2, 0, 5, "late", 3.0))
        blocked(box)
        box.deliver(Message(1, 0, 5, "early", 4.0))
        k, msg = finish(t, out)["value"]
        assert (k, msg.payload) == (1, "late") and box.sleeps == 2

    def test_wake_rechecks_without_completing(self):
        box = CountingMailbox(0)
        t, out = in_thread(lambda: box.receive(1, 1, timeout=5.0))
        blocked(box)
        box.wake()
        blocked(box)  # back to sleep: nothing arrived, nobody died
        box.deliver(Message(1, 0, 1, "ok", 0.0))
        assert finish(t, out)["value"].payload == "ok"
        assert box.sleeps == 2

    def test_dead_exact_source_raises_rank_lost(self):
        box = Mailbox(0)
        detector = FailureDetector()
        detector.register(box)
        box.deliver(Message(2, 0, 9, None, 0.0, 16))
        t, out = in_thread(lambda: box.receive(1, 1, timeout=5.0))
        blocked(box)
        detector.mark_dead(1, "boom")
        err = finish(t, out)["error"]
        assert isinstance(err, RankLostError) and "boom" in str(err)
        assert err.pending == [(2, 9, 16)]

    def test_close_unblocks_with_the_closed_error(self):
        box = Mailbox(0)
        t, out = in_thread(lambda: box.receive(1, 1, timeout=5.0))
        blocked(box)
        box.close()
        assert "closed mailbox" in str(finish(t, out)["error"])

    def test_second_blocking_thread_is_refused_at_once(self):
        box = Mailbox(0)
        t, out = in_thread(lambda: box.receive(1, 1, timeout=5.0))
        blocked(box)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="one receiver per mailbox"):
            box.receive(2, 2, timeout=5.0)
        with pytest.raises(RuntimeError, match="one receiver per mailbox"):
            box.receive_any_of([(2, 2, None)], timeout=5.0)
        assert time.monotonic() - t0 < 1.0
        box.deliver(Message(2, 0, 2, "queued", 0.0))
        assert box.receive(2, 2, timeout=5.0).payload == "queued"  # no wait
        box.deliver(Message(1, 0, 1, "first", 0.0))
        assert finish(t, out)["value"].payload == "first"


class TestTimeoutRacesDelivery:
    def test_signal_after_the_timeout_is_consumed(self):
        """The delivery lands after the sleep timed out but before the
        receiver re-takes the lock: it must get the message *and* leave no
        wake-up behind for the next wait."""
        box = Mailbox(0)
        real_wake = box._wake

        class LateSignal:
            def acquire(self, *args, **kwargs):
                box._wake = real_wake
                box.deliver(Message(1, 0, 1, "raced", 0.0))  # signals
                return False  # ... but the sleep had already timed out

        box._wake = LateSignal()
        assert box.receive(1, 1, timeout=5.0).payload == "raced"
        assert real_wake.locked() and box._waiting is None
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            box.receive(1, 1, timeout=0.1)
        assert time.monotonic() - t0 >= 0.1
        assert real_wake.locked()

    def test_short_timeouts_against_a_slow_producer(self):
        box = Mailbox(0)
        n = 300

        def produce():
            rng = random.Random(1)
            for i in range(n):
                time.sleep(rng.random() * 0.001)
                box.deliver(Message(1, 0, 1, i, 0.0))

        t, out = in_thread(produce)
        got, timeouts = [], 0
        deadline = time.monotonic() + 30.0
        while len(got) < n and time.monotonic() < deadline:
            try:
                got.append(box.receive(1, 1, timeout=0.0003).payload)
            except TimeoutError:
                timeouts += 1
        finish(t, out)
        assert got == list(range(n)) and timeouts > 0
        assert box._wake.locked() and box._waiting is None


def test_seven_producers_one_consumer_lose_no_wakeup():
    """Exact, wildcard and wait-any receives alternate while seven threads
    deliver; a missed signal surfaces as a 5 s ``TimeoutError``, a stale
    one as an out-of-order payload or a ``release unlocked lock``."""
    box = Mailbox(0)
    producers, rounds = range(1, 8), 150
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def produce(p):
            for r in range(rounds):
                box.deliver(Message(p, 0, 10, r, 0.0))
                box.deliver_many([Message(p, 0, 20, r, 0.0),
                                  Message(p, 0, 30, r, float(r))])

        threads = [in_thread(lambda p=p: produce(p)) for p in producers]
        seen20 = {p: 0 for p in producers}
        for r in range(rounds):
            for p in producers:
                assert box.receive(p, 10, timeout=5.0).payload == r
            for _ in producers:
                msg = box.receive(ANY_SOURCE, 20, timeout=5.0)
                assert msg.payload == seen20[msg.source]  # pairwise FIFO
                seen20[msg.source] += 1
            left = list(producers)
            while left:
                k, msg = box.receive_any_of(
                    [(p, 30, None) for p in left], timeout=5.0)
                # equal arrivals: the lowest source completes first
                assert (k, msg.source, msg.payload) == (0, left[0], r)
                left.pop(k)
        for t, out in threads:
            assert "error" not in finish(t, out)
    finally:
        sys.setswitchinterval(old)
    assert box.pending() == 0 and box._queues == {}
    assert box._wake.locked() and box._waiting is None
