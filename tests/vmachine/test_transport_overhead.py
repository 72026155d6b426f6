"""Call budget of one message, on the all-hooks-off path and hooked.

A self-addressed ``send`` + ``recv`` on a one-rank machine never waits, so
the number of Python-level calls it makes repeats exactly; counted with
``sys.setprofile``.  All off, over frames from files under ``repro/`` and
``threading.py`` (a ``Condition`` hand-off is Python code too); hooked —
trace, observe, a ``Recorder`` and a ``FaultPlan`` — over frames from
every file, so a generated ``__init__`` (file ``<string>``) counts.

=================================== ======== ======== ========
message                              before   now      budget
=================================== ======== ======== ========
``send(None)`` + ``recv``            38       12       18
4-tuple RMA envelope + ``recv``      47       16       22
hooked ``send(None)`` + ``recv``     48       34       37
reliable fused message, all hooks    156      100      103
=================================== ======== ======== ========

(With the payload table sizing a container's items in its own loop the
RMA envelope is 14.)  The all-off budgets leave room for a few calls, not
for a second ``wire`` span, a ``Condition`` or a per-envelope ``matches``
scan coming back.  The hooked rows' "before" is with a ``_SpanCtx``
(``__init__``/``__enter__``/``__exit__``) per leaf span, a property call
for every phase and path read, and a digest reached through
``_digest`` → ``payload_digest`` → ``canonical_feed`` → a lambda per
declared type; a leaf span now opens in line and closes with one
``close_span`` call, the phase is a plain attribute, and a digest is one
table dispatch.  The reliable fused message is the shape of one
``hooks_on`` channel: a three-segment ``FusedBuffer`` through
``Reliability.over`` with 5 % drop/dup/reorder/delay on the data class,
the flush between the halves, the receive (its drain probe and ack) and
the fence (its flush, the ack's receive and drain probe); with seed 1 the
messages counted are delivered plainly, so the count repeats.  Neither
hooked budget has room for a span context, a phase property or a
per-digest frame to come back.
"""

import numpy as np
import pytest

from repro.core.wire import FusedBuffer, SegmentHeader, WireLayout
from repro.replay.recorder import Recorder
from repro.vmachine import Reliability, VirtualMachine
from repro.vmachine.faults import FaultPlan, FaultRates
from repro.vmachine.tags import TAG_DATA

from helpers import python_calls


def calls_of(fn):
    """``(file, function)`` of every repro/threading call ``fn`` makes."""
    return python_calls(
        fn, lambda p: "/repro/" in p or p.endswith("/threading.py"))


def program(comm, payload, keep=None):
    def message():
        comm.send(0, payload)
        comm.recv(0)

    assert comm.process.hooked == (keep is not None)
    message()  # warm: first-use imports and caches are not the message
    if keep is None:
        first, second = calls_of(message), calls_of(message)
    else:
        first, second = python_calls(message, keep), python_calls(message, keep)
    assert first == second, "the count must repeat exactly"
    return first


@pytest.mark.parametrize("payload, budget", [
    (None, 18),
    (("put", 3, 17, np.zeros(4)), 22),
], ids=["none", "rma-envelope"])
def test_all_off_message_stays_within_its_call_budget(clean_repro_env,
                                                      payload, budget):
    calls = VirtualMachine(1, observe=False, copy_on_send=False).run(
        program, payload).values[0]
    assert len(calls) <= budget, calls
    names = {name for _, name in calls}
    # the functions every message passes through are still real calls
    assert {"send", "recv", "_send_global", "_recv_global", "_account_recv",
            "deliver", "receive", "payload_nbytes"} <= names
    assert not {c for c in calls if c[0] == "threading.py"}


def test_hooked_message_stays_within_its_call_budget(clean_repro_env):
    vm = VirtualMachine(1, trace=True, observe=True, recorder=Recorder(),
                        faults=FaultPlan(seed=5), copy_on_send=False)
    calls = vm.run(program, None, lambda path: True).values[0]
    assert len(calls) <= 37, calls
    names = {name for _, name in calls}
    # every hook still runs, once per message end: one ``wire`` span
    # closed on each end, the fault plan consulted, both ends recorded
    assert {"_send_global", "_account_recv", "pre_send", "rates_for"} <= names
    assert calls.count(("spans.py", "close_span")) == 2, calls
    assert {("recorder.py", "on_send"), ("recorder.py", "on_recv")} <= set(calls)
    assert calls.count(("payload.py", "payload_digest")) == 2, calls
    # but a plan with no crash events counts no operations: nothing reads them
    assert not {("faults.py", "on_send"), ("faults.py", "on_recv")} & set(calls)
    # the one generated __init__ is the Message's: the trace events and
    # span records are built positionally
    assert calls.count(("<string>", "__init__")) == 1, calls
    # no span context, phase property or digest wrapper on the seam
    assert not names & {"span", "tag_class", "_check_crash", "__enter__",
                        "__exit__", "phase", "phase_path", "_digest",
                        "canonical_feed"}


def test_reliable_fused_message_stays_within_its_call_budget(clean_repro_env):
    layout = WireLayout(SegmentHeader(i, "<f8", 4) for i in range(3))

    def program(comm):
        rel = Reliability()
        view = rel.over(comm)
        payload = FusedBuffer(layout, np.zeros(layout.total, np.uint8))

        def message():
            view.send(0, payload, TAG_DATA)
            rel.flush()
            view.recv(0, TAG_DATA)
            rel.fence()

        message()  # warm: the layout's digest rows are compiled here
        count = lambda: python_calls(message, lambda path: True)
        first, second = count(), count()
        assert first == second, "the count must repeat exactly"
        return first

    rates = FaultRates(drop=0.05, dup=0.05, reorder=0.05, delay=0.05)
    vm = VirtualMachine(1, trace=True, observe=True, recorder=Recorder(),
                        faults=FaultPlan(seed=1, rates=rates),
                        copy_on_send=False)
    calls = vm.run(program).values[0]
    assert len(calls) <= 103, calls
    # the data envelope and its ack: two messages, each hashed on both
    # ends and spanned on both ends; a fused digest reaches ``__wire__``
    # through one dispatch, and the fault plan drew for the data message
    assert calls.count(("comm.py", "_send_global")) == 2, calls
    assert calls.count(("spans.py", "close_span")) == 4, calls
    assert calls.count(("payload.py", "payload_digest")) == 4, calls
    assert calls.count(("wire.py", "__wire__")) == 2, calls
    assert calls.count(("faults.py", "apply")) == 2, calls
    # the drain after the receive and the one after the fence are recorded
    assert calls.count(("recorder.py", "on_probe")) == 2, calls
    names = {name for _, name in calls}
    assert not names & {"__enter__", "__exit__", "phase", "phase_path",
                        "_digest", "canonical_feed", "peer_global",
                        "_check_rank", "_wire_tag", "_tag_range", "_first"}
