"""Call budget of one message, on the all-hooks-off path and hooked.

A self-addressed ``send`` + ``recv`` on a one-rank machine never waits, so
the number of Python-level calls it makes repeats exactly; counted with
``sys.setprofile``.  All off, over frames from files under ``repro/`` and
``threading.py`` (a ``Condition`` hand-off is Python code too); hooked —
trace, observe, a ``Recorder`` and an idle ``FaultPlan`` — over frames
from every file, so a generated ``__init__`` (file ``<string>``) counts.

=================================== ======== ======== ========
message                              before   now      budget
=================================== ======== ======== ========
``send(None)`` + ``recv``            38       12       18
4-tuple RMA envelope + ``recv``      47       16       22
hooked ``send(None)`` + ``recv``     61       48       52
=================================== ======== ======== ========

(With the payload table sizing a container's items in its own loop the
RMA envelope is 14.)  The all-off budgets leave room for a few calls, not
for a second ``wire`` span, a ``Condition`` or a per-envelope ``matches``
scan coming back.  The hooked 61 is with frozen-dataclass trace events
and span records (one generated ``__init__`` each, two of each per
message), ``Process.span`` in front of every leaf span, a ``tag_class``
walk per send and a crash check per operation of a plan with no crash
events; its budget has no room for any of them to come back.  A plan with
no crash events counts no operations either (52 while it did).
"""

import numpy as np
import pytest

from repro.replay.recorder import Recorder
from repro.vmachine import VirtualMachine
from repro.vmachine.faults import FaultPlan

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
    assert len(calls) <= 52, calls
    names = {name for _, name in calls}
    # every hook still runs, once per message end
    assert {"_send_global", "_account_recv",
            "pre_send", "rates_for", "__enter__", "__exit__"} <= names
    assert {("recorder.py", "on_send"), ("recorder.py", "on_recv")} <= set(calls)
    # but a plan with no crash events counts no operations: nothing reads them
    assert not {("faults.py", "on_send"), ("faults.py", "on_recv")} & set(calls)
    # the one generated __init__ is the Message's: the trace events and
    # span records are built positionally, and the seams open their
    # ``wire`` span without Process.span
    assert calls.count(("<string>", "__init__")) == 1, calls
    assert not names & {"span", "tag_class", "_check_crash"}
