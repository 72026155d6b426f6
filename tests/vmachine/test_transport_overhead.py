"""Call budget of one message on the all-hooks-off path.

A self-addressed ``send`` + ``recv`` on a one-rank machine never waits, so
the number of Python-level calls it makes repeats exactly; counted with
``sys.setprofile`` over frames from files under ``repro/`` and
``threading.py`` (a ``Condition`` hand-off is Python code too).

=============================== ======== ======== ========
message                          PR 17    this PR  budget
=============================== ======== ======== ========
``send(None)`` + ``recv``        38       12       18
4-tuple RMA envelope + ``recv``  47       16       22
=============================== ======== ======== ========

(With the payload table sizing a container's items in its own loop the
RMA envelope is 14.)  The budget leaves room for a few calls, not for a
second ``wire`` span, a ``Condition`` or a per-envelope ``matches`` scan
coming back.
"""

import numpy as np
import pytest

from repro.vmachine import VirtualMachine

from helpers import python_calls


def calls_of(fn):
    """``(file, function)`` of every repro/threading call ``fn`` makes."""
    return python_calls(
        fn, lambda p: "/repro/" in p or p.endswith("/threading.py"))


def program(comm, payload):
    def message():
        comm.send(0, payload)
        comm.recv(0)

    assert not comm.process.hooked
    message()  # warm: first-use imports and caches are not the message
    first, second = calls_of(message), calls_of(message)
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
