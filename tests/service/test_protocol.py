"""Wire-record tests of the service protocol (the one RPC stack: the
``repro.dobj`` façade ships these same records, one op per round)."""

import dataclasses
import pickle
import subprocess
import sys

import pytest

from repro.service.protocol import (
    PUSH,
    BatchReply,
    CallOp,
    MoveOp,
    Reply,
    ServiceBatch,
    ServiceConfig,
    ShutdownOp,
)


class TestReply:
    def test_defaults(self):
        r = Reply(ok=True)
        assert r.value is None and r.error == "" and r.binding == -1

    def test_nbytes_constant(self):
        assert Reply(ok=True).nbytes == Reply(ok=False, error="x" * 100).nbytes

    def test_error_carrier(self):
        r = Reply(ok=False, error="KeyError: nope")
        assert not r.ok and "KeyError" in r.error


class TestCallOp:
    def test_defaults(self):
        op = CallOp(0, "o", "m")
        assert op.args == () and not op.oneway

    def test_nbytes_is_envelope_plus_real_pickled_args(self):
        assert CallOp(0, "o", "m").nbytes == 48
        # Real pickled argument size, not a per-arg flat rate.
        assert CallOp(0, "o", "m", (1, 2, 3)).nbytes == 48 + len(
            pickle.dumps((1, 2, 3), protocol=4)
        )
        big = CallOp(0, "o", "m", ("x" * 4096,))
        assert big.nbytes > 4096
        assert big.nbytes == big.nbytes

    def test_frozen(self):
        with pytest.raises(Exception):
            CallOp(0, "o", "m").method = "other"  # type: ignore[misc]


class TestExpectsReply:
    """A round gets a ``BatchReply`` iff some server-visible op has a
    reply slot — both programs read the rule off the batch."""

    def test_all_oneway_round_expects_none(self):
        oneway = CallOp(0, "o", "m", oneway=True)
        assert not ServiceBatch(0, (oneway, oneway)).expects_reply
        assert not ServiceBatch(0, ()).expects_reply

    def test_any_replying_op_expects_one(self):
        oneway = CallOp(0, "o", "m", oneway=True)
        for op in (CallOp(1, "o", "m"), MoveOp(1, 0, PUSH), ShutdownOp()):
            assert ServiceBatch(0, (oneway, op)).expects_reply


class TestNbytes:
    def test_batch_reply_carries_its_replies_only(self):
        """No server counters ride the reply: the gateway's store is a
        replica of the server's, so it already holds them."""
        assert BatchReply(0, (Reply(ok=True),)).nbytes == 32 + 64

    def test_fingerprint_costs_16_bytes_per_field(self):
        fingerprint = ServiceConfig().fingerprint()
        assert [name for name, _ in fingerprint] == [
            "schedule_cache_size", "reliability"]
        op = CallOp(0, "o", "m")
        plain = ServiceBatch(0, (op,))
        first = ServiceBatch(0, (op,), fingerprint)
        assert first.nbytes == plain.nbytes + 16 * 2


class TestServiceConfig:
    def test_fingerprint_is_what_both_programs_must_share(self):
        base = ServiceConfig()
        # per program: admission is the gateway's, policy orders local work
        for same in (ServiceConfig(max_queue_depth=2),
                     ServiceConfig(max_inflight_per_tenant=1),
                     ServiceConfig(policy="overlap")):
            assert same.fingerprint() == base.fingerprint()
        for other in (ServiceConfig(schedule_cache_size=1),
                      ServiceConfig(reliability=True)):
            assert other.fingerprint() != base.fingerprint()

    def test_five_settable_fields(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "max_queue_depth", "max_inflight_per_tenant",
            "schedule_cache_size", "policy", "reliability"]


def test_service_does_not_import_the_dobj_facade():
    """The dependency points one way: ``dobj -> service``, never back."""
    code = (
        "import sys, repro.service, repro.apps.service_demo; "
        "assert 'repro.dobj' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
