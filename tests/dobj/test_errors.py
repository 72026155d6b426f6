"""Error-path coverage for the distributed-object protocol.

The invariant under test throughout: *every* failure mode leaves the
control channel synchronized — after any error, the next request/reply
pairing still lines up, no rank hangs, and binding slots stay consistent
on both programs.
"""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray
from repro.core import SectionRegion, mc_new_set_of_regions
from repro.distrib.section import Section
from repro.dobj import ParallelObject, RemoteError, connect, serve_objects
from repro.hpf import HPFArray, hpf_sum
from repro.vmachine import ProgramSpec, run_programs

N = 24


class VectorService(ParallelObject):
    def __init__(self, comm):
        self.comm = comm
        self.v = HPFArray.distribute(comm, (N,), ("block",))

    def export_array(self, attr):
        if attr == "broken":
            raise RuntimeError("export failed on purpose")
        if attr != "v":
            raise KeyError(attr)
        return (
            "hpf", self.v,
            mc_new_set_of_regions(SectionRegion(Section.full((N,)))),
        )

    def total(self):
        return hpf_sum(self.v)

    def explode(self):
        raise RuntimeError("deliberate failure")


def run_scenario(client_fn, nclient=2, nserver=3):
    def server(ctx):
        return serve_objects(ctx, "client", {"vec": VectorService(ctx.comm)})

    return run_programs(
        [ProgramSpec("client", nclient, client_fn),
         ProgramSpec("server", nserver, server)]
    )


def full_sor():
    return mc_new_set_of_regions(SectionRegion(Section.full((N,))))


class TestOnewayErrors:
    def test_failed_oneway_lookup_does_not_desynchronize(self):
        """A oneway to a missing object/method must produce *no* reply —
        the next call's reply must pair with the next request."""

        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            ghost = broker.object("ghost")
            ghost.call_oneway("total")        # unknown object: lookup fails
            vec.call_oneway("no_such")        # unknown method: dropped
            vec.call_oneway("explode")        # raising method: silenced
            t = vec.call("total")             # must still pair correctly
            broker.shutdown()
            return t

        res = run_scenario(client)
        assert all(v == 0.0 for v in res["client"].values)
        # All three failures were counted (on every server rank — the
        # round is broadcast and each rank executes it), never replied.
        assert all(
            s.get("svc_oneway_errors") == 3 for s in res["server"].stats
        )

    def test_oneway_success_not_counted_as_error(self):
        def client(ctx):
            broker = connect(ctx, "server")
            broker.object("vec").call_oneway("total")
            t = broker.object("vec").call("total")
            broker.shutdown()
            return t

        res = run_scenario(client)
        assert res["server"].total_stat("svc_oneway_errors") == 0.0


class TestReplyOrdering:
    def test_reply_after_error_still_pairs(self):
        """Failed call -> error reply; the following requests must see
        their own replies, not a stale one."""

        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            errors = []
            try:
                vec.call("no_such_method")
            except RemoteError as exc:
                errors.append(str(exc))
            try:
                broker.object("ghost").call("total")
            except RemoteError as exc:
                errors.append(str(exc))
            t = vec.call("total")
            broker.shutdown()
            return (tuple(errors), t)

        res = run_scenario(client)
        for errors, t in res["client"].values:
            assert len(errors) == 2
            assert "no remote method" in errors[0]
            assert "no object" in errors[1]
            assert t == 0.0

    def test_failing_method_then_success(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            with pytest.raises(RemoteError, match="deliberate failure"):
                vec.call("explode")
            t = vec.call("total")
            broker.shutdown()
            return t

        res = run_scenario(client)
        assert all(v == 0.0 for v in res["client"].values)


class TestBindErrors:
    def test_failing_export_does_not_hang(self):
        """A bind whose export_array raises must refuse *before* either
        side enters the collective schedule build."""

        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.from_global(ctx.comm, np.zeros(N))
            outcomes = []
            for attr in ("broken", "missing"):
                try:
                    vec.bind(attr, "blockparti", local, full_sor())
                    outcomes.append("bound")
                except RemoteError as exc:
                    outcomes.append(type(exc).__name__)
            # The channel survived two refused binds; a real bind and a
            # transfer still work.
            b = vec.bind("v", "blockparti", local, full_sor())
            vec.push(b, local)
            t = vec.call("total")
            broker.shutdown()
            return (tuple(outcomes), t)

        res = run_scenario(client)
        for outcomes, t in res["client"].values:
            assert outcomes == ("RemoteError", "RemoteError")
            assert t == 0.0


class TestUnbindAndSlotReuse:
    def test_unbind_then_transfer_raises_locally(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.from_global(ctx.comm, np.zeros(N))
            b = vec.bind("v", "blockparti", local, full_sor())
            b.close()
            try:
                vec.push(b, local)
                outcome = "pushed"
            except RuntimeError as exc:
                outcome = "closed" if "closed binding" in str(exc) else "other"
            broker.shutdown()
            return outcome

        res = run_scenario(client)
        assert all(v == "closed" for v in res["client"].values)

    def test_slots_are_reused_lowest_first(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.from_global(ctx.comm, np.zeros(N))
            b0 = vec.bind("v", "blockparti", local, full_sor())
            b1 = vec.bind("v", "blockparti", local, full_sor())
            b2 = vec.bind("v", "blockparti", local, full_sor())
            ids = (b0.binding_id, b1.binding_id, b2.binding_id)
            broker.unbind(b1)
            b3 = vec.bind("v", "blockparti", local, full_sor())
            reused = b3.binding_id
            # The re-bound slot still moves data.
            vec.push(b3, local)
            broker.shutdown()
            return (ids, reused)

        res = run_scenario(client)
        for ids, reused in res["client"].values:
            assert ids == (0, 1, 2)
            assert reused == 1  # lowest freed slot, not a fresh one

    def test_double_close_is_idempotent(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.from_global(ctx.comm, np.zeros(N))
            b = vec.bind("v", "blockparti", local, full_sor())
            b.close()
            b.close()  # no second unbind request, no error
            broker.shutdown()
            return True

        res = run_scenario(client)
        assert all(res["client"].values)

    def test_unbind_unknown_slot_reports_error(self):
        def client(ctx):
            from repro.service.protocol import UnbindOp

            broker = connect(ctx, "server")
            try:
                broker._round(UnbindOp(0, 7))
                outcome = "ok"
            except RemoteError as exc:
                outcome = "error" if "not live" in str(exc) else "other"
            broker.shutdown()
            return outcome

        res = run_scenario(client)
        assert all(v == "error" for v in res["client"].values)
