"""Distributed data parallel object layer tests (the paper's future work)."""

import numpy as np
import pytest

from repro.blockparti import BlockPartiArray
from repro.chaos import ChaosArray
from repro.core import IndexRegion, SectionRegion, mc_new_set_of_regions
from repro.distrib.section import Section
from repro.dobj import (
    BoundArray,
    ParallelObject,
    RemoteError,
    connect,
    serve_objects,
)
from repro.hpf import HPFArray, hpf_sum
from repro.vmachine import ProgramSpec, run_programs
from repro.vmachine.machine import SPMDError

N = 24
VALUES = np.random.default_rng(60).random(N)


class VectorService(ParallelObject):
    """Test object: an HPF vector with a few SPMD methods."""

    def __init__(self, comm):
        self.comm = comm
        self.v = HPFArray.distribute(comm, (N,), ("block",))

    def export_array(self, attr):
        if attr != "v":
            raise KeyError(attr)
        return (
            "hpf", self.v,
            mc_new_set_of_regions(SectionRegion(Section.full((N,)))),
        )

    def total(self):
        return hpf_sum(self.v)

    def scale(self, k):
        self.v.local *= k
        return k

    def explode(self):
        raise RuntimeError("deliberate server-side failure")

    def _private(self):  # pragma: no cover - never remotely callable
        return "secret"


def run_scenario(client_fn, nclient=2, nserver=3):
    def server(ctx):
        return serve_objects(ctx, "client", {"vec": VectorService(ctx.comm)})

    return run_programs(
        [ProgramSpec("client", nclient, client_fn),
         ProgramSpec("server", nserver, server)]
    )


def full_sor():
    return mc_new_set_of_regions(SectionRegion(Section.full((N,))))


class TestBoundArray:
    def test_fields(self):
        b = BoundArray(binding_id=3, obj="vec", attr="v")
        assert b.binding_id == 3
        assert b.local_array is None and not b.closed


class TestCalls:
    def test_call_returns_replicated_value(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            t = vec.call("total")
            broker.shutdown()
            return t

        res = run_scenario(client)
        assert all(v == 0.0 for v in res["client"].values)

    def test_call_with_args(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            got = vec.call("scale", 3.5)
            broker.shutdown()
            return got

        res = run_scenario(client)
        assert res["client"].values == [3.5, 3.5]

    def test_unknown_object(self):
        def client(ctx):
            broker = connect(ctx, "server")
            with pytest.raises(RemoteError, match="no object"):
                broker.object("nope").call("total")
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)

    def test_unknown_method(self):
        def client(ctx):
            broker = connect(ctx, "server")
            with pytest.raises(RemoteError, match="no remote method"):
                broker.object("vec").call("missing")
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)

    def test_private_methods_hidden(self):
        def client(ctx):
            broker = connect(ctx, "server")
            with pytest.raises(RemoteError, match="no remote method"):
                broker.object("vec").call("_private")
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)

    def test_server_side_exception_propagates(self):
        def client(ctx):
            broker = connect(ctx, "server")
            with pytest.raises(RemoteError, match="deliberate"):
                broker.object("vec").call("explode")
            # The server loop survives the failed call.
            assert broker.object("vec").call("total") == 0.0
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)


class TestBulkData:
    def test_push_call_pull_roundtrip(self):
        def client(ctx):
            comm = ctx.comm
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.from_global(comm, VALUES)
            binding = vec.bind("v", "blockparti", local, full_sor())
            vec.push(binding)
            total = vec.call("total")
            vec.call("scale", 2.0)
            out = BlockPartiArray.zeros(comm, (N,))
            vec.pull(binding, out)
            got = out.gather_global()
            broker.shutdown()
            if comm.rank == 0:
                assert np.isclose(total, VALUES.sum())
                np.testing.assert_allclose(got, 2.0 * VALUES)
            return True

        assert all(run_scenario(client)["client"].values)

    def test_bind_from_chaos_client(self):
        """The client's library need not match the server's."""
        owners = np.random.default_rng(61).integers(0, 2, N)

        def client(ctx):
            comm = ctx.comm
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = ChaosArray.from_global(comm, VALUES, owners % comm.size)
            binding = vec.bind(
                "v", "chaos", local,
                mc_new_set_of_regions(IndexRegion(np.arange(N))),
            )
            vec.push(binding)
            total = vec.call("total")
            broker.shutdown()
            if comm.rank == 0:
                assert np.isclose(total, VALUES.sum())
            return True

        assert all(run_scenario(client)["client"].values)

    def test_bind_unknown_attr_fails_fast(self):
        """A refused bind raises cleanly on the client — neither side
        enters the collective schedule build (no hang, server survives)."""

        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            local = BlockPartiArray.zeros(ctx.comm, (N,))
            with pytest.raises(RemoteError, match="KeyError"):
                vec.bind("w", "blockparti", local, full_sor())
            assert vec.call("total") == 0.0  # server still responsive
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)

    def test_multiple_bindings(self):
        def client(ctx):
            comm = ctx.comm
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            a = BlockPartiArray.from_global(comm, VALUES)
            b = BlockPartiArray.zeros(comm, (N,))
            bind_a = vec.bind("v", "blockparti", a, full_sor())
            bind_b = vec.bind("v", "blockparti", b, full_sor())
            vec.push(bind_a)
            vec.pull(bind_b)
            got = b.gather_global()
            broker.shutdown()
            if comm.rank == 0:
                np.testing.assert_allclose(got, VALUES)
            return True

        assert all(run_scenario(client)["client"].values)

    def test_served_request_count(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            vec.call("total")
            vec.call("total")
            broker.shutdown()
            return True

        res = run_scenario(client)
        # 2 calls; the terminating shutdown is not served work
        assert res["server"].values[0] == 2


class TestOneway:
    def test_oneway_executes_without_reply(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            vec.call_oneway("scale", 2.0)
            vec.call_oneway("scale", 3.0)
            # A synchronous call afterwards observes both effects (the
            # control channel is FIFO).
            local = BlockPartiArray.from_global(ctx.comm, VALUES)
            binding = vec.bind("v", "blockparti", local, full_sor())
            vec.push(binding)
            vec.call_oneway("scale", 10.0)
            total = vec.call("total")
            broker.shutdown()
            if ctx.comm.rank == 0:
                assert np.isclose(total, 10.0 * VALUES.sum())
            return True

        assert all(run_scenario(client)["client"].values)

    def test_oneway_unknown_method_is_dropped(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            vec.call_oneway("nonexistent")  # silently ignored
            assert vec.call("total") == 0.0  # server alive
            broker.shutdown()
            return True

        assert all(run_scenario(client)["client"].values)

    def test_oneway_is_cheap(self):
        def client(ctx):
            broker = connect(ctx, "server")
            vec = broker.object("vec")
            t0 = ctx.comm.process.clock
            vec.call_oneway("scale", 1.0)
            oneway_cost = ctx.comm.process.clock - t0
            t0 = ctx.comm.process.clock
            vec.call("scale", 1.0)
            twoway_cost = ctx.comm.process.clock - t0
            broker.shutdown()
            return oneway_cost < twoway_cost / 2

        assert all(run_scenario(client, nclient=1)["client"].values)


class ChaosService(ParallelObject):
    """Server object whose exported array is irregularly distributed."""

    def __init__(self, comm):
        self.comm = comm
        owners = (np.arange(N) * 7) % comm.size
        self.field = ChaosArray.zeros(comm, owners)

    def export_array(self, attr):
        if attr != "field":
            raise KeyError(attr)
        return (
            "chaos", self.field,
            mc_new_set_of_regions(IndexRegion(np.arange(N))),
        )

    def norm(self):
        local = float(np.abs(self.field.local).sum())
        return self.comm.allreduce(local, lambda a, b: a + b)


class TestIrregularServerExport:
    def test_bind_to_chaos_export(self):
        """The server's side of the binding dereferences a translation
        table; the client never learns the distribution is irregular."""

        def server(ctx):
            return serve_objects(
                ctx, "client", {"sim": ChaosService(ctx.comm)}
            )

        def client(ctx):
            comm = ctx.comm
            broker = connect(ctx, "server")
            sim = broker.object("sim")
            local = BlockPartiArray.from_global(comm, VALUES)
            binding = sim.bind("field", "blockparti", local, full_sor())
            sim.push(binding)
            total = sim.call("norm")
            out = BlockPartiArray.zeros(comm, (N,))
            sim.pull(binding, out)
            got = out.gather_global()
            broker.shutdown()
            if comm.rank == 0:
                assert np.isclose(total, np.abs(VALUES).sum())
                np.testing.assert_allclose(got, VALUES)
            return True

        res = run_programs(
            [ProgramSpec("client", 2, client), ProgramSpec("server", 3, server)]
        )
        assert all(res["client"].values)
