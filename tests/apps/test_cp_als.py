"""Sparse CP-ALS (hash-map assembly, scheduled sweep) vs the serial oracle."""

import hashlib

import numpy as np
import pytest

from repro.apps import cp_als
from repro.apps.cp_als import cp_als_serial, cp_als_spmd, sparse_entries
from repro.chaos.array import ChaosArray
from repro.containers import DistHashMap
from repro.hpf.array import HPFArray
from repro.vmachine import VirtualMachine
from repro.vmachine.comm import Communicator

SHAPE = (12, 11, 10)
R = 3
NNZ = 200
ITERS = 3
SEED = 7


def run(nprocs, **kwargs):
    args = {"shape": SHAPE, "R": R, "nnz": NNZ, "iters": ITERS, "seed": SEED,
            **kwargs}

    def spmd(comm):
        return cp_als_spmd(comm, **args)

    return VirtualMachine(nprocs, recv_timeout_s=60.0).run(spmd)


@pytest.fixture(scope="module")
def oracle():
    return cp_als_serial(SHAPE, R, NNZ, ITERS, SEED)


#: sha256 of the gathered factors' bytes (factor 0, 1, 2 concatenated) for
#: SHAPE, R, NNZ and ITERS: a change of summation order moves these, and
#: so does a change of which rank holds a nonzero (its home rank)
DIGESTS = {
    (3, 7): "0f2c02d751193d8be0faca339db234c5bb3ea65a7b46b87bd4732937e31d055a",
    (3, 12): "46a48569f6147c0d6f5d612bf93a7a7104b62073722ce6082c5bf47cc970888d",
    (3, 1009): "d8062aad218b51cb4bb7b19dab9bd332e1dee954f89b53beb51ddb2de2e10ea8",
    (4, 7): "e17a7e7d0b05a44bd073409d4c43eb83fedcba42fb2e0e6b518ced5fb9080ced",
    (4, 12): "3374f57555bf727b8691bb08b1cc0726ad75e4e145bcb1ec81748e1ecaf704dc",
    (4, 1009): "81535a90369660d67b3ef89795b06802bebba2f3895a5e6e0c5967e78cfd57c5",
    (8, 7): "cb4a60eb80f64d429b343d2d9af7016fec2f1e2b6cc9a046af808d12bc62123a",
    (8, 12): "b74531a1c31d3c3415ecdab9ec91cdb625c1a76748a01c4809cc3c86c11df78e",
    (8, 1009): "90b93254f70f7cbab6ac21f5a8c37c38c20246dbc238ad9356b281bea4cdfa04",
    (16, 7): "d077f9a4b2faa6fffb9f68e8d3e2daffd4f2c007d3fabbeed92882cfac5e9020",
    (16, 12): "7537d97b7342b6c6eddc4586c68640f2d0163e71c27b0b79ff41b130c19096fb",
    (16, 1009): "3a71c325f0a430bc5c1a195cd552491a3eb1acd1afb9c17f65813ac5d9e87938",
}


def factors_sha256(factors) -> str:
    return hashlib.sha256(b"".join(f.tobytes() for f in factors)).hexdigest()


class TestOracleMatch:
    @pytest.mark.parametrize("nprocs", [4, 8, 16])
    def test_accumulate_variant_matches(self, oracle, nprocs):
        res = run(nprocs)
        for r in range(nprocs):
            out = res.values[r]
            assert len(out.factors) == 3
            for mode in range(3):
                np.testing.assert_allclose(
                    out.factors[mode], oracle[mode], rtol=1e-10, atol=1e-12)

    def test_assembly_partitions_all_nonzeros(self):
        res = run(4)
        coords, _ = sparse_entries(SHAPE, NNZ, SEED)
        keys = set(
            (int(c[0]) * SHAPE[1] + int(c[1])) * SHAPE[2] + int(c[2])
            for c in coords)
        assert sum(v.local_nnz for v in res.values) == len(keys)

    def test_one_sided_traffic_is_accounted(self):
        """Only the assembly is one-sided: the sweep issues no window op,
        and each rank fences exactly once per solve — the hash map's
        write."""
        res = run(4)
        setup = run(4, iters=0)
        rma = ("rma_puts", "rma_gets", "rma_accs", "rma_fetch_ops",
               "rma_fences")
        for out, bare in zip(res.values, setup.values):
            assert {k: out.stats.get(k, 0) for k in rma} == {
                k: bare.stats.get(k, 0) for k in rma}
        assert sum(v.stats.get("hashmap_writes", 0) for v in res.values) > 0
        for out in res.values:
            assert out.stats["rma_fences"] == 1

    @pytest.mark.parametrize("nprocs", [3, 4, 8, 16])
    def test_every_key_sits_on_its_home_rank(self, monkeypatch, nprocs):
        """After a solve the deduplicated keys partition exactly, each on
        the rank ``DistHashMap._slot(key, 0)`` names."""
        held = {}
        original = DistHashMap.local_items

        def spy(self):
            items = original(self)
            held[self.comm.rank] = (self, [k for k, _ in items])
            return items

        monkeypatch.setattr(DistHashMap, "local_items", spy)
        run(nprocs)
        coords, _ = sparse_entries(SHAPE, NNZ, SEED)
        keys = {(int(c[0]) * SHAPE[1] + int(c[1])) * SHAPE[2] + int(c[2])
                for c in coords}
        assert len(keys) == 179
        placed = [k for _, mine in held.values() for k in mine]
        assert sorted(placed) == sorted(keys)
        for rank, (hmap, mine) in held.items():
            assert all(hmap._slot(k, 0)[0] == rank for k in mine), rank

    @pytest.mark.parametrize("nprocs,seed", sorted(DIGESTS))
    def test_factors_match_the_pinned_digest(self, nprocs, seed):
        for out in run(nprocs, seed=seed).values:
            assert factors_sha256(out.factors) == DIGESTS[nprocs, seed]

    def test_deterministic_across_runs(self):
        a = run(4)
        b = run(4)
        for mode in range(3):
            assert (a.values[0].factors[mode].tobytes()
                    == b.values[0].factors[mode].tobytes())
        assert a.clocks == b.clocks


def sweep_traffic(monkeypatch, nprocs):
    """Run at ``nprocs`` and return the inspector's answer per rank
    (``asked[rank][reader][m]``: the rank's local rows of factor ``m``
    that ``reader`` reads), the holders of each factor (the ranks whose
    block of it has rows), every sweep send per rank in order as
    ``(tag, dest, what)``, and the scatter messages each rank received.
    A fetch's ``what`` is its factor, found by its payload (the owner's
    rows of it); a scatter's is whether it carried rows."""
    asked, sends, received, built = {}, {}, {}, {}
    original_from_global = HPFArray.from_global.__func__

    def from_global(cls, comm, *args, **kw):
        arr = original_from_global(cls, comm, *args, **kw)
        built.setdefault(comm.rank, []).append(arr)
        return arr

    def spy(name, record):
        original = getattr(Communicator, name)

        def wrapped(self, *args, **kw):
            out = original(self, *args, **kw)
            record(self, out, *args)
            return out

        monkeypatch.setattr(Communicator, name, wrapped)

    def on_exchange(comm, out, payloads):
        asked[comm.rank] = out

    def on_send(comm, out, dest, payload, tag=0):
        if tag == cp_als._TAG_FETCH:
            factors = built[comm.rank]
            [what] = [m for m in range(3)
                      if np.array_equal(factors[m].local_nd[
                          asked[comm.rank][dest][m]], payload)]
        elif tag == cp_als._TAG_SCATTER:
            what = payload[0] is not None
        else:
            return
        sends.setdefault(comm.rank, []).append((tag, dest, what))

    def on_recv(comm, out, source, tag=0, *rest):
        if tag == cp_als._TAG_SCATTER:
            received[comm.rank] = received.get(comm.rank, 0) + 1

    monkeypatch.setattr(HPFArray, "from_global", classmethod(from_global))
    spy("alltoall_sparse", on_exchange)
    spy("send", on_send)
    spy("recv", on_recv)
    res = run(nprocs)
    holders = [{r for r in range(nprocs) if len(built[r][m].local_nd)}
               for m in range(3)]
    return res, asked, holders, sends, received


def by_step(sent, holders, rank):
    """Split one rank's sweep sends into the solve's ``3 * ITERS`` mode
    steps.  Step ``k`` ends in its scatter, one message to each holder of
    factor ``k % 3`` but the rank; its fetches come before it.  A rank
    that sends more or fewer scatter messages fails the split."""
    steps, pending = [], iter(sent)
    for step in range(3 * ITERS):
        want = len(holders[step % 3] - {rank})
        chunk: list = []
        while sum(tag == cp_als._TAG_SCATTER for tag, *_ in chunk) < want:
            chunk.append(next(pending))
        steps.append(chunk)
    assert next(pending, None) is None, rank
    return steps


class TestSweepTraffic:
    """What a sweep puts on the wire: only the factor that changed, one
    fetch message per communicating (owner, reader) pair, and one scatter
    message from every rank to every other holder of the mode's factor —
    no collective."""

    def test_a_mode_fetches_only_the_factor_solved_before_it(self,
                                                             monkeypatch):
        _, _, holders, sends, _ = sweep_traffic(monkeypatch, 4)
        every = set()
        for rank, sent in sends.items():
            for step, chunk in enumerate(by_step(sent, holders, rank)):
                fetched = {m for tag, _, m in chunk
                           if tag == cp_als._TAG_FETCH}
                # every rank drew the initial factors: mode 0 of the
                # first sweep fetches nothing
                stale = set() if step == 0 else {(step - 1) % 3}
                assert fetched <= stale, (rank, step, fetched)
                every |= {(step, m) for m in fetched}
        assert every == {(step, (step - 1) % 3)
                         for step in range(1, 3 * ITERS)}

    def test_one_message_per_communicating_pair(self, monkeypatch):
        nprocs = 8
        res, asked, holders, sends, received = sweep_traffic(monkeypatch,
                                                             nprocs)
        # rows of factor 0 (12 of them) live on ranks 0-5 only
        assert holders[0] == set(range(6))
        assert all(len(asked.get(rank, {}).get(reader, [[]])[0]) == 0
                   for rank in (6, 7) for reader in range(nprocs))
        for rank in range(nprocs):
            readers = [{r for r, rows in asked[rank].items()
                        if r != rank and len(rows[m])} for m in range(3)]
            steps = by_step(sends.get(rank, []), holders, rank)
            for step, chunk in enumerate(steps):
                stale = () if step == 0 else ((step - 1) % 3,)
                for m in stale:
                    dests = [d for tag, d, f in chunk
                             if tag == cp_als._TAG_FETCH and f == m]
                    assert sorted(dests) == sorted(readers[m]), (rank, step)
                # the partials go to every other holder, rows only to the
                # owners I read from
                mode = step % 3
                scatter = {d: rows for tag, d, rows in chunk
                           if tag == cp_als._TAG_SCATTER}
                assert set(scatter) == holders[mode] - {rank}, (rank, step)
                owners = {o for o, rows in asked.items() if o != rank
                          and rank in rows and len(rows[rank][mode])}
                assert {d for d, rows in scatter.items() if rows} == owners
            # a holder hears from every other rank, a non-holder from none
            assert received.get(rank, 0) == (nprocs - 1) * sum(
                rank in holders[step % 3] for step in range(3 * ITERS))
        assert received.get(6, 0) == received.get(7, 0) == 0
        assert not any(tag == cp_als._TAG_FETCH and f == 0
                       for rank in (6, 7) for tag, _, f in sends.get(rank, []))
        for out in res.values[1:]:
            assert factors_sha256(out.factors) == factors_sha256(
                res.values[0].factors)

    def test_ranks_without_nonzeros_still_match_the_oracle(self):
        nnz = 5
        res = VirtualMachine(8, recv_timeout_s=60.0).run(
            lambda comm: cp_als_spmd(comm, shape=SHAPE, R=R, nnz=nnz,
                                     iters=ITERS, seed=SEED))
        assert any(v.local_nnz == 0 for v in res.values)
        expect = cp_als_serial(SHAPE, R, nnz, ITERS, SEED)
        for out in res.values:
            for mode in range(3):
                np.testing.assert_allclose(
                    out.factors[mode], expect[mode], rtol=1e-10, atol=1e-12)

    def test_mttkrp_sums_each_row_in_nonzero_order(self):
        """The sweep's ``np.add.at`` MTTKRP equals, byte for byte, the
        per-nonzero loop it replaced: each target row sums its nonzeros'
        ``v * (a * b)`` in nonzero order."""
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 6, size=(300, 3))
        vals = rng.standard_normal(300)
        rows = [rng.standard_normal((6, R)) for _ in range(3)]
        mode, a, b = 1, 0, 2
        loop: dict[int, np.ndarray] = {}
        for i3, v in zip(coords, vals):
            t = int(i3[mode])
            contrib = v * (rows[a][int(i3[a])] * rows[b][int(i3[b])])
            loop[t] = loop[t] + contrib if t in loop else contrib
        part = np.zeros((6, R))
        np.add.at(part, coords[:, mode], vals[:, None] * (
            rows[a][coords[:, a]] * rows[b][coords[:, b]]))
        for t, row in loop.items():
            assert part[t].tobytes() == row.tobytes()


class TestSetupCollectives:
    """Setup does only what the solve reads: the hash map registers in one
    collective, the inspector's exchange learns its senders in one, the
    factors come home in one, and the sweep runs none (its Grams ride the
    scatter) — on a rank with no nonzeros too (``sparse``: 5 raw
    nonzeros)."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_collectives_per_solve(self, monkeypatch, sparse):
        calls: dict[str, list[int]] = {}

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapped(self, *args, **kw):
                rank = self.comm.rank if cls is ChaosArray else self.rank
                calls.setdefault(name, []).append(rank)
                return original(self, *args, **kw)

            monkeypatch.setattr(cls, name, wrapped)

        for name in ("allgather", "allreduce", "gather", "bcast"):
            spy(Communicator, name)
        spy(ChaosArray, "__init__")
        run(4, **({"nnz": 5} if sparse else {}))
        per_rank = {name: len(ranks) // 4 for name, ranks in calls.items()}
        # hash-map registration + inspector + gather; an allgather is a
        # gather and a bcast; no allreduce
        nall = 3
        assert per_rank == {"allgather": nall, "gather": nall,
                            "bcast": nall}

    @pytest.mark.parametrize("nprocs", [3, 4, 8])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_gather_is_byte_equal_to_gather_global(self, monkeypatch,
                                                   nprocs, sparse):
        built = []
        original = HPFArray.from_global.__func__

        def spy(cls, comm, *args, **kw):
            arr = original(cls, comm, *args, **kw)
            built.append(arr)
            return arr

        monkeypatch.setattr(HPFArray, "from_global", classmethod(spy))

        def spmd(comm):
            out = cp_als_spmd(comm, shape=SHAPE, R=R,
                              nnz=5 if sparse else NNZ, iters=ITERS,
                              seed=SEED)
            mine = [a for a in built if a.comm is comm]
            ref = [comm.bcast(f.gather_global(), root=0) for f in mine]
            return ([f.tobytes() for f in out.factors],
                    [f.tobytes() for f in ref])

        res = VirtualMachine(nprocs, recv_timeout_s=60.0).run(spmd)
        for got, ref in res.values:
            assert got == ref
