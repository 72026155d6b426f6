"""The service's keys into the shared store, and its program-layer view.
(The store's schedule/plan contract is ``tests/core/test_store_contract.py``,
run against ``ServiceCache`` too.)"""

import numpy as np

import repro.blockparti  # noqa: F401 - registers the adapter
import repro.hpf  # noqa: F401
from repro.blockparti import BlockPartiArray
from repro.core import (
    ScheduleMethod,
    SectionRegion,
    mc_compute_schedule,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.service.rounds import SlotTable
from repro.service import ServiceCache, array_signature, bind_key
from repro.vmachine import VirtualMachine


def key(i):
    return ("bind", "obj", "attr", ("lib", f"sig{i}"))


def _schedules_in_vm(nprocs=2, n=12):
    """Build two real same-universe schedules (full and strided copies)."""

    def spmd(comm):
        src = BlockPartiArray.from_global(comm, np.arange(n, dtype=float))
        dst = BlockPartiArray.from_global(comm, np.zeros(n))
        full = mc_new_set_of_regions(SectionRegion(Section.full((n,))))
        half = mc_new_set_of_regions(
            SectionRegion(Section((0,), (n,), (2,)))
        )
        s1 = mc_compute_schedule(
            comm, "blockparti", src, full, "blockparti", dst, full,
            ScheduleMethod.COOPERATION,
        )
        s2 = mc_compute_schedule(
            comm, "blockparti", src, half, "blockparti", dst, half,
            ScheduleMethod.COOPERATION,
        )
        return src, s1, s2

    return spmd


class TestProgramLayer:
    def test_program_stats_tracks_lowered_halves(self):
        from repro.core import mc_copy

        def run(comm):
            src, s1, _ = _schedules_in_vm()(comm)
            dst = BlockPartiArray.from_global(
                comm, np.zeros(src.global_shape)
            )
            c = ServiceCache()
            c.store(key(1), s1)
            before = c.program_stats()
            mc_copy(comm, s1, src, dst)  # lowers the halves it executes
            after = c.program_stats()
            return before, after

        res = VirtualMachine(2).run(run)
        before, after = res.values[0]
        assert before["halves_lowered"] == 0
        assert after["halves_lowered"] > 0
        assert after["halves_lowered"] <= after["halves"]


class TestArraySignature:
    def test_signature_content_keyed(self):
        def run(comm):
            a = BlockPartiArray.from_global(comm, np.zeros(16))
            b = BlockPartiArray.from_global(comm, np.ones(16))
            c = BlockPartiArray.from_global(comm, np.zeros(20))
            full16 = mc_new_set_of_regions(
                SectionRegion(Section.full((16,)))
            )
            full16b = mc_new_set_of_regions(
                SectionRegion(Section.full((16,)))
            )
            full20 = mc_new_set_of_regions(
                SectionRegion(Section.full((20,)))
            )
            sa = array_signature("blockparti", a, full16)
            sb = array_signature("blockparti", b, full16b)
            sc = array_signature("blockparti", c, full20)
            return sa == sb, sa == sc, sa

        res = VirtualMachine(2).run(run)
        same, different, sig = res.values[0]
        assert same            # values don't matter, layout does
        assert not different   # size does
        # Every rank computes the identical signature.
        assert all(v[2] == sig for v in res.values)

    def test_bind_key_embeds_signature(self):
        k = bind_key("vec", "v", ("blockparti", "d", "s", "<f8"))
        assert k[0] == "bind" and k[1] == "vec" and k[2] == "v"


class TestSlotPreview:
    def test_preview_matches_acquire_sequence(self):
        t = SlotTable()
        for _ in range(4):
            t.acquire()
        t.release(1)
        t.release(3)
        assert t.preview(3) == [1, 3, 4]
        assert [t.acquire() for _ in range(3)] == [1, 3, 4]

    def test_preview_does_not_mutate(self):
        t = SlotTable()
        assert t.preview(2) == [0, 1]
        assert t.preview(2) == [0, 1]
        assert t.capacity == 0
