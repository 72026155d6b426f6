"""Coupled-mesh application tests (§5.1-5.2 machinery)."""

import numpy as np
import pytest

from repro.apps import coupled
from repro.apps.coupled import (
    run_coupled_single_program,
    run_coupled_two_programs,
)
from repro.apps.meshes import full_remap_mapping, grid_mesh
from repro.observe import format_phase_table
from repro.vmachine import VirtualMachine

SHAPE = (12, 12)
MESH = grid_mesh(12, 12)
MAPPING = full_remap_mapping(SHAPE, 144, seed=5)


class TestSingleProgram:
    @pytest.mark.parametrize("remap", ["mc-coop", "mc-dup", "chaos"])
    def test_runs_and_reports_phases(self, remap):
        t = run_coupled_single_program(
            4, SHAPE, MESH, MAPPING, timesteps=2, remap=remap
        )
        assert t.inspector_ms > 0
        assert t.executor_per_iter_ms > 0
        assert t.sched_ms > 0
        assert t.copy_per_iter_ms > 0
        assert t.timesteps == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="remap"):
            run_coupled_single_program(2, SHAPE, MESH, MAPPING, remap="pvm")

    def test_duplication_costs_more_than_cooperation(self):
        coop = run_coupled_single_program(4, SHAPE, MESH, MAPPING, remap="mc-coop")
        dup = run_coupled_single_program(4, SHAPE, MESH, MAPPING, remap="mc-dup")
        assert dup.sched_ms > coop.sched_ms

    def test_sched_time_decreases_with_procs(self):
        t2 = run_coupled_single_program(2, SHAPE, MESH, MAPPING, remap="mc-coop")
        t8 = run_coupled_single_program(8, SHAPE, MESH, MAPPING, remap="mc-coop")
        assert t8.sched_ms < t2.sched_ms

    def test_block_partition_variant(self):
        t = run_coupled_single_program(
            2, SHAPE, MESH, MAPPING, remap="mc-coop", partition="block"
        )
        assert t.sched_ms > 0


class TestTwoPrograms:
    def test_runs_and_reports(self):
        t = run_coupled_two_programs(2, 2, SHAPE, MESH, MAPPING, timesteps=2)
        assert t.sched_ms > 0
        assert t.copy_per_iter_ms > 0

    def test_schedule_time_tracks_irregular_side(self):
        """Paper Table 3: 'most of the work is performed in Pirreg' —
        the build speeds up with more irregular-side processors, not with
        more regular-side processors."""
        base = run_coupled_two_programs(2, 2, SHAPE, MESH, MAPPING).sched_ms
        more_reg = run_coupled_two_programs(8, 2, SHAPE, MESH, MAPPING).sched_ms
        more_irr = run_coupled_two_programs(2, 8, SHAPE, MESH, MAPPING).sched_ms
        assert more_irr < 0.7 * base
        assert abs(more_reg - base) < 0.5 * base

    def test_copy_roughly_symmetric_in_program_sizes(self):
        """Paper Table 4: copy time is symmetric (both programs are source
        and destination once per step)."""
        a = run_coupled_two_programs(2, 4, SHAPE, MESH, MAPPING).copy_per_iter_ms
        b = run_coupled_two_programs(4, 2, SHAPE, MESH, MAPPING).copy_per_iter_ms
        assert abs(a - b) < 0.6 * max(a, b)


class TestPhasesAreSpans:
    """The paper's phases are ordinary spans: an observed run shows them
    next to the runtime's own, and observing moves no phase's time."""

    PHASES = ("inspector", "sched", "executor", "copy")
    #: opened per message or copy, and only when something reads labels
    LEAVES = {"wire", "pack", "unpack", "copy:local"}

    def coupled_run(self, monkeypatch, observe):
        results = []

        class Machine(VirtualMachine):
            def __init__(self, nprocs, profile):
                super().__init__(nprocs, profile, observe=observe)

            def run(self, fn):
                results.append(super().run(fn))
                return results[-1]

        monkeypatch.setattr(coupled, "VirtualMachine", Machine)
        timings = run_coupled_single_program(4, SHAPE, MESH, MAPPING)
        return timings, results[0]

    def test_observed_run_shows_the_phases(self, monkeypatch):
        _, result = self.coupled_run(monkeypatch, observe=True)
        for spans in result.spans:
            names = {s.name for s in spans}
            assert set(self.PHASES) <= names
            assert "copy/copy:execute" in {s.path for s in spans}
        table = format_phase_table(result.metrics, top=100)
        rows = {line.split()[0] for line in table.splitlines()[1:]}
        assert set(self.PHASES) <= rows

    def test_observing_moves_no_phase_time(self, monkeypatch):
        off_timings, off = self.coupled_run(monkeypatch, observe=False)
        on_timings, on = self.coupled_run(monkeypatch, observe=True)
        assert on_timings == off_timings
        names = set().union(*(m.span_seconds for m in on.metrics))
        assert self.LEAVES <= names
        for name in names - self.LEAVES:
            assert on.span_ms(name) == off.span_ms(name), name


class TestNumericalEquivalence:
    """The three remap backends implement the same physics, and the
    results are processor-count invariant."""

    def test_backends_agree(self):
        sums = {
            remap: run_coupled_single_program(
                4, SHAPE, MESH, MAPPING, timesteps=3, remap=remap
            ).checksum
            for remap in ("mc-coop", "mc-dup", "chaos")
        }
        assert np.isclose(sums["mc-coop"], sums["mc-dup"])
        assert np.isclose(sums["mc-coop"], sums["chaos"])

    def test_processor_count_invariance(self):
        base = run_coupled_single_program(
            1, SHAPE, MESH, MAPPING, timesteps=2
        ).checksum
        for p in (2, 3, 8):
            got = run_coupled_single_program(
                p, SHAPE, MESH, MAPPING, timesteps=2
            ).checksum
            assert np.isclose(got, base), f"P={p}: {got} != {base}"

    def test_partition_invariance(self):
        rcb = run_coupled_single_program(
            4, SHAPE, MESH, MAPPING, timesteps=2, partition="rcb"
        ).checksum
        blk = run_coupled_single_program(
            4, SHAPE, MESH, MAPPING, timesteps=2, partition="block"
        ).checksum
        assert np.isclose(rcb, blk)

    def test_two_programs_match_single_program(self):
        single = run_coupled_single_program(
            4, SHAPE, MESH, MAPPING, timesteps=2
        ).checksum
        double = run_coupled_two_programs(
            2, 2, SHAPE, MESH, MAPPING, timesteps=2
        ).checksum
        assert np.isclose(single, double)
