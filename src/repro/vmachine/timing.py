"""Logical-clock phase timing.

Benchmarks need per-phase breakdowns ("compute schedule", "send matrix",
"HPF program", "send/recv vector" in Figures 10-14).  :class:`PhaseTimer`
accumulates logical-clock time per named phase on one rank;
:func:`merge_timings` combines the per-rank reports the way the paper does
(maximum across ranks — the time a phase takes is the time the slowest
processor spends in it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseTimer", "TimingReport", "merge_timings"]


@dataclass
class TimingReport:
    """Per-phase logical seconds for one rank (or merged across ranks)."""

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def get_ms(self, phase: str) -> float:
        """Accumulated time of ``phase`` in milliseconds (0 if never timed)."""
        return self.phases.get(phase, 0.0) * 1e3

    def total_ms(self) -> float:
        return sum(self.phases.values()) * 1e3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in sorted(self.phases.items()))
        return f"TimingReport({body})"


class PhaseTimer:
    """Accumulates elapsed logical time per phase for one process.

    Used as::

        with proc.timer.phase("schedule"):
            ...  # any logical-clock charges land in the "schedule" bucket

    Nested phases are allowed.  Each phase samples the clock on entry and
    exit, so an outer phase's time *includes* the time of the phases
    nested in it (inclusive, not self, time) — and
    :meth:`TimingReport.total_ms` over nested phases counts the inner
    time once per enclosing phase.
    """

    def __init__(self, clock_fn):
        self._clock_fn = clock_fn
        self.report = TimingReport()

    def phase(self, name: str) -> "_PhaseContext":
        return _PhaseContext(self, name)


class _PhaseContext:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._start = self._timer._clock_fn()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = self._timer._clock_fn() - self._start
        self._timer.report.add(self._name, elapsed)


def merge_timings(reports: list[TimingReport], how: str = "max") -> TimingReport:
    """Merge per-rank reports into one machine-level report.

    ``how="max"`` (default) reports the slowest rank per phase, which is
    what an SPMD program's elapsed time per phase actually is.  ``"sum"``
    and ``"mean"`` are available for utilization-style analyses.
    """
    merged = TimingReport()
    keys: set[str] = set()
    for r in reports:
        keys.update(r.phases)
    # Sorted, not raw set order: string-set iteration is salted per
    # interpreter (PYTHONHASHSEED), and the merged dict's insertion order
    # leaks into serialized reports — replay-divergence checking demands
    # bit-stable output for identical inputs.
    for key in sorted(keys):
        values = [r.phases.get(key, 0.0) for r in reports]
        if how == "max":
            merged.phases[key] = max(values)
        elif how == "sum":
            merged.phases[key] = sum(values)
        elif how == "mean":
            merged.phases[key] = sum(values) / len(values)
        else:
            raise ValueError(f"unknown merge mode {how!r}")
    return merged
