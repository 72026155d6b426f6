"""Text rendering of a run's cost-term profile.

The ``python -m repro profile`` subcommand prints what the paper's
Tables 3-5 tabulate by hand: *where the logical time went*, per rank and
per analytical cost-model term (see :data:`~repro.observe.metrics.
COST_TERMS`).  The per-rank term totals are exact decompositions of the
rank's logical clock — :func:`format_profile` prints the residual so a
reader can see the attribution closing to within float noise.
"""

from __future__ import annotations

from typing import Sequence

from repro.observe.metrics import COST_TERMS, MetricsSnapshot

__all__ = ["format_profile", "format_phase_table"]


def _fmt_ms(seconds: float, width: int = 10) -> str:
    return f"{seconds * 1e3:{width}.3f}"


def format_profile(
    metrics: Sequence[MetricsSnapshot],
    clocks: Sequence[float],
    unit_label: str = "ms",
) -> str:
    """Per-rank cost-term table plus machine-wide totals.

    ``metrics[r]`` is rank ``r``'s :class:`~repro.observe.metrics.
    MetricsSnapshot`; ``clocks[r]`` its final logical clock (seconds).
    """
    lines = []
    header = f"{'rank':>4}  " + "".join(f"{t:>12}" for t in COST_TERMS)
    lines.append(header + f"{'attributed':>12}{'clock':>12}{'residual':>12}")
    totals = {t: 0.0 for t in COST_TERMS}
    for rank, (snap, clock) in enumerate(zip(metrics, clocks)):
        per_term = snap.term_totals()
        attributed = snap.attributed_seconds()
        row = f"{rank:>4}  "
        for t in COST_TERMS:
            v = per_term.get(t, 0.0)
            totals[t] += v
            row += f"{_fmt_ms(v, 12)}"
        row += f"{_fmt_ms(attributed, 12)}{_fmt_ms(clock, 12)}"
        row += f"{(clock - attributed) * 1e3:>12.2e}"
        lines.append(row)
    total_row = f"{'all':>4}  " + "".join(
        f"{_fmt_ms(totals[t], 12)}" for t in COST_TERMS
    )
    lines.append(total_row)
    lines.append(f"(all values in {unit_label} of logical time)")
    return "\n".join(lines)


def format_phase_table(
    metrics: Sequence[MetricsSnapshot], top: int = 12
) -> str:
    """Machine-wide phase x term breakdown, largest phases first.

    The term columns and ``total`` are exclusive (each charge under its
    innermost span, :meth:`~repro.observe.metrics.MetricsSnapshot.
    phase_totals`); ``inclusive`` is the span's own total, nested spans
    included (:attr:`~repro.observe.metrics.MetricsSnapshot.
    span_seconds`).  Both are summed over ranks.
    """
    agg: dict[str, dict[str, float]] = {}
    inclusive: dict[str, float] = {}
    for snap in metrics:
        for (phase, term), seconds in snap.terms.items():
            agg.setdefault(phase or "(no span)", {}).setdefault(term, 0.0)
            agg[phase or "(no span)"][term] += seconds
        for name, seconds in snap.span_seconds.items():
            agg.setdefault(name, {})
            inclusive[name] = inclusive.get(name, 0.0) + seconds
    order = sorted(agg, key=lambda p: -max(sum(agg[p].values()),
                                           inclusive.get(p, 0.0)))[:top]
    lines = [f"{'phase':<18}" + "".join(f"{t:>12}" for t in COST_TERMS)
             + f"{'total':>12}{'inclusive':>12}"]
    for phase in order:
        row = f"{phase:<18}"
        for t in COST_TERMS:
            row += f"{_fmt_ms(agg[phase].get(t, 0.0), 12)}"
        row += f"{_fmt_ms(sum(agg[phase].values()), 12)}"
        row += (_fmt_ms(inclusive[phase], 12) if phase in inclusive
                else f"{'-':>12}")
        lines.append(row)
    if len(agg) > top:
        lines.append(f"... {len(agg) - top} more phase(s)")
    return "\n".join(lines)
