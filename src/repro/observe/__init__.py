"""Phase-attributed observability: spans, cost-term metrics, exporters.

The package answers the question the paper's tables answer — *where did
the logical time go?* — for any run on the virtual machine:

:mod:`repro.observe.spans`
    Zero-clock-charge phase spans (:meth:`~repro.vmachine.process.
    Process.span`).  The span *stack* (it labels trace events and
    metrics) and each name's inclusive logical-time total are always on;
    the span *log* only accumulates when observability is enabled.

:mod:`repro.observe.metrics`
    Per-rank :class:`MetricsRegistry`: named counters and span totals
    (always on) plus opt-in cost-term attribution — every clock advance
    bucketed by ``(phase, term)`` with the exact floating-point delta,
    so the term sum reproduces the rank's clock.

:mod:`repro.observe.perfetto`
    Chrome/Perfetto ``trace.json`` export: one track per rank, spans as
    duration events, messages as flow arrows, faults/fusions as
    instants.

:mod:`repro.observe.report`
    Text profile rendering (``python -m repro profile``).

Enable per run with ``VirtualMachine(observe=True)`` /
``run_programs(observe=True)`` or globally with ``REPRO_OBSERVE=1``.
Observability is *zero-cost to the logical clocks*: published tables are
byte-identical with it on or off (guarded in CI).
"""

from repro.observe.metrics import COST_TERMS, MetricsRegistry, MetricsSnapshot
from repro.observe.perfetto import (
    chrome_trace,
    export_chrome_trace,
    write_chrome_trace,
)
from repro.observe.report import format_phase_table, format_profile
from repro.observe.spans import SpanRecord, span_on

__all__ = [
    "COST_TERMS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SpanRecord",
    "span_on",
    "chrome_trace",
    "export_chrome_trace",
    "write_chrome_trace",
    "format_profile",
    "format_phase_table",
]
