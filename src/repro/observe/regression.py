"""Benchmark-trajectory regression detection.

:func:`compare_benchmarks` diffs two ``BENCH_*.json`` documents (the
ablation benchmarks' committed baselines vs. a fresh run) and reports
every logical-elapsed metric — any numeric ``*_ms`` field inside
``results`` that is not a ``*wall*_ms`` wall-clock leaf — that *regressed* (grew) by more than a threshold
percentage, or that was *removed* from the regenerated document (a
vanished timing leaf is a failure, not a silent skip).  ``benchmarks/check_regression.py`` wraps this in a CLI that
exits nonzero when regressions are found, which is how CI turns "the
OVERLAP executor got slower" into a red build instead of a silently
drifting JSON.

Only growth is flagged: these are cost trajectories, so smaller is
better, and an improvement merely changes the baseline the next commit
should re-record.  Non-``_ms`` fields (message counts, byte totals,
booleans) are compared for *exact* drift separately — a changed message
count is a behaviour change, not a perf regression, and gets reported as
such.  Host-time leaves (``*wall*``, ``*_s``, ``*_per_s``: noisy run to
run, measured properly by ``perf/``) are compared in neither pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["Regression", "Drift", "compare_benchmarks", "iter_ms_fields"]


@dataclass(frozen=True)
class Regression:
    """One elapsed-time metric that grew past the threshold — or vanished.

    ``current is None`` means the ``*_ms`` leaf was *removed* from the
    regenerated trajectory: a guard that silently forgets a timing field
    it used to watch is no guard at all, so a removed leaf fails the
    check just like a grown one.
    """

    config: str     # key inside the document's "results" mapping
    field: str      # dotted path of the *_ms field
    baseline: float
    current: float | None

    @property
    def pct(self) -> float:
        if self.current is None:
            return float("inf")
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 0.0
        return (self.current - self.baseline) / self.baseline * 100.0

    def __str__(self) -> str:
        if self.current is None:
            return (
                f"{self.config}: {self.field} {self.baseline:.4f} ms -> "
                "MISSING (timing leaf removed from trajectory)"
            )
        return (
            f"{self.config}: {self.field} {self.baseline:.4f} -> "
            f"{self.current:.4f} ms (+{self.pct:.1f}%)"
        )


@dataclass(frozen=True)
class Drift:
    """A non-timing field whose value changed (behavioural drift)."""

    config: str
    field: str
    baseline: Any
    current: Any

    def __str__(self) -> str:
        return (
            f"{self.config}: {self.field} changed "
            f"{self.baseline!r} -> {self.current!r}"
        )


def _is_host_time(key: Any) -> bool:
    """Is ``key`` a host wall-clock leaf rather than a logical one?

    ``*wall*`` (``search_wall_ms``, ``wall_s``), seconds ``*_s``
    (``loop_s``, ``compiled_s``) and rates ``*_per_s``
    (``throughput_ops_per_s``; also an ``_s`` suffix): every logical
    duration in a ``BENCH_*.json`` is spelled ``*_ms``.
    """
    return isinstance(key, str) and ("wall" in key or key.endswith("_s"))


def iter_ms_fields(node: Any, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric model-time ``*_ms``
    leaf.

    A ``*wall*_ms`` leaf (``search_wall_ms``, ``wall_ms`` ...) is host
    wall-clock time — noisy run to run and measured properly by
    ``perf/`` — so it is never held to the logical clock's growth bound.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                isinstance(key, str)
                and key.endswith("_ms")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                if not _is_host_time(key):
                    yield path, float(value)
            else:
                yield from iter_ms_fields(value, path)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from iter_ms_fields(value, f"{prefix}[{i}]")


def _iter_other_fields(node: Any, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Non-``_ms``, non-host-time scalar leaves, for exact-drift comparison."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                yield from _iter_other_fields(value, path)
            elif not (isinstance(key, str) and key.endswith("_ms")):
                # Percent fields are derived from the _ms fields; skip them
                # so one regression is not double-reported.
                if isinstance(key, str) and key.endswith("_pct"):
                    continue
                if not _is_host_time(key):
                    yield path, value
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, (dict, list)):
                yield from _iter_other_fields(value, f"{prefix}[{i}]")
            else:
                yield f"{prefix}[{i}]", value


def compare_benchmarks(
    baseline: dict,
    current: dict,
    threshold_pct: float = 10.0,
) -> tuple[list[Regression], list[Drift]]:
    """Diff two benchmark documents.

    Returns ``(regressions, drifts)``: ``regressions`` are ``*_ms``
    fields that grew by more than ``threshold_pct`` percent **or were
    removed** from the current document (``Regression.current is None``
    — a guard must not silently skip a timing leaf it used to watch);
    ``drifts`` are configurations, *added* timing leaves, or non-timing
    fields that appeared, vanished, or changed value exactly.
    """
    regressions: list[Regression] = []
    drifts: list[Drift] = []
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    for config in sorted(set(base_results) | set(cur_results)):
        if config not in cur_results:
            drifts.append(Drift(config, "(config)", "present", "missing"))
            continue
        if config not in base_results:
            drifts.append(Drift(config, "(config)", "missing", "present"))
            continue
        base_ms = dict(iter_ms_fields(base_results[config]))
        cur_ms = dict(iter_ms_fields(cur_results[config]))
        for field in sorted(set(base_ms) | set(cur_ms)):
            if field not in cur_ms:
                # Removed timing leaf: fail, don't drift — otherwise a
                # regenerated trajectory can drop a watched metric and
                # the guard passes forever after.
                regressions.append(
                    Regression(config, field, base_ms[field], None)
                )
                continue
            if field not in base_ms:
                drifts.append(Drift(config, field, "missing", cur_ms[field]))
                continue
            b, c = base_ms[field], cur_ms[field]
            if c > b and (b == 0 or (c - b) / b * 100.0 > threshold_pct):
                regressions.append(Regression(config, field, b, c))
        base_other = dict(_iter_other_fields(base_results[config]))
        cur_other = dict(_iter_other_fields(cur_results[config]))
        for field in sorted(set(base_other) | set(cur_other)):
            b = base_other.get(field, "missing")
            c = cur_other.get(field, "missing")
            if b != c:
                drifts.append(Drift(config, field, b, c))
    return regressions, drifts
