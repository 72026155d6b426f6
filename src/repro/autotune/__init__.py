"""Cost-model-driven auto-mapper (MODEL.md §14).

Given a host-side :class:`WorkloadSpec` — how many elements move, in
what pattern, how often the schedule is reused — the mapper searches the
mapping space (distribution per side × schedule method × executor
policy × fusion degree × translation-table residency) with a purely
analytical :class:`CostModel`, then optionally validates and calibrates
the winners against measured logical-clock spans.

Layering:

- :mod:`repro.autotune.workload` — workload/mapping descriptions and the
  offline pair/run matrices (no arrays, no VM).
- :mod:`repro.autotune.model` — the two-tier cost model: bit-exact move
  replay + coefficient-corrected build estimates.
- :mod:`repro.autotune.search` — enumeration, structural pruning, and
  branch-and-bound ranking.
- :mod:`repro.autotune.calibrate` — execute candidates under
  ``observe=True``, refit per-term coefficients from measured spans.

``policy="auto"`` is not the mapper's: the move executor resolves it per
rank (:func:`repro.core.policy.resolve_policy`).
"""

from repro.autotune.calibrate import (
    MeasuredRun,
    calibrate,
    measure_mapping,
    validate_top,
)
from repro.autotune.model import TERMS, Coefficients, CostModel, Prediction
from repro.autotune.search import (
    DEFAULT_DIST_MENU,
    SearchResult,
    mapping_space,
    search_mapping,
)
from repro.autotune.workload import (
    DistSpec,
    MappingPoint,
    WorkloadSpec,
    pair_matrix,
    run_matrix,
)

__all__ = [
    "Coefficients",
    "CostModel",
    "DEFAULT_DIST_MENU",
    "DistSpec",
    "MappingPoint",
    "MeasuredRun",
    "Prediction",
    "SearchResult",
    "TERMS",
    "WorkloadSpec",
    "calibrate",
    "mapping_space",
    "measure_mapping",
    "pair_matrix",
    "run_matrix",
    "search_mapping",
    "validate_top",
]
