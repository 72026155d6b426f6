"""CHAOS analogue: irregularly distributed arrays and inspector/executor.

CHAOS (Das, Saltz et al.) supports irregular scientific computations on
distributed-memory machines:

- *translation tables* record, pointwise, the owner and local address of
  every element of an irregularly distributed array
  (:mod:`repro.chaos.translation`, replicated or paged across ranks);
- *partitioners* produce irregular distributions from mesh structure
  (:mod:`repro.chaos.partition`);
- the *inspector/executor* model precomputes gather/scatter communication
  schedules for indirection-array accesses
  (:mod:`repro.chaos.schedule`), used by the unstructured sweeps in
  :mod:`repro.chaos.ops`;
- a native pointwise *copy schedule* between two translation-table-managed
  arrays (:func:`~repro.chaos.schedule.build_chaos_copy_schedule`), the
  baseline Meta-Chaos is compared against in paper Table 2.

The Meta-Chaos interface functions are in
:class:`~repro.chaos.interface.ChaosAdapter` (registered as ``"chaos"``).
"""

from repro.chaos.translation import TranslationTable, PagedTranslationTable
from repro.chaos.array import ChaosArray
from repro.chaos.partition import (
    bfs_owners,
    block_owners,
    cyclic_owners,
    random_owners,
    rcb_owners,
)
from repro.chaos.remap import build_remap_schedule, remap
from repro.chaos.schedule import (
    GatherSchedule,
    ChaosCopySchedule,
    build_gather_schedule,
    build_chaos_copy_schedule,
)
from repro.chaos.ops import EdgeSweep
from repro.chaos.sparse import DistributedCSR
from repro.chaos.interface import ChaosAdapter

__all__ = [
    "bfs_owners",
    "build_remap_schedule",
    "remap",
    "TranslationTable",
    "PagedTranslationTable",
    "ChaosArray",
    "block_owners",
    "cyclic_owners",
    "random_owners",
    "rcb_owners",
    "GatherSchedule",
    "ChaosCopySchedule",
    "build_gather_schedule",
    "build_chaos_copy_schedule",
    "DistributedCSR",
    "EdgeSweep",
    "ChaosAdapter",
]
