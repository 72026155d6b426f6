"""Meta-Chaos: the interoperability meta-library (the paper's contribution).

The pieces map one-to-one onto the paper's section 4:

- :mod:`repro.core.region` / :mod:`repro.core.setofregions` — data
  specification (§4.1.1): Regions, gathered into ordered SetOfRegions;
- :mod:`repro.core.linearization` — the virtual linearization (§4.1.2):
  a total order on a SetOfRegions' elements that is *never materialized*;
- :mod:`repro.core.registry` — the interface functions every data
  parallel library must export (§4.1.3) bundled as a
  :class:`~repro.core.registry.LibraryAdapter`;
- :mod:`repro.core.schedule` — communication-schedule computation
  (§4.1.3), in both the *cooperation* and *duplication* variants (§5.1);
- :mod:`repro.core.datamove` — moving data with a schedule (§4.1.4),
  with at most one aggregated message per processor pair: the paper's
  three entry points, thin wrappers over the k = 1 plan;
- :mod:`repro.core.dataplane` — the compiled data plane: offset
  sequences lowered once into cached batched move programs
  (slice / strided-grid / fancy-index) over arbitrarily strided
  local storage;
- :mod:`repro.core.plan` — the one move executor and its multi-array
  extension: k schedules compiled into a
  :class:`~repro.core.plan.MovePlan` whose execution sends one message
  per pair (the bare packed buffer for k = 1, the pair's k messages
  fused into one for k >= 2);
- :mod:`repro.core.api` — the applications-programmer interface (§4.2):
  ``mc_*`` functions mirroring the paper's example code;
- :mod:`repro.core.universe` — where the two sides live: one program, or
  two coupled programs (§5.2, §5.4).
"""

from repro.core.region import Region, SectionRegion, IndexRegion, MaskRegion
from repro.core.setofregions import SetOfRegions
from repro.core.linearization import Linearization
from repro.core.runs import KeyGroups, RunList, group_by_runs
from repro.core.dataplane import (
    MoveProgram,
    accept_local,
    compile_offsets,
    copy_compiled,
)
from repro.core.wire import FusedBuffer, SegmentHeader
from repro.core.registry import (
    DistArray,
    LibraryAdapter,
    RemoteHandle,
    ensure_safe_cast,
    get_adapter,
    register_adapter,
    registered_libraries,
)
from repro.core.universe import Universe, SingleProgramUniverse, TwoProgramUniverse
from repro.core.policy import ExecutorPolicy, rotated_order
from repro.core.schedule import (
    CommSchedule,
    ScheduleMethod,
    SchedulePeerStats,
    build_schedule,
)
from repro.core.datamove import data_move, data_move_send, data_move_recv
from repro.core.plan import (
    MovePlan,
    PlanSegment,
    compile_plan,
    plan_move,
    plan_move_recv,
    plan_move_send,
)
from repro.core.cache import ScheduleCache, dist_key, region_key, sor_key
from repro.core.validate import (
    ScheduleStats,
    ScheduleValidationError,
    explain_schedule,
    schedule_stats,
    validate_schedule,
)
from repro.core.api import (
    mc_add_region_to_set,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
    mc_data_move_recv,
    mc_data_move_send,
    mc_new_set_of_regions,
    mc_plan_move_recv,
    mc_plan_move_send,
)

__all__ = [
    "RunList",
    "KeyGroups",
    "group_by_runs",
    "MoveProgram",
    "accept_local",
    "compile_offsets",
    "copy_compiled",
    "ensure_safe_cast",
    "Region",
    "SectionRegion",
    "IndexRegion",
    "MaskRegion",
    "SetOfRegions",
    "Linearization",
    "DistArray",
    "LibraryAdapter",
    "RemoteHandle",
    "get_adapter",
    "register_adapter",
    "registered_libraries",
    "Universe",
    "SingleProgramUniverse",
    "TwoProgramUniverse",
    "CommSchedule",
    "ScheduleMethod",
    "SchedulePeerStats",
    "ExecutorPolicy",
    "rotated_order",
    "build_schedule",
    "data_move",
    "data_move_send",
    "data_move_recv",
    "FusedBuffer",
    "SegmentHeader",
    "MovePlan",
    "PlanSegment",
    "compile_plan",
    "plan_move",
    "plan_move_send",
    "plan_move_recv",
    "mc_new_set_of_regions",
    "mc_add_region_to_set",
    "mc_compute_schedule",
    "mc_compute_plan",
    "mc_copy",
    "mc_copy_many",
    "mc_data_move_send",
    "mc_data_move_recv",
    "mc_plan_move_send",
    "mc_plan_move_recv",
    "ScheduleStats",
    "ScheduleValidationError",
    "validate_schedule",
    "schedule_stats",
    "explain_schedule",
    "ScheduleCache",
    "region_key",
    "sor_key",
    "dist_key",
]
