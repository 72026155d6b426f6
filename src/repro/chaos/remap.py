"""Redistribution (remapping) of irregular arrays.

Adaptive irregular applications repartition as the computation evolves
(Chaos's "runtime support for compiling adaptive irregular programs").
:func:`remap` moves a ChaosArray's data onto a new distribution — an
identity-mapped pointwise copy schedule between the old and new
translation tables — and returns the new array.  The schedule is exposed
so repeated remaps between the same pair of distributions reuse it.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.array import ChaosArray
from repro.chaos.schedule import ChaosCopySchedule, build_chaos_copy_schedule
from repro.chaos.translation import TranslationTable

__all__ = ["build_remap_schedule", "remap"]


def build_remap_schedule(
    array: ChaosArray, new_owners: np.ndarray
) -> tuple[ChaosCopySchedule, TranslationTable]:
    """Inspector: schedule moving ``array`` onto ``new_owners`` (collective)."""
    new_owners = np.asarray(new_owners, dtype=np.int64)
    if len(new_owners) != array.size:
        raise ValueError(
            f"new owner map has {len(new_owners)} entries for a "
            f"{array.size}-element array"
        )
    new_table = TranslationTable.from_owners(new_owners, array.comm.size)
    identity = np.arange(array.size, dtype=np.int64)
    sched = build_chaos_copy_schedule(
        array.comm, array.table, identity, new_table, identity
    )
    return sched, new_table


def remap(
    array: ChaosArray,
    new_owners: np.ndarray,
    schedule: ChaosCopySchedule | None = None,
    new_table: TranslationTable | None = None,
) -> ChaosArray:
    """Executor: return a new array with the same values, redistributed.

    Pass a previously built ``(schedule, new_table)`` pair to skip the
    inspector (e.g. when ping-ponging between two partitions).
    """
    if schedule is None or new_table is None:
        schedule, new_table = build_remap_schedule(array, new_owners)
    out = ChaosArray.zeros_over(array.comm, new_table, array.dtype)
    schedule.execute(array.local, out.local, array.comm)
    return out
