"""Workload descriptions and candidate mapping points for the auto-mapper.

A :class:`WorkloadSpec` captures what an application is about to do —
how many elements move, in what access pattern, how often a schedule is
reused, how many same-shaped fields travel per step — *without* building
any distributed arrays.  A :class:`MappingPoint` is one candidate answer
to "how should it be mapped": a distribution per side
(:class:`DistSpec`), a :class:`~repro.core.schedule.ScheduleMethod`, an
:class:`~repro.core.policy.ExecutorPolicy`, a fusion degree, and the
translation-table residency (replicated vs paged).

Everything here is host-side and deterministic: owner maps come from the
same :mod:`repro.distrib` descriptors the runtime uses (so the offline
pair matrix agrees element-for-element with what a schedule built inside
the virtual machine would carry), and the traversal order replicates the
SetOfRegions linearization of the measured workloads (ascending source
indices paired with the pattern's destination indices).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.policy import ExecutorPolicy
from repro.core.schedule import ScheduleMethod
from repro.core.wire import count_runs
from repro.distrib.cartesian import BLOCK, BLOCK_CYCLIC, CYCLIC, CartesianDist, DimDist
from repro.distrib.irregular import IrregularDist
from repro.vmachine.cost_model import IBM_SP2, MachineProfile

__all__ = [
    "DistSpec",
    "MappingPoint",
    "WorkloadSpec",
    "pair_matrix",
    "run_matrix",
]

_REGULAR_KINDS = {"block": BLOCK, "cyclic": CYCLIC, "block_cyclic": BLOCK_CYCLIC}


@dataclasses.dataclass(frozen=True)
class DistSpec:
    """One side's distribution choice, independent of any array object.

    ``kind`` is ``"block"``, ``"cyclic"``, ``"block_cyclic"`` (with
    ``block`` > 0) or ``"irregular"`` (a seeded balanced random
    partitioner standing in for an application partitioner such as RCB).
    """

    kind: str
    block: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (*_REGULAR_KINDS, "irregular"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "block_cyclic" and self.block < 1:
            raise ValueError("block_cyclic needs a positive block size")

    @property
    def regular(self) -> bool:
        return self.kind != "irregular"

    def distribution(self, nelems: int, nprocs: int):
        """The runtime :class:`~repro.distrib.base.Distribution` object."""
        if self.kind == "irregular":
            return IrregularDist(self.owners(nelems, nprocs), nprocs)
        return CartesianDist(
            (DimDist(_REGULAR_KINDS[self.kind], nelems, nprocs, self.block),)
        )

    def owners(self, nelems: int, nprocs: int) -> np.ndarray:
        """Owner rank of every global index (the partitioner's output)."""
        if self.kind == "irregular":
            rng = np.random.default_rng(self.seed)
            base = np.repeat(np.arange(nprocs), -(-nelems // nprocs))[:nelems]
            return rng.permutation(base).astype(np.int64)
        ranks, _ = self.distribution(nelems, nprocs).owner_of_flat(
            np.arange(nelems, dtype=np.int64)
        )
        return ranks

    def hpf_spec(self) -> str:
        """The ``!hpf$ distribute`` spec string of a regular kind."""
        if self.kind == "block":
            return "block"
        if self.kind == "cyclic":
            return "cyclic"
        if self.kind == "block_cyclic":
            return f"cyclic({self.block})"
        raise ValueError("irregular distributions have no HPF spec")

    def label(self) -> str:
        if self.kind == "block_cyclic":
            return f"block_cyclic({self.block})"
        if self.kind == "irregular":
            return f"irregular(seed={self.seed})"
        return self.kind


@dataclasses.dataclass(frozen=True)
class MappingPoint:
    """One candidate configuration of the full mapping space."""

    src: DistSpec
    dst: DistSpec
    method: ScheduleMethod = ScheduleMethod.COOPERATION
    policy: ExecutorPolicy = ExecutorPolicy.ORDERED
    #: 1 = one move per field; == narrays = all fields fused into one
    #: MovePlan message per processor pair
    fusion: int = 1
    #: translation-table residency for irregular sides
    table: str = "replicated"

    def __post_init__(self):
        if self.fusion < 1:
            raise ValueError("fusion degree must be >= 1")
        if self.table not in ("replicated", "paged"):
            raise ValueError(f"unknown table residency {self.table!r}")

    def label(self) -> str:
        parts = [
            f"{self.src.label()}->{self.dst.label()}",
            self.method.name.lower(),
            self.policy.value,
        ]
        if self.fusion > 1:
            parts.append(f"fuse{self.fusion}")
        if self.table != "replicated":
            parts.append(self.table)
        return "/".join(parts)


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """What moves, how often, on how many processors — nothing about how.

    ``pattern`` fixes the source→destination element correspondence:

    - ``"identity"``  — element ``i`` lands at ``i`` (redistribution only)
    - ``"permute"``   — a seeded whole-array permutation (the paper's
      §5.1/§5.2 regular↔irregular mesh remap)
    - ``"section"``   — the first half of the array lands on the second
      half (the paper's §5.3 multiblock boundary-update shape)
    """

    name: str
    nelems: int
    nprocs: int
    pattern: str = "permute"
    seed: int = 0
    itemsize: int = 8
    #: same-shaped fields moved per timestep (fusion candidates)
    narrays: int = 1
    #: data moves amortizing one schedule build
    reuse: int = 1
    profile: MachineProfile = IBM_SP2

    def __post_init__(self):
        if self.pattern not in ("identity", "permute", "section"):
            raise ValueError(f"unknown access pattern {self.pattern!r}")
        if self.nelems < 1 or self.nprocs < 1:
            raise ValueError("nelems and nprocs must be positive")

    def src_indices(self) -> np.ndarray:
        """Global source indices in linearization order."""
        if self.pattern == "section":
            return np.arange(self.nelems // 2, dtype=np.int64)
        return np.arange(self.nelems, dtype=np.int64)

    def dst_indices(self) -> np.ndarray:
        """Global destination indices, aligned with :meth:`src_indices`."""
        if self.pattern == "identity":
            return np.arange(self.nelems, dtype=np.int64)
        if self.pattern == "section":
            half = self.nelems // 2
            return np.arange(half, dtype=np.int64) + (self.nelems - half)
        rng = np.random.default_rng(self.seed)
        return rng.permutation(self.nelems).astype(np.int64)


def pair_matrix(
    workload: WorkloadSpec, src: DistSpec, dst: DistSpec
) -> np.ndarray:
    """P×P element-count matrix: entry ``[s, d]`` is how many elements
    rank ``s`` sends to rank ``d`` under this workload and distribution
    pair.  Computed host-side from the owner maps — the same
    ``owner_of_flat`` arithmetic the schedule builder runs, so the counts
    match a real schedule's :meth:`~repro.core.schedule.CommSchedule.
    stats` exactly.
    """
    P = workload.nprocs
    src_owner = src.owners(workload.nelems, P)[workload.src_indices()]
    dst_owner = dst.owners(workload.nelems, P)[workload.dst_indices()]
    flat = np.bincount(src_owner * P + dst_owner, minlength=P * P)
    return flat.reshape(P, P)


def run_matrix(
    workload: WorkloadSpec, src: DistSpec, dst: DistSpec
) -> np.ndarray:
    """P×P count of arithmetic-progression runs in each pair's offsets.

    The wire size of a schedule piece is its run-length encoding (24
    bytes per run, :mod:`repro.core.wire`), so the build-phase beta term
    scales with runs, not elements.  A regular→regular identity copy has
    O(P) runs; a whole-array permutation has O(n).
    """
    P = workload.nprocs
    src_owner = src.owners(workload.nelems, P)[workload.src_indices()]
    dst_owner = dst.owners(workload.nelems, P)[workload.dst_indices()]
    pair = src_owner * P + dst_owner
    # Run boundaries of the destination index sequence, examined within
    # each (s, d) stream in traversal order.
    dst_idx = workload.dst_indices()
    order = np.argsort(pair, kind="stable")
    sorted_pair = pair[order]
    sorted_dst = dst_idx[order]
    runs = np.zeros(P * P, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_pair))
    starts = np.concatenate(([0], boundaries + 1))
    stops = np.concatenate((boundaries + 1, [len(sorted_pair)]))
    for lo, hi in zip(starts, stops):
        if hi > lo:
            runs[sorted_pair[lo]] = count_runs(sorted_dst[lo:hi])
    return runs.reshape(P, P)
