"""HPF intrinsic-style global operations on distributed arrays.

The HPF runtime provides more than forall loops: global reductions
(``SUM``, ``MAXVAL`` ...), dot products, and the ``CSHIFT``/``EOSHIFT``
array intrinsics.  These are the intra-library operations whose
communication an HPF compiler schedules internally — implemented here on
the same substrate so HPF programs in the examples/benchmarks are
self-sufficient.
"""

from __future__ import annotations

import numpy as np

from repro.core.region import SectionRegion
from repro.distrib.section import Section
from repro.hpf.array import HPFArray
from repro.vmachine.process import current_process

__all__ = ["hpf_sum", "hpf_max", "hpf_min", "hpf_dot", "cshift", "hpf_section_copy"]


def _reduce(array: HPFArray, local_value: float, op) -> float:
    current_process().charge_flops(array.local.size)
    return array.comm.allreduce(float(local_value), op)


def hpf_sum(array: HPFArray) -> float:
    """Global ``SUM(array)`` (collective, returns on every rank)."""
    return _reduce(array, array.local.sum(), lambda a, b: a + b)


def hpf_max(array: HPFArray) -> float:
    """Global ``MAXVAL(array)``."""
    if array.local.size == 0:
        return _reduce(array, -np.inf, max)
    return _reduce(array, array.local.max(), max)


def hpf_min(array: HPFArray) -> float:
    """Global ``MINVAL(array)``."""
    if array.local.size == 0:
        return _reduce(array, np.inf, min)
    return _reduce(array, array.local.min(), min)


def hpf_dot(x: HPFArray, y: HPFArray) -> float:
    """Global ``DOT_PRODUCT(x, y)`` over aligned 1-D arrays."""
    if not x.aligned_with(y):
        raise ValueError("dot product requires aligned arrays")
    current_process().charge_flops(2 * x.local.size)
    return x.comm.allreduce(float(x.local @ y.local), lambda a, b: a + b)


def hpf_section_copy(
    src: HPFArray,
    src_slices: tuple[slice, ...],
    dst: HPFArray,
    dst_slices: tuple[slice, ...],
) -> None:
    """Native HPF array-section assignment ``dst[d] = src[s]`` (collective).

    This is the HPF runtime's own intra-language remap — what an HPF
    compiler emits for a section assignment between differently
    distributed arrays.  Implemented, like the real runtime, as a
    schedule-plus-move over the regular sections; Meta-Chaos is only
    needed when the two sides belong to *different* libraries.
    """
    from repro.core.api import mc_compute_schedule, mc_copy, mc_new_set_of_regions

    src_region = SectionRegion(Section.from_slices(src_slices, src.global_shape))
    dst_region = SectionRegion(Section.from_slices(dst_slices, dst.global_shape))
    sched = mc_compute_schedule(
        src.comm,
        "hpf", src, mc_new_set_of_regions(src_region),
        "hpf", dst, mc_new_set_of_regions(dst_region),
    )
    mc_copy(src.comm, sched, src, dst)


def cshift(array: HPFArray, shift: int, dim: int = 0) -> HPFArray:
    """Circular shift: ``out[..., i, ...] = array[..., (i+shift) % n, ...]``.

    Returns a new array with the same distribution.  Implemented as the
    runtime would: a section copy with wraparound split into (at most)
    two section assignments.
    """
    n = array.global_shape[dim]
    shift %= n
    out = HPFArray.zeros_over(array.comm, array.dist, array.dtype)
    if shift == 0:
        out.local[:] = array.local
        current_process().charge_mem(array.local.nbytes)
        return out

    ndim = len(array.global_shape)

    def slices(dim_slice):
        s = [slice(None)] * ndim
        s[dim] = dim_slice
        return tuple(s)

    # out[0 : n-shift] = array[shift : n]
    hpf_section_copy(array, slices(slice(shift, n)), out, slices(slice(0, n - shift)))
    # out[n-shift : n] = array[0 : shift]
    hpf_section_copy(array, slices(slice(0, shift)), out, slices(slice(n - shift, n)))
    return out
