"""Shared test utilities: SPMD runners and sequential oracles."""

from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np

from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    SetOfRegions,
    mc_compute_schedule,
    mc_copy,
)
from repro.distrib.section import Section
from repro.vmachine import IBM_SP2, VirtualMachine


def run_spmd(nprocs: int, fn: Callable, *args: Any, profile=IBM_SP2, **kwargs: Any):
    """Run ``fn(comm, *args, **kwargs)`` on a fresh machine; return result."""
    return VirtualMachine(nprocs, profile).run(fn, *args, **kwargs)


def python_calls(fn: Callable[[], Any], keep: Callable[[str], bool]) -> list:
    """``(file name, function name)`` of every Python-level call ``fn()``
    makes on this thread into a file whose ``/``-separated path satisfies
    ``keep`` — a count that repeats exactly where nothing waits, which is
    what the call-budget tests hold."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename.replace("\\", "/")
            if keep(path):
                calls.append((path.rsplit("/", 1)[-1], frame.f_code.co_name))

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def values_of(result) -> list:
    return result.values


def oracle_copy(
    src_global: np.ndarray,
    src_sor: SetOfRegions,
    dst_global: np.ndarray,
    dst_sor: SetOfRegions,
) -> np.ndarray:
    """Sequential reference of a Meta-Chaos copy: element k of the source
    linearization lands at element k of the destination linearization."""
    out = dst_global.copy()
    src_idx = src_sor.global_flat(src_global.shape)
    dst_idx = dst_sor.global_flat(out.shape)
    assert len(src_idx) == len(dst_idx)
    out.reshape(-1)[dst_idx] = src_global.reshape(-1)[src_idx]
    return out


def section_sor(slices: tuple[slice, ...], shape: tuple[int, ...]) -> SetOfRegions:
    return SetOfRegions([SectionRegion(Section.from_slices(slices, shape))])


def index_sor(indices: np.ndarray) -> SetOfRegions:
    return SetOfRegions([IndexRegion(np.asarray(indices, dtype=np.int64))])


def both_methods():
    return [ScheduleMethod.COOPERATION, ScheduleMethod.DUPLICATION]


def layouts_of(values: np.ndarray):
    """(label, array) pairs whose flat logical (C) order equals ``values``.

    Covers the layout matrix of the compiled data plane: contiguous 1-D,
    reversed and strided 1-D views, and C-contiguous / transposed /
    column-sliced 2-D shapes (the last two have no zero-copy 1-D view).
    """
    n = values.size
    out = [("contiguous", values.copy())]

    rev_buf = np.empty(n, dtype=values.dtype)
    rev = rev_buf[::-1]
    rev[:] = values
    out.append(("reversed-view", rev))

    hole_buf = np.zeros(2 * n, dtype=values.dtype)
    strided = hole_buf[::2]
    strided[:] = values
    out.append(("strided-view", strided))

    for r in range(2, n):
        if n % r == 0:
            c = n // r
            break
    else:
        return out
    out.append(("c-contig-2d", values.copy().reshape(r, c)))

    tr = np.empty((c, r), dtype=values.dtype).T
    tr[...] = values.reshape(r, c)
    out.append(("transposed-2d", tr))

    wide = np.zeros((r, 2 * c), dtype=values.dtype)
    sl = wide[:, ::2]
    sl[...] = values.reshape(r, c)
    out.append(("sliced-2d", sl))
    return out


def strided_local(values: np.ndarray, label: str) -> np.ndarray:
    """The one layout named ``label`` from :func:`layouts_of`.

    Sizes with no 2-D factorization (primes, < 4 elements) have no 2-D
    layouts; those labels fall back to contiguous storage.
    """
    table = dict(layouts_of(values))
    return table.get(label, table["contiguous"])
