"""Ablation: vectorized schedule construction (Python call count).

DESIGN.md commits to building schedules with vectorized NumPy arithmetic
("linearization is never materialized ... no O(total elements) Python
loops").  This bench checks that claim on the owner computation of a
regular section, ``CartesianDist.section_map``:

- it agrees element for element with the per-element oracle
  ``owner_of_flat(section.global_flat(shape))`` on a strided section;
- it makes as many Python calls on a 64x64 section (4 096 elements) as on
  a 512x256 one (131 072): the call count does not grow with the section.
  Measured: 43 calls at 4 096 and at 131 072 elements;

and on the dereference of given linearization positions of a section,
``LibraryAdapter.deref_lin``, which maps the section's per-dimension
coordinates straight to (owner, offset):

- it agrees with the flat oracle ``owner_of_flat(sor.lin_to_global(...))``
  on unsorted positions of a strided section, in C and in F order;
- its call count is the same at 4 096 and at 131 072 positions
  (measured: 80).

It records nothing.
"""

from types import SimpleNamespace

import numpy as np

from common import check_shape, print_header, python_calls
from repro.core.region import SectionRegion
from repro.core.registry import LibraryAdapter
from repro.core.setofregions import SetOfRegions
from repro.distrib.cartesian import BLOCK, cartesian_dist
from repro.distrib.section import Section

N = 512
DIST = cartesian_dist((N, N), ((BLOCK, 0),) * 2, 16)
SECTION = Section((0, 0), (N, N // 2), (1, 1))
SMALL = Section((0, 0), (64, 64), (1, 1))
STRIDED = Section((0, 0), (40, 40), (3, 2))
HANDLE = SimpleNamespace(dist=DIST, global_shape=DIST.global_shape, itemsize=8)


class _Uncharged(LibraryAdapter):
    """The generic adapter, charging nothing: this bench runs no machine."""

    name = "uncharged"
    array_type = object

    def charge_deref(self, n):
        pass


def run_ablation():
    print_header("Ablation: vectorized section_map (Python calls per section)")
    ranks, offsets = DIST.section_map(STRIDED)
    oracle_ranks, oracle_offsets = DIST.owner_of_flat(
        STRIDED.global_flat(DIST.global_shape))
    check_shape(
        np.array_equal(ranks, oracle_ranks)
        and np.array_equal(offsets, oracle_offsets),
        "section_map equals owner_of_flat(global_flat) on a strided section",
    )
    small = python_calls(DIST.section_map, SMALL)
    large = python_calls(DIST.section_map, SECTION)
    print(f"  {SMALL.size:>7} elements: {small} calls")
    print(f"  {SECTION.size:>7} elements: {large} calls")
    check_shape(
        small == large,
        f"section_map calls do not grow with the section "
        f"({small} at {SMALL.size}, {large} at {SECTION.size} elements)",
    )

    print_header("Ablation: closed-form section deref_lin (Python calls)")
    adapter = _Uncharged()
    for order in "CF":
        sor = SetOfRegions([SectionRegion(STRIDED, order)])
        positions = np.random.default_rng(1).permutation(STRIDED.size)
        got = adapter.deref_lin(HANDLE, sor, positions)
        want = DIST.owner_of_flat(sor.lin_to_global(positions, DIST.global_shape))
        check_shape(
            all(map(np.array_equal, got, want)),
            f"deref_lin equals owner_of_flat(lin_to_global) on a strided "
            f"section, unsorted positions, order {order}",
        )
    calls = {
        sec.size: python_calls(
            adapter.deref_lin, HANDLE, SetOfRegions([SectionRegion(sec)]),
            np.arange(sec.size))
        for sec in (SMALL, SECTION)
    }
    for n, c in calls.items():
        print(f"  {n:>7} positions: {c} calls")
    check_shape(
        calls[SMALL.size] == calls[SECTION.size],
        f"deref_lin calls do not grow with the positions ({calls})",
    )


if __name__ == "__main__":
    run_ablation()
