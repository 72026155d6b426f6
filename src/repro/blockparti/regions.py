"""Region constructors for Multiblock Parti (regular array sections)."""

from __future__ import annotations

from repro.core.region import SectionRegion

__all__ = ["parti_region"]


def parti_region(
    lower: tuple[int, ...],
    upper: tuple[int, ...],
    stride: tuple[int, ...] | None = None,
) -> SectionRegion:
    """``CreateRegion_BlockParti``: inclusive-bounds regular section.

    Mirrors the paper's HPF region constructor (Figure 9): ``lower`` and
    ``upper`` are the first and last global indices taken per dimension.
    """
    return SectionRegion.from_bounds(lower, upper, stride)

