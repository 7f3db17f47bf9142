"""Bitmask encoding of subsets of {0..size-1}.

Subsets fit in one machine word (universe capped at 16 items), so set
algebra is plain integer arithmetic throughout the package.
"""

from __future__ import annotations

from typing import Iterable


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def items_of(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending; clear bits are never visited."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
