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
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
