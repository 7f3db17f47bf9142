"""Finite topological spaces, set families, closure, covers, refinement.

Ground items are integers 0..size-1; subsets are bitmasks (see _bits).
A "listed cover" is an ordered list of open sets judged against a set
family: it counts as a cover when the full universe is absent from the
list and every family member sits inside some listed set.  Two finite
surrogates accompany the plain cover predicate: a multiplicity count
(the least number of distinct listed sets over any member) and a window
width (the least w such that every w consecutive listed sets already
contain a superset of every member).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ._bits import is_subset, mask_of
from .errors import CapExceeded, NotOpen, TopologyTooLarge
from .game import CoversFamily, MultiCover, WindowCover

SIZE_CAP = 16
OPENS_CAP = 4096


@dataclass(frozen=True)
class GroundSpace:
    """A finite topological space: item count plus the lattice of opens.

    ``opens`` always contains 0 (the empty set) and ``full`` and is
    closed under pairwise union and intersection.  Instances are built
    through :func:`build_topology` or :func:`discrete_space`; all values
    are immutable.
    """

    size: int
    opens: frozenset[int]

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self.opens

    def is_closed(self, mask: int) -> bool:
        return (self.full & ~mask) in self.opens

    def closure_of(self, mask: int) -> int:
        """Smallest closed superset: intersect all closed sets above ``mask``."""
        out = self.full
        for u in self.opens:
            c = self.full & ~u
            if is_subset(mask, c):
                out &= c
        return out

    def points_closed(self) -> bool:
        """True when every singleton is closed (finitely: the space is discrete)."""
        return all(self.is_closed(1 << i) for i in range(self.size))

    def sorted_opens(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens))


def _check_size(size: int) -> None:
    if not 1 <= size <= SIZE_CAP:
        raise CapExceeded(f"size {size} outside 1..{SIZE_CAP}")


def build_topology(size: int, subbasis: Iterable[int]) -> GroundSpace:
    """Close ``subbasis`` plus {empty, universe} under union and intersection.

    ``subbasis`` members are bitmasks over {0..size-1}.  The result is the
    least such family: every union of finite intersections of members
    and the universe.  Those intersections are closed under intersection,
    so their unions are closed under both.
    """
    _check_size(size)
    full = (1 << size) - 1
    base = {full}
    for s in subbasis:
        if not is_subset(s, full):
            raise ValueError(f"subbasis member {s:#b} not inside the universe")
        base |= {b & s for b in base}
        _check_opens(base)
    opens = {0}
    for b in base:
        opens |= {u | b for u in opens}
        _check_opens(opens)
    return GroundSpace(size=size, opens=frozenset(opens))


def _check_opens(opens: set) -> None:
    if len(opens) > OPENS_CAP:
        raise TopologyTooLarge(f"more than {OPENS_CAP} open sets")


def discrete_space(size: int) -> GroundSpace:
    """Every subset open: the closure of the singletons, built directly."""
    _check_size(size)
    if 1 << size > OPENS_CAP:
        raise TopologyTooLarge(f"more than {OPENS_CAP} open sets")
    return GroundSpace(size=size, opens=frozenset(range(1 << size)))


def indiscrete_space(size: int) -> GroundSpace:
    return build_topology(size, [])


@dataclass(frozen=True)
class SetFamily:
    """A named, ordered list of distinct subsets with structural flags.

    Flags are computed once at construction (values are immutable, so
    they can never go stale): ``ideal_base`` -- every two members' union
    lies inside some member; ``covers_universe`` -- the members' union is
    the whole universe; ``all_open`` / ``all_closed`` -- membership of
    every member in the opens / closeds of the space.
    """

    space: GroundSpace
    members: tuple[int, ...]
    name: str = ""
    ideal_base: bool = field(default=False, compare=False)
    covers_universe: bool = field(default=False, compare=False)
    all_open: bool = field(default=False, compare=False)
    all_closed: bool = field(default=False, compare=False)

    @staticmethod
    def build(space: GroundSpace, members: Iterable[int], name: str = "") -> "SetFamily":
        full, opens = space.full, space.opens
        seen: dict[int, None] = {}
        union = 0
        all_open = all_closed = True
        for m in members:
            if m & ~full:
                raise ValueError(f"member {m:#b} not inside the universe")
            seen[m] = None
            union |= m
            if m not in opens:
                all_open = False
            if full & ~m not in opens:
                all_closed = False
        ordered = tuple(seen)
        return SetFamily(
            space=space,
            members=ordered,
            name=name,
            ideal_base=_is_ideal_base(ordered),
            covers_universe=union == full,
            all_open=all_open,
            all_closed=all_closed,
        )


def _is_ideal_base(members: tuple[int, ...]) -> bool:
    """Every two members' union lies inside some member (a member's union
    with itself is that member)."""
    for k, a in enumerate(members):
        for b in members[k + 1:]:
            u = a | b
            for c in members:
                if u & ~c == 0:
                    break
            else:
                return False
    return True


def family_of(space: GroundSpace, sets: Iterable[Iterable[int]], name: str = "") -> SetFamily:
    """Convenience constructor from item iterables instead of masks."""
    return SetFamily.build(space, (mask_of(s) for s in sets), name=name)


def singleton_family(space: GroundSpace, name: str = "singletons") -> SetFamily:
    return SetFamily.build(space, (1 << i for i in range(space.size)), name=name)


def finite_subsets_family(space: GroundSpace, name: str = "nonempty-subsets") -> SetFamily:
    """All nonempty subsets of the universe (one reading of the ambient family)."""
    return SetFamily.build(space, range(1, space.full + 1), name=name)


def nonempty_opens_family(space: GroundSpace, name: str = "nonempty-opens") -> SetFamily:
    """All nonempty open sets (the other reading; see module tests)."""
    return SetFamily.build(
        space, (u for u in space.sorted_opens() if u != 0), name=name
    )


@dataclass(frozen=True)
class CoverVerdict:
    """Verdict of :func:`classify_cover` on one listed cover.

    ``covers_all`` false forces ``multiplicity`` 0 and ``window`` absent.
    ``window`` present implies ``covers_all``.
    """

    covers_all: bool
    multiplicity: int
    window: Optional[int]


def classify_cover(
    space: GroundSpace, fam: SetFamily, listed: Sequence[int]
) -> CoverVerdict:
    """Judge an ordered list of opens against ``fam`` with the cover targets.

    covers_all: ``CoversFamily`` accepts the list (universe absent, every
    member of ``fam`` inside some listed set).  multiplicity: the largest
    m that ``MultiCover`` accepts (every member inside at least m distinct
    listed sets).  window: the least w that ``WindowCover`` accepts (every
    run of w consecutive listed sets covers; 0 for an empty family, absent
    when covers_all fails).  Neither can pass the list's length.
    """
    for u in listed:
        if not space.is_open(u):
            raise NotOpen(f"listed set {u:#b} is not open")
    full, members = space.full, fam.members
    if not CoversFamily(full=full, members=members).evaluate(listed):
        return CoverVerdict(covers_all=False, multiplicity=0, window=None)
    bounds = range(len(listed) + 1)
    mult = max(
        m for m in bounds
        if MultiCover(full=full, members=members, m=m).evaluate(listed)
    )
    window = next(
        w for w in bounds
        if WindowCover(full=full, members=members, w=w).evaluate(listed)
    )
    return CoverVerdict(covers_all=True, multiplicity=mult, window=window)


def closure_family(space: GroundSpace, fam: SetFamily) -> SetFamily:
    """Replace each member by its topological closure, merging duplicates."""
    return SetFamily.build(
        space, (space.closure_of(m) for m in fam.members), name=fam.name
    )


def refines(fam_a: SetFamily, fam_b: SetFamily) -> bool:
    """True when every member of ``fam_a`` is contained in some member of ``fam_b``."""
    if fam_a.space.size != fam_b.space.size:
        raise ValueError("families live on different universes")
    return all(
        any(is_subset(a, b) for b in fam_b.members) for a in fam_a.members
    )


@dataclass(frozen=True)
class MinCoverResult:
    """Inclusion-minimal listed covers, possibly truncated at a bound."""

    covers: tuple[tuple[int, ...], ...]
    truncated: bool


def min_covers(space: GroundSpace, fam: SetFamily, max_count: int = 256) -> MinCoverResult:
    """All inclusion-minimal families of proper opens covering ``fam``.

    Each cover is a sorted tuple of distinct open masks; enumeration
    order is lexicographic on those tuples.  An ideal base covering the
    universe admits none (its top member is the whole space); the empty
    family admits exactly the empty cover.
    """
    if max_count < 1:
        raise ValueError("max_count must be at least 1")
    if not fam.members:
        return MinCoverResult(covers=((),), truncated=False)
    full = space.full
    candidates = {
        a: tuple(u for u in space.sorted_opens() if u != full and is_subset(a, u))
        for a in fam.members
    }
    if any(not c for c in candidates.values()):
        return MinCoverResult(covers=(), truncated=False)
    # Branch on the member with the fewest remaining candidate opens.
    found: set[frozenset[int]] = set()
    visited: set[frozenset[int]] = set()

    def search(chosen: frozenset[int]) -> None:
        if chosen in visited:
            return
        visited.add(chosen)
        uncovered = [
            a for a in fam.members if not any(is_subset(a, u) for u in chosen)
        ]
        if not uncovered:
            found.add(chosen)
            return
        pivot = min(uncovered, key=lambda a: len(candidates[a]))
        for u in candidates[pivot]:
            search(chosen | {u})

    search(frozenset())
    minimal = [
        cov
        for cov in found
        if not any(other < cov for other in found)
    ]
    ordered = sorted(tuple(sorted(c)) for c in minimal)
    if len(ordered) > max_count:
        return MinCoverResult(covers=tuple(ordered[:max_count]), truncated=True)
    return MinCoverResult(covers=tuple(ordered), truncated=False)


def all_topologies(size: int, opens_cap: int = OPENS_CAP) -> list[GroundSpace]:
    """Every topology on {0..size-1} with at most ``opens_cap`` opens.

    Exhaustive over all families containing {empty, full} closed under
    union/intersection; intended for sizes <= 4.
    """
    if size > 4:
        raise CapExceeded("exhaustive topology enumeration supports size <= 4")
    full = (1 << size) - 1
    middles = [m for m in range(1, full)]
    out = []
    for r in range(len(middles) + 1):
        for combo in itertools.combinations(middles, r):
            fam = set(combo) | {0, full}
            if len(fam) > opens_cap:
                continue
            ok = all(
                (a | b) in fam and (a & b) in fam
                for a, b in itertools.combinations(fam, 2)
            )
            if ok:
                out.append(GroundSpace(size=size, opens=frozenset(fam)))
    return out
