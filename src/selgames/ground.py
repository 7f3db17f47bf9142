"""Finite topological spaces, set families, closure, covers, refinement.

Ground items are integers 0..size-1; subsets are bitmasks (see _bits).
A "listed cover" is an ordered list of open sets judged against a set
family: it counts as a cover when the full universe is absent from the
list and every family member sits inside some listed set.  Two finite
surrogates accompany the plain cover predicate: a multiplicity count
(the least number of distinct listed sets over any member) and a window
width (the least w such that every w consecutive listed sets already
contain a superset of every member).

Both enumerations build only what they list: ``min_covers`` grows
ascending tuples of proper opens whose every open keeps a private member,
in lexicographic order, stopping past ``COVERS_CAP`` (256) covers, and
``all_topologies`` builds each topology from its specialization preorder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from ._bits import is_subset, items_of, mask_of
from .errors import CapExceeded, NotOpen, TopologyTooLarge
from .game import CoversFamily, MultiCover, WindowCover, _members_inside

SIZE_CAP = 16
OPENS_CAP = 4096
COVERS_CAP = 256  # minimal covers listed before min_covers truncates


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
    members = list(subbasis)
    for s in members:
        if not is_subset(s, full):
            raise ValueError(f"subbasis member {s:#b} not inside the universe")
    # every member, the empty set and the universe are open
    _check_opens(set(members) | {0, full})
    base = {full}
    for s in members:
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
    """An ordered list of distinct subsets of a space's universe.

    Its flags are read off the members: ``ideal_base`` -- every two
    members' union lies inside some member; ``covers_universe`` -- the
    members' union is the whole universe.
    """

    space: GroundSpace
    members: tuple[int, ...]

    @staticmethod
    def build(space: GroundSpace, members: Iterable[int]) -> "SetFamily":
        """Check the members against the universe and drop repeats."""
        seen: dict[int, None] = {}
        for m in members:
            if m & ~space.full:
                raise ValueError(f"member {m:#b} not inside the universe")
            seen[m] = None
        return SetFamily(space=space, members=tuple(seen))

    @property
    def ideal_base(self) -> bool:
        # a member's union with itself is that member
        members = self.members
        return all(
            any((a | b) & ~c == 0 for c in members)
            for k, a in enumerate(members)
            for b in members[k + 1:]
        )

    @property
    def covers_universe(self) -> bool:
        return reduce(or_, self.members, 0) == self.space.full


def family_of(space: GroundSpace, sets: Iterable[Iterable[int]]) -> SetFamily:
    """Convenience constructor from item iterables instead of masks."""
    return SetFamily.build(space, (mask_of(s) for s in sets))


def singleton_family(space: GroundSpace) -> SetFamily:
    return SetFamily.build(space, (1 << i for i in range(space.size)))


def nonempty_opens_family(space: GroundSpace) -> SetFamily:
    """All nonempty open sets of the space."""
    return SetFamily.build(space, (u for u in space.sorted_opens() if u != 0))


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
    return SetFamily.build(space, (space.closure_of(m) for m in fam.members))


def refines(fam_a: SetFamily, fam_b: SetFamily) -> bool:
    """True when every member of ``fam_a`` is contained in some member of ``fam_b``."""
    if fam_a.space.size != fam_b.space.size:
        raise ValueError("families live on different universes")
    return all(
        any(is_subset(a, b) for b in fam_b.members) for a in fam_a.members
    )


@dataclass(frozen=True)
class MinCoverResult:
    """Inclusion-minimal listed covers, truncated past ``COVERS_CAP``."""

    covers: tuple[tuple[int, ...], ...]
    truncated: bool


def min_covers(space: GroundSpace, fam: SetFamily) -> MinCoverResult:
    """All inclusion-minimal families of proper opens covering ``fam``, as
    sorted tuples in lexicographic order, truncated past ``COVERS_CAP``.

    A cover is minimal iff each of its opens holds a member no other holds.
    The walk grows ascending tuples of proper opens depth-first, adding an
    open only if it holds an uncovered member and every chosen open keeps
    such a private member.  Adding an open never gives one back, so each
    minimal cover is reached once, along its sorted order, and each tuple
    that covers is minimal.  A branch ends at the first open past which
    some uncovered member has no holder left (suffix unions of the opens'
    member masks tell), since no later open can complete it.  Depth-first
    order is lexicographic, so the walk stops at the first cover past the
    cap.  The top member of an ideal base covering the universe admits
    none; the empty family admits exactly the empty cover.
    """
    full, members = space.full, fam.members
    proper = [u for u in space.sorted_opens() if u != full]
    # inside[k]: the members held by proper[k], one bit per member
    inside = [_members_inside(members, u) for u in proper]
    # after[k]: the members held by some proper[k'] with k' >= k
    after = list(itertools.accumulate(reversed(inside), or_, initial=0))[::-1]
    everyone = (1 << len(members)) - 1
    if after[0] != everyone:
        return MinCoverResult(covers=(), truncated=False)
    covers: list[tuple[int, ...]] = []

    def extend(start: int, chosen: tuple[int, ...], private: list[int], covered: int) -> bool:
        """Walk the extensions of ``chosen``; True once the cap is passed."""
        if covered == everyone:
            covers.append(chosen)
            return len(covers) > COVERS_CAP
        for k in range(start, len(proper)):
            if everyone & ~(covered | after[k]):
                # an uncovered member has no holder from here on
                break
            fresh, kept = inside[k] & ~covered, [p & ~inside[k] for p in private]
            if fresh and all(kept) and extend(
                k + 1, chosen + (proper[k],), kept + [fresh], covered | fresh
            ):
                return True
        return False

    try:
        truncated = extend(0, (), [], 0)
    finally:
        del extend
    return MinCoverResult(covers=tuple(covers[:COVERS_CAP]), truncated=truncated)


def all_topologies(size: int) -> list[GroundSpace]:
    """Every topology on {0..size-1} (size <= 4), ordered by (number of
    opens, sorted opens).

    A finite topology is its specialization preorder: each point has a
    least open neighbourhood, its row, and the opens are the unions of
    rows.  This runs over one row per point, each holding its point, and
    keeps the transitive choices: j in row i puts row j inside row i.
    """
    if size > 4:
        raise CapExceeded("exhaustive topology enumeration supports size <= 4")
    choices = [[row for row in range(1 << size) if row >> i & 1] for i in range(size)]
    out = []
    for rows in itertools.product(*choices):
        if all(is_subset(rows[j], row) for row in rows for j in items_of(row)):
            opens = {0}
            for row in rows:
                opens |= {u | row for u in opens}
            out.append(GroundSpace(size=size, opens=frozenset(opens)))
    return sorted(out, key=lambda s: (len(s.opens), s.sorted_opens()))
