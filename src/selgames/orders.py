"""Finite partial orders, relative cofinality, Tukey morphisms, symbolic lifts.

A RelPair is a finite preordered carrier with two distinguished index
subfamilies: candidates (sub_a) and obligations (sub_b).  Its relative
cofinality is the least number of candidates jointly dominating every
obligation; when some obligation has no dominating candidate at all, the
value is UNDEFINED rather than infinite.  Products with an unbounded
counter are handled symbolically (lift_omega_cof) and by bounded
truncations (truncate_product) with a stabilization check in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ._bits import is_subset, items_of, mask_of
from .errors import CarrierTooLarge

BRUTE_SUB_A_CAP = 12


@dataclass(frozen=True)
class ExtendedNat:
    """A finite count, the symbol OMEGA, or UNDEFINED (no such count)."""

    kind: str  # "finite" | "omega" | "undefined"
    n: int = 0

    @staticmethod
    def finite(n: int) -> "ExtendedNat":
        if n < 0:
            raise ValueError("finite values are nonnegative")
        return ExtendedNat("finite", n)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_undefined(self) -> bool:
        return self.kind == "undefined"

    def at_most(self, k: int) -> bool:
        """Finite comparison; OMEGA and UNDEFINED both fail it."""
        return self.is_finite and self.n <= k

    def __repr__(self) -> str:
        return {"finite": f"{self.n}", "omega": "OMEGA", "undefined": "UNDEFINED"}[
            self.kind
        ]


OMEGA = ExtendedNat("omega")
UNDEFINED = ExtendedNat("undefined")


@dataclass(frozen=True)
class RelPair:
    """Carrier with preorder rows and distinguished subfamilies by index.

    ``up[i]`` is the bitmask of carrier indices j with carrier[i] <= carrier[j].
    """

    carrier: tuple[Hashable, ...]
    up: tuple[int, ...]
    sub_a: tuple[int, ...]
    sub_b: tuple[int, ...]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)


def make_rel_pair(
    carrier: Sequence[Hashable],
    leq: Callable[[Hashable, Hashable], bool],
    sub_a: Iterable[int],
    sub_b: Iterable[int],
) -> RelPair:
    """Tabulate a preorder and validate reflexivity and transitivity."""
    up = []
    for x in carrier:
        row = 0
        for j, y in enumerate(carrier):
            if leq(x, y):
                row |= 1 << j
        up.append(row)
    return _checked_rel_pair(carrier, up, sub_a, sub_b)


def _checked_rel_pair(
    carrier: Sequence[Hashable],
    up: Sequence[int],
    sub_a: Iterable[int],
    sub_b: Iterable[int],
) -> RelPair:
    """The pair with preorder rows ``up``, once they are checked reflexive
    and transitive and the subfamily indices inside the carrier."""
    n = len(carrier)
    for i in range(n):
        if not up[i] >> i & 1:
            raise ValueError(f"relation not reflexive at {carrier[i]!r}")
    # transitivity: i <= j forces everything above j to sit above i too
    for row in up:
        rest = row
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if up[j] & ~row:
                raise ValueError(
                    f"relation not transitive through {carrier[j]!r}"
                )
            rest ^= low
    a = tuple(sorted(set(sub_a)))
    b = tuple(sorted(set(sub_b)))
    for idx in a + b:
        if not 0 <= idx < n:
            raise ValueError("subfamily index outside the carrier")
    return RelPair(carrier=tuple(carrier), up=tuple(up), sub_a=a, sub_b=b)


def inclusion_pair(
    members_a: Sequence[int], members_b: Sequence[int]
) -> RelPair:
    """Subset-ordered pair; carrier is the union of both mask lists."""
    carrier = sorted(set(members_a) | set(members_b))
    index = {m: k for k, m in enumerate(carrier)}
    return make_rel_pair(
        carrier,
        lambda x, y: is_subset(x, y),
        sub_a=[index[m] for m in members_a],
        sub_b=[index[m] for m in members_b],
    )


def truncate_product(pair: RelPair, bound: int) -> RelPair:
    """Product with {0..bound} under the coordinatewise order.

    sub_a and sub_b each pick up every counter value; the symbolic
    unbounded version of this construction is lift_omega_cof.  Element
    (x_i, k) sits at index i * (bound + 1) + k, so block i holds x_i's
    counter values and its row is, over each j above i, the chain mask
    {k..bound} shifted to block j.
    """
    if bound < 0:
        raise ValueError(f"counter bound must be >= 0, got {bound}")
    width = bound + 1
    counters = range(width)
    carrier = [(x, k) for x in pair.carrier for k in counters]
    up = []
    for row in pair.up:
        blocks = [j * width for j in items_of(row)]
        for k in counters:
            chain = (1 << width) - (1 << k)
            mask = 0
            for shift in blocks:
                mask |= chain << shift
            up.append(mask)
    sub_a = [i * width + k for i in pair.sub_a for k in counters]
    sub_b = [i * width + k for i in pair.sub_b for k in counters]
    return _checked_rel_pair(carrier, up, sub_a, sub_b)


def projection_map(product_pair: RelPair, base_pair: RelPair) -> dict[int, int]:
    """First-coordinate projection, as a sub_a index table."""
    base_index = {x: i for i, x in enumerate(base_pair.carrier)}
    table = {}
    for i in product_pair.sub_a:
        x, _ = product_pair.carrier[i]
        j = base_index[x]
        if j not in base_pair.sub_a:
            raise ValueError("projection lands outside the target subfamily")
        table[i] = j
    return table


def is_cofinal(pair: RelPair, subset: Iterable[int]) -> bool:
    """Whether the given sub_a indices dominate every obligation."""
    chosen = 0
    for a in subset:
        chosen |= 1 << a
    return all(pair.up[b] & chosen for b in pair.sub_b)


def relative_cofinality(pair: RelPair) -> ExtendedNat:
    """Least dominating subfamily size; UNDEFINED when domination fails.

    Exact branch and bound over sub_a, seeded by a greedy cover bound.
    Each obligation's dominators are one carrier-index mask, its row
    ``up[b]`` restricted to the candidates; the cover table maps each
    candidate's bit to the obligations (by position in sub_b) it dominates.
    """
    if not pair.sub_b:
        return ExtendedNat.finite(0)
    candidates = mask_of(pair.sub_a)
    dom = [pair.up[b] & candidates for b in pair.sub_b]
    if not all(dom):
        return UNDEFINED
    cover_of: dict[int, int] = {}
    for bi, rest in enumerate(dom):
        while rest:
            low = rest & -rest
            cover_of[low] = cover_of.get(low, 0) | 1 << bi
            rest ^= low
    full = (1 << len(dom)) - 1

    # Greedy upper bound.
    covered, greedy = 0, 0
    while covered != full:
        covered |= max(cover_of.values(), key=lambda c: (c & ~covered).bit_count())
        greedy += 1

    best_size = [greedy]

    def search(first_uncovered: int, covered: int, chosen: int) -> None:
        if covered == full:
            best_size[0] = min(best_size[0], chosen)
            return
        if chosen + 1 >= best_size[0]:
            return
        bi = first_uncovered
        while covered >> bi & 1:
            bi += 1
        rest = dom[bi]
        while rest:
            low = rest & -rest
            search(bi + 1, covered | cover_of[low], chosen + 1)
            rest ^= low

    try:
        search(0, 0, 0)
    finally:
        del search
    return ExtendedNat.finite(best_size[0])


def check_tukey_map(
    phi: Mapping[int, int], src: RelPair, dst: RelPair
) -> bool:
    """Polynomial criterion for a cofinality-preserving morphism.

    phi maps src candidate indices to dst candidate indices.  The map
    is accepted when, for every dst obligation D, the candidates whose
    images fail to dominate D do not by themselves dominate every src
    obligation.  Equivalent to the literal quantification over all
    cofinal subfamilies (brute_tukey_oracle); the tests cross-assert.
    """
    for a in src.sub_a:
        if a not in phi:
            raise ValueError("phi is not total on the source subfamily")
        if phi[a] not in dst.sub_a:
            raise ValueError("phi image outside the target subfamily")
    for d in dst.sub_b:
        row = dst.up[d]
        f_d = [a for a in src.sub_a if not row >> phi[a] & 1]
        if is_cofinal(src, f_d):
            return False
    return True


def brute_tukey_oracle(
    phi: Mapping[int, int], src: RelPair, dst: RelPair
) -> bool:
    """Literal quantification over all subfamilies of the source candidates."""
    if len(src.sub_a) > BRUTE_SUB_A_CAP:
        raise CarrierTooLarge(
            f"brute oracle supports at most {BRUTE_SUB_A_CAP} candidates"
        )
    for r in range(len(src.sub_a) + 1):
        for combo in itertools.combinations(src.sub_a, r):
            if is_cofinal(src, combo):
                image = [phi[a] for a in combo]
                if not is_cofinal(dst, image):
                    return False
    return True


def lift_omega_cof(base: ExtendedNat, b_empty: bool) -> ExtendedNat:
    """Cofinality of the pair crossed with an unbounded counter.

    Any finite family has a maximal counter value and thus dominates no
    obligation above it, so a defined nonzero base always lifts to OMEGA;
    an undefined base stays undefined; empty obligations need nothing.
    """
    if b_empty:
        return ExtendedNat.finite(0)
    if base.is_undefined:
        return UNDEFINED
    return OMEGA
