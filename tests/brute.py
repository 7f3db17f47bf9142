"""Independent brute-force oracles for cross-checking the package.

Everything here is written as plainly as possible: raw recursion over
raw histories, no memoization, no automaton states, no canonical keys.
The point is a second route to the same answers, not speed.
"""

from __future__ import annotations

import functools
import itertools
import operator

from selgames.errors import IllegalMove
from selgames.game import (
    FullOne,
    FullTwo,
    GameSpec,
    Kind,
    MarkovTwo,
    Player,
    PlayRecord,
    PreOne,
    StateOne,
    StateTwo,
    advance,
    legal_selection,
    play,
    strategy_lookup,
)
from selgames.ground import CoverVerdict, GroundSpace, SetFamily
from selgames.orders import UNDEFINED, ExtendedNat, make_rel_pair
from selgames.solver import MAX_EXHIBITS, VerificationReport
from selgames.transforms import AxiomCheck


def flatten_selections(kind: Kind, selections) -> tuple[int, ...]:
    """Item sequence a target sees: finite-kind subsets flatten in item order."""
    if kind is Kind.SINGLE:
        return tuple(selections)
    out: list[int] = []
    for s in selections:
        out.extend(sorted(s))
    return tuple(out)


def brute_two_choices(game: GameSpec, move_set):
    items = sorted(move_set)
    if game.kind is Kind.SINGLE:
        return list(items)
    return [
        frozenset(c)
        for k in range(1, len(items) + 1)
        for c in itertools.combinations(items, k)
    ]


def brute_winner(game: GameSpec) -> Player:
    """Plain minimax over raw selection tuples."""

    def two_wins(r, selections):
        if r == game.horizon:
            return game.target.evaluate(flatten_selections(game.kind, selections))
        for ms in game.moves[r]:
            if not any(
                two_wins(r + 1, selections + (x,))
                for x in brute_two_choices(game, ms)
            ):
                return False
        return True

    return Player.TWO if two_wins(0, ()) else Player.ONE


def brute_history_witness(game: GameSpec):
    """The solver's witness spelled out over histories: plain minimax on
    raw selection tuples, then at every history One's least index that
    Two cannot beat, or at every history of One's indices Two's least
    reply that still wins.  A FullOne or FullTwo for the winning side."""

    def two_wins(r, selections):
        if r == game.horizon:
            return game.target.evaluate(flatten_selections(game.kind, selections))
        return all(
            any(two_wins(r + 1, selections + (x,)) for x in brute_two_choices(game, ms))
            for ms in game.moves[r]
        )

    table = {}
    if two_wins(0, ()):

        def walk_two(r, indices, selections):
            if r == game.horizon:
                return
            for i, ms in enumerate(game.moves[r]):
                x = next(
                    x for x in brute_two_choices(game, ms)
                    if two_wins(r + 1, selections + (x,))
                )
                table[indices + (i,)] = x
                walk_two(r + 1, indices + (i,), selections + (x,))

        walk_two(0, (), ())
        return FullTwo(table=table)

    def walk_one(r, selections):
        if r == game.horizon:
            return
        i = next(
            i for i, ms in enumerate(game.moves[r])
            if not any(
                two_wins(r + 1, selections + (x,)) for x in brute_two_choices(game, ms)
            )
        )
        table[selections] = i
        for x in brute_two_choices(game, game.moves[r][i]):
            walk_one(r + 1, selections + (x,))

    walk_one(0, ())
    return FullOne(table=table)


def expand(game: GameSpec, strategy):
    """The full-information table of a strategy whose move is a function
    of the round, the target state and One's current index: a StateOne,
    StateTwo, PreOne or MarkovTwo becomes the FullOne or FullTwo that
    answers every reachable history as it does.

    Reachable means: the adversary ranges over every legal choice.  A
    history the strategy has no answer for gets no row, and one answered
    with an illegal move gets its row but no rows below it, so a play of
    the expansion breaks a rule in the round where the strategy's does.
    """
    if not isinstance(strategy, (PreOne, StateOne, MarkovTwo, StateTwo)):
        raise TypeError(f"not a state-determined strategy: {strategy!r}")
    side, answer = strategy_lookup(strategy)
    moves, horizon = game.moves, game.horizon
    table = {}
    if side is Player.ONE:

        def walk_one(r, hist, state):
            try:
                i = answer(hist, r, state)
            except IllegalMove:
                return
            table[hist] = i
            if r + 1 < horizon and 0 <= i < len(moves[r]):
                for x in brute_two_choices(game, moves[r][i]):
                    walk_one(r + 1, hist + (x,), advance(game, state, x))

        if horizon:
            walk_one(0, (), game.target.start)
        return FullOne(table=table)

    def walk_two(r, idx_hist, state):
        for i, ms in enumerate(moves[r]):
            idx = idx_hist + (i,)
            try:
                x = answer(idx, r, state)
            except IllegalMove:
                continue
            table[idx] = x
            if r + 1 < horizon:
                try:
                    x = legal_selection(game, r, ms, x)
                except IllegalMove:
                    continue
                walk_two(r + 1, idx, advance(game, state, x))

    if horizon:
        walk_two(0, (), game.target.start)
    return FullTwo(table=table)


def brute_least_pre_one(game: GameSpec):
    """Least winning script by literal double enumeration: the first index
    tuple, in lexicographic order, that no reply sequence beats, or None."""
    for idx in itertools.product(*(range(len(f)) for f in game.moves)):
        reply_spaces = [
            brute_two_choices(game, game.moves[r][idx[r]])
            for r in range(game.horizon)
        ]
        if not any(
            game.target.evaluate(flatten_selections(game.kind, replies))
            for replies in itertools.product(*reply_spaces)
        ):
            return idx
    return None


def brute_markov_two(game: GameSpec):
    """A winning Markov table by literal enumeration: every table, one
    reply per move set of each round, in product order; the first that
    ``brute_verify`` passes, or None."""
    cells = [(j, r) for r, family in enumerate(game.moves) for j in range(len(family))]
    replies = [brute_two_choices(game, game.moves[r][j]) for j, r in cells]
    for xs in itertools.product(*replies):
        table = MarkovTwo(table=dict(zip(cells, xs)))
        if brute_verify(game, table).valid:
            return table
    return None


def brute_every_subsequence(inner, m: int, items) -> bool:
    """Every subsequence of ``items`` of length >= m satisfies ``inner``,
    each evaluated whole."""
    n = len(items)
    return all(
        inner.evaluate([items[i] for i in idxs])
        for r in range(m, n + 1)
        for idxs in itertools.combinations(range(n), r)
    )


def two_side_plays(game: GameSpec, two):
    """Every completed play with One ranging over all index tuples, each
    judged by evaluating the whole selection sequence."""
    for idx in itertools.product(*(range(len(f)) for f in game.moves)):
        rec = play(game, idx, two)
        flat = flatten_selections(game.kind, rec.two_selections)
        won = Player.TWO if game.target.evaluate(flat) else Player.ONE
        yield PlayRecord(rec.one_moves, rec.two_selections, won)


def brute_one_side_plays(game: GameSpec, one):
    """Every completed play with Two ranging over all legal replies, each
    judged by evaluating the whole selection sequence."""
    _, answer = strategy_lookup(one, Player.ONE)

    def walk(r, idx_hist, sel_hist):
        if r == game.horizon:
            flat = flatten_selections(game.kind, sel_hist)
            won = Player.TWO if game.target.evaluate(flat) else Player.ONE
            yield PlayRecord(idx_hist, sel_hist, won)
            return
        i = answer(sel_hist, r, None)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        for x in brute_two_choices(game, game.moves[r][i]):
            yield from walk(r + 1, idx_hist + (i,), sel_hist + (x,))

    yield from walk(0, (), ())


def brute_is_one_play(game: GameSpec, one, selections) -> bool:
    """Whether Two can answer ``one`` with ``selections``: each is a legal
    reply to the move ``one`` names after the ones before it."""
    _, answer = strategy_lookup(one, Player.ONE)
    for r, x in enumerate(selections):
        try:
            i = answer(tuple(selections[:r]), r, None)
        except IllegalMove:
            return False
        if not 0 <= i < len(game.moves[r]):
            return False
        if x not in brute_two_choices(game, game.moves[r][i]):
            return False
    return True


def brute_subsequences_are_plays(game: GameSpec, s, sigma) -> bool:
    """The lemma behind the subsequence strengthening: every subsequence
    of every play of ``sigma`` is a play of ``s``."""
    for rec in brute_one_side_plays(game, sigma):
        sel = rec.two_selections
        for k in range(len(sel) + 1):
            for idxs in itertools.combinations(range(len(sel)), k):
                if not brute_is_one_play(game, s, [sel[i] for i in idxs]):
                    return False
    return True


def brute_blocks_are_counter_plays(game: GameSpec, sigma, script, width: int) -> bool:
    """The lemma behind the window upgrade: every ``width`` consecutive
    replies of every play of ``sigma``, re-indexed from round 0, are a
    play of ``script``."""
    for rec in brute_one_side_plays(game, sigma):
        sel = rec.two_selections
        for start in range(len(sel) - width + 1):
            if not brute_is_one_play(game, script, sel[start : start + width]):
                return False
    return True


def brute_verify(game: GameSpec, strategy, max_exhibits: int = MAX_EXHIBITS):
    """Literal-play verification: list every play, then count the lost ones."""
    if isinstance(strategy, (PreOne, FullOne)):
        side, plays = Player.ONE, list(brute_one_side_plays(game, strategy))
    else:
        side, plays = Player.TWO, list(two_side_plays(game, strategy))
    lost = [rec for rec in plays if rec.winner is not side]
    return VerificationReport(
        valid=not lost,
        side=side,
        counter_plays=tuple(lost[:max_exhibits]),
        plays_checked=len(plays),
    )


def brute_topology(size: int, subbasis) -> frozenset:
    """The opens generated by ``subbasis``: the literal fixpoint of adding
    every pairwise union and intersection, from the subbasis, the empty
    set and the universe."""
    opens = {0, (1 << size) - 1, *subbasis}
    while True:
        grown = opens | {c for a in opens for b in opens for c in (a | b, a & b)}
        if grown == opens:
            return frozenset(opens)
        opens = grown


def brute_topologies(size: int) -> list:
    """Every topology on {0..size-1}.

    Exhaustive over all families containing {empty, full} closed under
    union/intersection; intended for sizes <= 4.
    """
    full = (1 << size) - 1
    middles = [m for m in range(1, full)]
    out = []
    for r in range(len(middles) + 1):
        for combo in itertools.combinations(middles, r):
            fam = set(combo) | {0, full}
            ok = all(
                (a | b) in fam and (a & b) in fam
                for a, b in itertools.combinations(fam, 2)
            )
            if ok:
                out.append(GroundSpace(size=size, opens=frozenset(fam)))
    return out


def least_open(space, a: int) -> int:
    """N(a): the intersection of every open set containing ``a``."""
    return functools.reduce(operator.and_, (u for u in space.opens if a & ~u == 0))


def cover_number(space, fam_a, fam_b, m: int = 1):
    """The closed form of the builder games: the least number of distinct
    sets N(a), for a in ``fam_a``, that put each member of ``fam_b`` inside
    at least ``m`` of them, or None when no choice does.  At m = 1 it is
    k(A, B), the least number of the N(a) that cover B.

    The cover side (Two in Rothberger, One in point-open) wins at horizon
    h iff k <= h, and in point-open with window w <= h iff k <= w: every
    open set containing a contains N(a), so the cover side aims at k of
    them, and the other side holds it to the N(a) (One offering the
    maximal N(a), a minimal cover of A; Two answering a with N(a)).  With
    multiplicity m, Two wins Rothberger iff the number is at most h; that
    rule rests on exhaustive checks alone.  Both builders refuse the
    families exactly when some N(a) is the whole space.
    """
    hoods = sorted({least_open(space, a) for a in fam_a})
    for k in range(len(hoods) + 1):
        for chosen in itertools.combinations(hoods, k):
            if all(sum(b & ~u == 0 for u in chosen) >= m for b in fam_b):
                return k
    return None


def brute_min_covers(space, fam_members, opens):
    """Minimal covers by filtering the full powerset of proper opens."""
    full = space.full
    proper = [u for u in sorted(opens) if u != full]
    good = []
    for r in range(len(proper) + 1):
        for combo in itertools.combinations(proper, r):
            if all(any(a & ~u == 0 for u in combo) for a in fam_members):
                good.append(frozenset(combo))
    minimal = [g for g in good if not any(h < g for h in good)]
    return sorted(tuple(sorted(g)) for g in minimal)


def is_selection_basis(candidate, fam) -> bool:
    """``candidate`` sits inside ``fam`` and undercuts every member of it."""
    fam_set = set(map(frozenset, fam))
    cand = [frozenset(c) for c in candidate]
    if any(c not in fam_set for c in cand):
        return False
    return all(any(c <= a for c in cand) for a in fam_set)


def brute_range_inside_exists(refl, target) -> bool:
    """Some transversal range inside ``target``, by listing every choice tuple."""
    return any(
        frozenset(t) <= target for t in itertools.product(*(sorted(r) for r in refl))
    )


def brute_classify_cover(space, fam_members, listed) -> CoverVerdict:
    """Cover verdict straight from the definitions: the multiplicity counts
    distinct listed sets over each member, the window tries every run of
    consecutive listed sets."""

    def inside(a, u):
        return a & ~u == 0

    covers = space.full not in listed and all(
        any(inside(a, u) for u in listed) for a in fam_members
    )
    if not covers:
        return CoverVerdict(covers_all=False, multiplicity=0, window=None)
    if not fam_members:
        return CoverVerdict(covers_all=True, multiplicity=0, window=0)
    mult = min(sum(1 for u in set(listed) if inside(a, u)) for a in fam_members)
    n = len(listed)
    window = next(
        w
        for w in range(1, n + 1)
        if all(
            any(inside(a, u) for u in listed[i : i + w])
            for i in range(n - w + 1)
            for a in fam_members
        )
    )
    return CoverVerdict(covers_all=True, multiplicity=mult, window=window)


def brute_translation_axioms(pack, src, dst) -> AxiomCheck:
    """Legality round by round, then preservation by listing every target
    index tuple js and, under it, every source selection tuple xs from the
    pulled-back moves, each evaluated whole; the first failure in that
    (js, xs) order is the witness."""
    h = src.horizon
    for r in range(h):
        for j in range(len(dst.moves[r])):
            if j not in pack.t_one[r]:
                return AxiomCheck(False, ("legality", (r, j, None)))
            i = pack.t_one[r][j]
            if not 0 <= i < len(src.moves[r]):
                return AxiomCheck(False, ("legality", (r, j, None)))
            for x in sorted(src.moves[r][i]):
                y = pack.t_two[r].get((x, j))
                if y is None or y not in dst.moves[r][j]:
                    return AxiomCheck(False, ("legality", (r, j, x)))
    for js, xs in pulled_plays(pack, src, dst):
        if preservation_fails(pack, src, dst, js, xs):
            return AxiomCheck(False, ("preservation", (js, xs)))
    return AxiomCheck(True)


def pulled_plays(pack, src, dst):
    """Every (js, xs): target index tuples js in order and, under each,
    the source selection tuples xs from the pulled-back moves in order."""
    h = src.horizon
    for js in itertools.product(*(range(len(dst.moves[r])) for r in range(h))):
        pulled = [src.moves[r][pack.t_one[r][js[r]]] for r in range(h)]
        for xs in itertools.product(*(sorted(ms) for ms in pulled)):
            yield js, xs


def preservation_fails(pack, src, dst, js, xs) -> bool:
    """The source target accepts ``xs`` and the target game's target
    rejects its push forward along the target indices ``js``."""
    ys = [pack.t_two[r][(x, j)] for r, (x, j) in enumerate(zip(xs, js))]
    return src.target.evaluate(xs) and not dst.target.evaluate(ys)


def brute_truncate_product(pair, bound: int):
    """The product with {0..bound}, tabulated pair by pair from the
    coordinatewise order."""
    carrier = [(x, k) for x in pair.carrier for k in range(bound + 1)]
    pos = {c: i for i, c in enumerate(carrier)}
    base = {x: i for i, x in enumerate(pair.carrier)}

    def leq(u, v) -> bool:
        (x, k), (y, m) = u, v
        return pair.leq(base[x], base[y]) and k <= m

    return make_rel_pair(
        carrier,
        leq,
        sub_a=[pos[pair.carrier[i], k] for i in pair.sub_a for k in range(bound + 1)],
        sub_b=[pos[pair.carrier[i], k] for i in pair.sub_b for k in range(bound + 1)],
    )


def brute_relative_cofinality(pair) -> ExtendedNat:
    """The least number of distinct candidates that dominate every
    obligation, by trying every subset of them in order of size;
    UNDEFINED when even all of them fail."""
    candidates = sorted(set(pair.sub_a))
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if all(any(pair.leq(b, a) for a in combo) for b in pair.sub_b):
                return ExtendedNat.finite(r)
    return UNDEFINED


def finite_subsets_family(space) -> SetFamily:
    """All nonempty subsets of the universe (one reading of the ambient family)."""
    return SetFamily.build(space, range(1, space.full + 1))


def brute_family_flags(space, members) -> dict:
    """The four SetFamily flags straight from their definitions."""
    opens, full = space.opens, space.full
    return {
        "ideal_base": all(
            any((a | b) & ~c == 0 for c in members) for a in members for b in members
        ),
        "covers_universe": functools.reduce(operator.or_, members, 0) == full,
        "all_open": all(m in opens for m in members),
        "all_closed": all(full & ~m in opens for m in members),
    }


def brute_transitive_closure(rows: list[int]) -> list[int]:
    """Warshall's triple loop over a matrix of booleans, read back as rows."""
    n = len(rows)
    rel = [[bool(row >> j & 1) for j in range(n)] for row in rows]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rel[i][k] and rel[k][j]:
                    rel[i][j] = True
    return [sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)]


def brute_first_intransitive(carrier, up):
    """The transitivity error ``make_rel_pair`` raises, by scanning every
    column of every row: the first (row, j) with i <= j and some element
    above j not above i; None for a transitive relation."""
    for row in up:
        for j in range(len(carrier)):
            if row >> j & 1 and up[j] & ~row:
                return f"relation not transitive through {carrier[j]!r}"
    return None
