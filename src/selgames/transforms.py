"""Executable strategy combinators between single-selection games.

A TranslationPack carries, per round, a map pulling the target game's
moves back to source moves and a map pushing source selections forward
to target selections.  Two axioms make the pack usable: legality
(pushed selections belong to the move they answer) and preservation
(pushed selection sequences land in the target game's winning predicate
whenever the originals land in the source's).  Under those axioms four
transfers exist: Markov Two and full Two push forward, full One and
predetermined One pull back.  The full-information transfers take a
history table or the state-keyed witness ``solve`` returns (a StateTwo
pushed forward, a StateOne pulled back) and build the history table of
the other game in one walk that carries the input game's target state.
Each transfer is built exactly as in its existence proof, given the
games' search contexts: its input is verified once on its game's, and
its output on the other's before it is returned.

The module also hosts the two strengthening constructions for One over
filter-base move families: the full-information one (a script or a
history table winning uniformly over a horizon interval upgrades to a
table winning the every-subsequence target) and the predetermined one
(running intersections via an ideal base upgrade a cover script to a
window-cover script).  Each result is checked by ``verify`` on the
upgraded game; the lemmas their proofs go through (every subsequence of
a play is a play of the input, every window-long block of replies is a
counter-play against the script) are checked play by play only in the
tests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from ._bits import is_subset
from .errors import (
    AxiomsFail,
    ImageNotMove,
    InputNotWinning,
    NotFilterBase,
    NotUniformlyWinning,
    TranslationFailed,
    WitnessMissing,
)
from .game import (
    FullOne,
    FullTwo,
    GameSpec,
    Kind,
    MarkovTwo,
    Player,
    PreOne,
    StateOne,
    StateTwo,
    strategy_lookup,
)
from .ground import SetFamily
from .solver import Search, verify


@dataclass(frozen=True)
class TranslationPack:
    """Round-indexed move pullbacks and selection pushforwards.

    t_one[r] maps target move indices to source move indices; t_two[r]
    maps (source item, target move index) to a target item.
    """

    t_one: tuple[Mapping[int, int], ...]
    t_two: tuple[Mapping[tuple[int, int], int], ...]


@dataclass(frozen=True)
class AxiomCheck:
    ok: bool
    failure: Optional[tuple] = None  # ("legality"|"preservation", witness)

    def __bool__(self) -> bool:
        return self.ok


def _require_single(*games: GameSpec) -> None:
    for g in games:
        if g.kind is not Kind.SINGLE:
            raise ValueError("translation machinery covers single-selection games")


def check_translation_axioms(
    pack: TranslationPack, src: GameSpec, dst: GameSpec
) -> AxiomCheck:
    """Exhaustively check legality, then preservation, for the pack.

    Legality is checked round by round in index and item order; its
    witness is (round, target index, source item or None).  Preservation
    runs as one depth-first walk over (round, source state, target state),
    each target stepped as its automaton, trying at each round the target
    indices j in order and, under each, the items x of the pulled-back
    source move in order.  The states decide every future verdict, so a
    triple already walked without a failure is not walked again.  The
    witness is the first play, in that (j, x) order, that the source
    target accepts and the target game's target rejects: (js, xs).
    """
    _require_single(src, dst)
    if src.horizon != dst.horizon:
        raise ValueError("games must share a horizon")
    h = src.horizon
    if len(pack.t_one) != h or len(pack.t_two) != h:
        raise ValueError("pack must carry one map pair per round")
    edges = []  # edges[r][j]: the (x, pushed y) pairs in item order
    for r in range(h):
        edges.append([])
        for j in range(len(dst.moves[r])):
            i = pack.t_one[r].get(j)
            if i is None or not 0 <= i < len(src.moves[r]):
                return AxiomCheck(False, ("legality", (r, j, None)))
            pairs = []
            for x in sorted(src.moves[r][i]):
                y = pack.t_two[r].get((x, j))
                if y is None or y not in dst.moves[r][j]:
                    return AxiomCheck(False, ("legality", (r, j, x)))
                pairs.append((x, y))
            edges[r].append(pairs)
    src_target, dst_target = src.target, dst.target
    src_step, dst_step = src_target.step, dst_target.step
    safe: set = set()  # (round, source state, target state) walked, no failure
    js: list = []
    xs: list = []

    def fails(r: int, s, d) -> bool:
        if r == h:
            return src_target.accept(s) and not dst_target.accept(d)
        if (r, s, d) in safe:
            return False
        for j, pairs in enumerate(edges[r]):
            js.append(j)
            for x, y in pairs:
                xs.append(x)
                if fails(r + 1, src_step(s, x), dst_step(d, y)):
                    return True
                xs.pop()
            js.pop()
        safe.add((r, s, d))
        return False

    try:
        failed = fails(0, src_target.start, dst_target.start)
    finally:
        del fails
    if failed:
        return AxiomCheck(False, ("preservation", (tuple(js), tuple(xs))))
    return AxiomCheck(True)


class Direction(enum.Enum):
    MARKOV_TWO = "markov-two"
    FULL_TWO = "full-two"
    FULL_ONE_PULLBACK = "full-one-pullback"
    PRE_ONE_PULLBACK = "pre-one-pullback"


def apply_translation(
    pack: TranslationPack,
    src: GameSpec,
    dst: GameSpec,
    direction: Direction,
    strategy: Union[MarkovTwo, FullTwo, StateTwo, FullOne, StateOne, PreOne],
):
    """Transfer a winning strategy along a pack that satisfies the axioms.

    MARKOV_TWO takes a MarkovTwo and FULL_TWO a FullTwo or StateTwo, for
    the source game; FULL_ONE_PULLBACK takes a FullOne or StateOne and
    PRE_ONE_PULLBACK a PreOne, for the target game.  The output plays the
    other game; the full directions return a FullTwo or FullOne, with the
    same rows for a state-keyed input as for the history table it stands
    for.  Raises AxiomsFail, ValueError
    for a class the direction does not take, InputNotWinning for an input
    that loses and TranslationFailed for an output that loses.
    """
    _require_axioms(pack, src, dst)
    return _transfer(pack, Search(src), Search(dst), direction, strategy)


def _require_axioms(pack: TranslationPack, src: GameSpec, dst: GameSpec) -> None:
    """Raise AxiomsFail, naming the first failure, unless the axioms hold."""
    check = check_translation_axioms(pack, src, dst)
    if not check:
        raise AxiomsFail(f"pack violates {check.failure[0]} at {check.failure[1]}")


def _input_search(direction: Direction, src: Search, dst: Search) -> tuple:
    """The search context of the game ``direction`` takes its input for,
    the side that input plays, and the synthesizer that finds a limited
    input there (None for the full directions, which take the witness)."""
    if direction in (Direction.MARKOV_TWO, Direction.FULL_TWO):
        limited = direction is Direction.MARKOV_TWO
        return src, Player.TWO, Search.find_markov_two if limited else None
    limited = direction is Direction.PRE_ONE_PULLBACK
    return dst, Player.ONE, Search.find_predetermined_one if limited else None


def _transfer(pack: TranslationPack, src_search: Search, dst_search: Search,
              direction: Direction, strategy):
    """``apply_translation`` for a pack whose axioms already hold, given
    the two games' search contexts: the input is verified on its game's
    context and the output on the other game's."""
    takes = {
        Direction.MARKOV_TWO: (MarkovTwo,),
        Direction.FULL_TWO: (FullTwo, StateTwo),
        Direction.FULL_ONE_PULLBACK: (FullOne, StateOne),
        Direction.PRE_ONE_PULLBACK: (PreOne,),
    }[direction]
    pushes = direction in (Direction.MARKOV_TWO, Direction.FULL_TWO)
    in_search, out_search = (src_search, dst_search) if pushes else (dst_search, src_search)
    side = "source" if pushes else "target"
    if not isinstance(strategy, takes):
        names = " or ".join(cls.__name__ for cls in takes)
        raise ValueError(f"{direction.value} takes a {names} for the {side} game")
    if not in_search.verify(strategy).valid:
        raise InputNotWinning(f"input strategy loses the {side} game")
    src, dst = src_search.game, dst_search.game
    _, answer = strategy_lookup(strategy)
    h = src.horizon
    t_one, t_two = pack.t_one, pack.t_two
    table: dict = {}

    if direction is Direction.MARKOV_TWO:
        for r in range(h):
            for j in range(len(dst.moves[r])):
                x = strategy.table[(t_one[r][j], r)]
                table[(j, r)] = t_two[r][(x, j)]
        out: object = MarkovTwo(table=table)

    elif direction is Direction.FULL_TWO:
        step = src.target.step

        def push(r: int, js: tuple, src_idx: tuple, state) -> None:
            # state: the source game's, after Two's replies to src_idx
            if r == h:
                return
            for j in range(len(dst.moves[r])):
                idx = src_idx + (t_one[r][j],)
                x = answer(idx, r, state)
                table[js + (j,)] = t_two[r][(x, j)]
                push(r + 1, js + (j,), idx, step(state, x))

        try:
            push(0, (), (), src.target.start)
        finally:
            del push
        out = FullTwo(table=table)

    elif direction is Direction.FULL_ONE_PULLBACK:
        step = dst.target.step

        def pull(r: int, src_hist: tuple, dst_hist: tuple, state) -> None:
            # state: the target game's, after the pushed selections
            if r == h:
                return
            b = answer(dst_hist, r, state)
            a = t_one[r][b]
            table[src_hist] = a
            for x in sorted(src.moves[r][a]):
                y = t_two[r][(x, b)]
                pull(r + 1, src_hist + (x,), dst_hist + (y,), step(state, y))

        try:
            pull(0, (), (), dst.target.start)
        finally:
            del pull
        out = FullOne(table=table)

    else:
        out = PreOne(indices=tuple(t_one[r][strategy.indices[r]] for r in range(h)))

    if not out_search.verify(out).valid:
        raise TranslationFailed(f"transferred strategy loses ({direction.value})")
    return out


def lift_item_map(
    phi: Callable[[int, int], int], src: GameSpec, dst: GameSpec
) -> TranslationPack:
    """Build a pack from a pointwise item map (target item, round) -> source item.

    The image of each target move set must equal some source move set of
    the same round (least matching index is used); the selection
    pushforward sends each item of that source move set to its least
    preimage in item order.
    """
    _require_single(src, dst)
    if src.horizon != dst.horizon:
        raise ValueError("games must share a horizon")
    t_one = []
    t_two = []
    for r in range(dst.horizon):
        one_map: dict[int, int] = {}
        two_map: dict[tuple[int, int], int] = {}
        for j, move in enumerate(dst.moves[r]):
            least: dict[int, int] = {}  # source item -> its least preimage
            for y in sorted(move):
                least.setdefault(phi(y, r), y)
            image = frozenset(least)
            if image not in src.moves[r]:
                raise ImageNotMove(
                    f"round {r}: image of target move {j} is not a source move set"
                )
            one_map[j] = src.moves[r].index(image)
            for x in sorted(image):
                two_map[(x, j)] = least[x]
        t_one.append(one_map)
        t_two.append(two_map)
    return TranslationPack(t_one=tuple(t_one), t_two=tuple(t_two))


# -- strengthening over filter bases ------------------------------------


def is_filter_base(family: Sequence[frozenset]) -> bool:
    """Every two move sets contain a member move set inside their intersection."""
    return all(
        any(member <= a & b for member in family)
        for a, b in itertools.combinations_with_replacement(family, 2)
    )


def _round_constant_family(game: GameSpec) -> tuple[frozenset, ...]:
    if game.horizon == 0:
        raise ValueError("game has no rounds")
    family = game.moves[0]
    if any(game.moves[r] != family for r in range(game.horizon)):
        raise ValueError("strengthening needs a round-constant move family")
    return family


def strengthen_one_for_subsequences(
    s: Union[FullOne, PreOne], game: GameSpec, low: int
) -> FullOne:
    """Upgrade a uniformly winning One strategy to a subsequence-proof one.

    ``s`` is a history table or a script, read from the history alone,
    and must win the game at every horizon in [low, game.horizon] (the
    same strategy, truncated).  The returned strategy answers each history
    with the least move set contained in the intersection of every move
    ``s`` would have offered along every subsequence of that history; a
    filter-base move family guarantees such a move exists.  Consequently
    every subsequence of every play of the result is itself a play of
    ``s``, so every subsequence of length >= low of the final selection
    satisfies whatever the uniform wins force on full selections.
    """
    if not isinstance(s, (FullOne, PreOne)):
        raise ValueError(
            f"strengthening takes a FullOne or PreOne, not a {type(s).__name__}"
        )
    _require_single(game)
    family = _round_constant_family(game)
    if not is_filter_base(family):
        raise NotFilterBase("move family is not a filter base")
    if not 0 <= low <= game.horizon:
        raise ValueError("low outside 0..horizon")
    for h in range(low, game.horizon + 1):
        if not verify(game.truncated(h), s).valid:
            raise NotUniformlyWinning(h)

    _, answer = strategy_lookup(s)
    table: dict = {}

    def sigma_index(hist: tuple) -> int:
        if not hist:
            return answer((), 0, None)
        needed = None
        for k in range(len(hist) + 1):
            for sub in itertools.combinations(hist, k):
                ms = family[answer(sub, len(sub), None)]
                needed = ms if needed is None else needed & ms
        for idx, member in enumerate(family):
            if member <= needed:
                return idx
        raise NotFilterBase("no move set inside the required intersection")

    def walk(hist: tuple) -> None:
        if len(hist) == game.horizon:
            return
        idx = sigma_index(hist)
        table[hist] = idx
        for x in sorted(family[idx]):
            walk(hist + (x,))

    try:
        walk(())
    finally:
        del walk
    return FullOne(table=table)


def intersect_predetermined(s: PreOne, fam: SetFamily) -> PreOne:
    """Running-union upgrade of a predetermined script over an ideal base.

    Round k of the result names the least family member containing the
    union of the script's first k+1 picks.  If the script wins the plain
    cover target at every horizon in [m, n], the result wins the window
    cover target with width m at horizon n: any m consecutive replies to
    the result, re-indexed, form a legal counter-play against the script
    at horizon m.

    An ideal base always supplies the running-union witnesses; failures
    surface lazily as WitnessMissing at the first round that needs a
    witness the family lacks.
    """
    out = []
    union = 0
    for k, i in enumerate(s.indices):
        if not 0 <= i < len(fam.members):
            raise ValueError(f"script index {i} outside the family")
        union |= fam.members[i]
        witness = None
        for j, member in enumerate(fam.members):
            if is_subset(union, member):
                witness = j
                break
        if witness is None:
            raise WitnessMissing(f"no member contains the union at round {k}")
        out.append(witness)
    return PreOne(indices=tuple(out))

