"""Round-based selection games: specs, targets, strategy classes, play.

One offers a move set each round (by index into that round's family);
Two selects one item (single kind) or a nonempty finite subset (finite
kind).  Two wins a play when the target predicate accepts the final
selection sequence.  Strategy classes: full-information One and Two
(keyed by history), script-only (predetermined) One, Markov Two (latest
move plus round number only), and the state-keyed One and Two that the
solver returns (round plus target state).  ``expand`` turns any of the
last four into the history table of the full-information class.
"""

from __future__ import annotations

import enum
import itertools
from functools import reduce
from operator import or_
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union, get_args

from ._bits import is_subset
from .errors import EmptyMove, IllegalMove


class Kind(enum.Enum):
    SINGLE = "single"
    FINITE = "finite"


class Player(enum.Enum):
    ONE = "one"
    TWO = "two"


# -- targets -----------------------------------------------------------
#
# A target reads items one at a time as a deterministic automaton:
# ``start`` is its state before any item, ``step(state, item)`` the state
# after one more, ``accept(state)`` the verdict.  States are hashable and
# decide every future verdict, so the solver memoizes on (round, state)
# and the script search on (round, set of states).  Items are plain ints;
# cover-style targets read them as subset bitmasks.


def _members_inside(members: tuple[int, ...], item: int) -> int:
    """Bitmask of the indices of the members that ``item`` contains."""
    hit = 0
    for k, a in enumerate(members):
        if is_subset(a, item):
            hit |= 1 << k
    return hit


class _Automaton:
    def evaluate(self, selection: Sequence[int]) -> bool:
        state = self.start
        for item in selection:
            state = self.step(state, item)
        return self.accept(state)


@dataclass(frozen=True)
class _CoverAutomaton(_Automaton):
    """A cover target's step reads the bitmask of members inside each
    item; it depends on the item alone, so it is computed once per item
    and kept in a table of this target (outside ``==`` and ``hash``)."""

    _inside_table: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _inside(self, item: int) -> int:
        hit = self._inside_table.get(item)
        if hit is None:
            hit = self._inside_table[item] = _members_inside(self.members, item)
        return hit


class _SelectedSet(_Automaton):
    """State: the set of items selected so far."""

    start = frozenset()

    def step(self, state: frozenset, item: int) -> frozenset:
        return state | {item}


@dataclass(frozen=True)
class CoversFamily(_CoverAutomaton):
    """True when the full set is absent and every member has a listed superset.

    State: the bitmask of covered members, or None once the full set is listed.
    """

    full: int
    members: tuple[int, ...]

    start = 0

    def step(self, state, item: int):
        if state is None or item == self.full:
            return None
        return state | self._inside(item)

    def accept(self, state) -> bool:
        return state == (1 << len(self.members)) - 1


@dataclass(frozen=True)
class MultiCover(_SelectedSet):
    """Cover with multiplicity: every member inside >= m distinct listed sets."""

    full: int
    members: tuple[int, ...]
    m: int

    def accept(self, state: frozenset) -> bool:
        if self.full in state:
            return False
        if not self.members:
            return self.m <= 0
        need = max(self.m, 1)
        return all(
            sum(1 for u in state if is_subset(a, u)) >= need for a in self.members
        )


@dataclass(frozen=True)
class WindowCover(_CoverAutomaton):
    """Cover whose every w-long run of consecutive sets already covers.

    Genuinely order-sensitive; the finite stand-in for cofinite
    ("tail") containment.  State: the covered-member bitmask plus, for
    each of the last w-1 items, the bitmask of members inside it; None
    once the full set is listed or a completed window misses a member.
    """

    full: int
    members: tuple[int, ...]
    w: int

    @property
    def start(self):
        # no window shorter than one item covers a member
        if self.w < (1 if self.members else 0):
            return None
        return (0, ())

    def step(self, state, item: int):
        if state is None or item == self.full:
            return None
        covered, tail = state
        window = tail + (self._inside(item),)
        covered |= window[-1]
        if len(window) < self.w:
            return (covered, window)
        if reduce(or_, window) != (1 << len(self.members)) - 1:
            return None
        return (covered, window[1:])

    def accept(self, state) -> bool:
        return state is not None and state[0] == (1 << len(self.members)) - 1


@dataclass(frozen=True)
class ExplicitSet(_SelectedSet):
    """True when the selected set is one of an explicit list of winning sets."""

    winning: tuple[frozenset[int], ...]

    def accept(self, state: frozenset) -> bool:
        return state in self.winning


@dataclass(frozen=True)
class EverySubsequence(_Automaton):
    """True when every subsequence of length >= m satisfies the inner target.

    State: the set of (inner state, length capped at m) pairs reached by
    the subsequences of the items read so far.
    """

    inner: "Target"
    m: int

    @property
    def start(self) -> frozenset:
        return frozenset([(self.inner.start, 0)])

    def step(self, state: frozenset, item: int) -> frozenset:
        # pairs often share an inner state: step each one once
        stepped = {s: self.inner.step(s, item) for s in {s for s, _ in state}}
        return state | {(stepped[s], min(k + 1, self.m)) for s, k in state}

    def accept(self, state: frozenset) -> bool:
        return all(self.inner.accept(s) for s, k in state if k >= self.m)


@dataclass(frozen=True)
class Not(_Automaton):
    """The inner target's automaton with the verdict negated."""

    inner: "Target"

    @property
    def start(self):
        return self.inner.start

    def step(self, state, item: int):
        return self.inner.step(state, item)

    def accept(self, state) -> bool:
        return not self.inner.accept(state)


Target = Union[CoversFamily, MultiCover, WindowCover, ExplicitSet, EverySubsequence, Not]
_TARGET_CLASSES = get_args(Target)  # isinstance on a tuple skips typing's Union check


# -- game specs --------------------------------------------------------

MoveSet = frozenset  # of items (ints)

HORIZON_CAP = 8


@dataclass(frozen=True)
class GameSpec:
    """A validated finite-horizon selection game.

    ``moves[r]`` is round r's family of move sets; One's move is an index
    into it (histories stay finite and hashable even when families repeat
    sets).  ``target`` is Two's winning predicate on the final selection
    sequence.
    """

    moves: tuple[tuple[MoveSet, ...], ...]
    horizon: int
    kind: Kind
    target: Target
    universe: frozenset[int]

    def truncated(self, h: int) -> "GameSpec":
        """The same game stopped after ``h`` rounds."""
        if not 0 <= h <= self.horizon:
            raise ValueError("bad truncation horizon")
        return GameSpec(
            moves=self.moves[:h],
            horizon=h,
            kind=self.kind,
            target=self.target,
            universe=self.universe,
        )


def advance(game: "GameSpec", state, x):
    """Target state after Two's selection ``x``; a subset steps in item order."""
    step = game.target.step
    if game.kind is Kind.SINGLE:
        return step(state, x)
    for item in sorted(x):
        state = step(state, item)
    return state


def _check_target(target) -> None:
    if not isinstance(target, _TARGET_CLASSES):
        raise TypeError(f"not a built-in target: {target!r}")
    if isinstance(target, (Not, EverySubsequence)):
        _check_target(target.inner)


def make_game(
    moves: Sequence[Sequence[MoveSet]],
    horizon: int,
    kind: Kind,
    target: Target,
) -> GameSpec:
    """Validate the move families, and the target as built from the six classes above."""
    _check_target(target)
    if not 0 <= horizon <= HORIZON_CAP:
        raise ValueError(f"horizon outside 0..{HORIZON_CAP}")
    if len(moves) != horizon:
        raise ValueError("moves must list one family per round")
    packed = []
    universe: set[int] = set()
    for r, family in enumerate(moves):
        if not family:
            raise EmptyMove(f"round {r} has no move sets")
        fam = []
        for ms in family:
            fs = frozenset(ms)
            if not fs:
                raise EmptyMove(f"round {r} contains an empty move set")
            fam.append(fs)
            universe.update(fs)
        packed.append(tuple(fam))
    return GameSpec(
        moves=tuple(packed),
        horizon=horizon,
        kind=kind,
        target=target,
        universe=frozenset(universe),
    )


# -- strategies --------------------------------------------------------

_MISSING_ROW = "strategy table missing a reachable history"


@dataclass(frozen=True)
class PreOne:
    """One's script: a move index per round, blind to Two's replies."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class FullOne:
    """One's full-information strategy: history of Two's selections -> index."""

    table: Mapping[tuple, int]


@dataclass(frozen=True)
class FullTwo:
    """Two's full-information strategy: One's index history (incl. current) -> item."""

    table: Mapping[tuple, object]


@dataclass(frozen=True)
class MarkovTwo:
    """Two's Markov strategy: (One's current move index, round) -> item."""

    table: Mapping[tuple, object]


@dataclass(frozen=True)
class StateOne:
    """One's strategy on (round, target state) -> index.

    The target state after Two's selections decides every future
    verdict, so it is all a winning One needs to see.  Every history
    reaching the same state in the same round gets the same move.
    """

    table: Mapping[tuple, int]


@dataclass(frozen=True)
class StateTwo:
    """Two's strategy on (round, target state, One's current index) -> item."""

    table: Mapping[tuple, object]


StrategyOne = Union[PreOne, FullOne, StateOne]
StrategyTwo = Union[FullTwo, MarkovTwo, StateTwo]


def one_move_index(
    one: Union[StrategyOne, Sequence[int]], history: tuple, r: int, state=None
) -> int:
    """One's index at round ``r`` after Two's selections ``history``;
    ``state`` is the target state they reached (read by StateOne only)."""
    if isinstance(one, PreOne):
        if r >= len(one.indices):
            raise IllegalMove(r, "predetermined script too short")
        return one.indices[r]
    if isinstance(one, (FullOne, StateOne)):
        key = history if isinstance(one, FullOne) else (r, state)
        if key not in one.table:
            raise IllegalMove(r, _MISSING_ROW)
        return one.table[key]
    return one[r]


def two_selection(
    two: Union[StrategyTwo, Sequence],
    idx_history: tuple[int, ...],
    r: int,
    state=None,
):
    """Two's reply at round ``r`` to One's indices ``idx_history``;
    ``state`` is the target state before the reply (read by StateTwo only)."""
    if isinstance(two, (FullTwo, StateTwo)):
        key = idx_history if isinstance(two, FullTwo) else (r, state, idx_history[-1])
        if key not in two.table:
            raise IllegalMove(r, _MISSING_ROW)
        return two.table[key]
    if isinstance(two, MarkovTwo):
        key = (idx_history[-1], r)
        if key not in two.table:
            raise IllegalMove(r, "Markov table missing a cell")
        return two.table[key]
    return two[r]


def two_choices(game: GameSpec, move_set: MoveSet) -> Iterator:
    """Two's legal selections from one move set, in canonical order."""
    items = sorted(move_set)
    if game.kind is Kind.SINGLE:
        yield from items
    else:
        for r in range(1, len(items) + 1):
            for combo in itertools.combinations(items, r):
                yield frozenset(combo)


def legal_selection(game: GameSpec, r: int, move_set: MoveSet, x):
    """Two's selection ``x`` at round ``r``, a finite-kind one as a frozenset.

    Raises IllegalMove unless ``x`` is an item of the move set (single
    kind) or a nonempty subset of it (finite kind).
    """
    if game.kind is Kind.SINGLE:
        if x not in move_set:
            raise IllegalMove(r, f"selection {x!r} outside the offered move set")
        return x
    x = frozenset(x)
    if not x or not x <= move_set:
        raise IllegalMove(r, "selection not a nonempty subset of the move set")
    return x


@dataclass(frozen=True)
class PlayRecord:
    one_moves: tuple[int, ...]
    two_selections: tuple
    winner: Player


def play(
    game: GameSpec,
    one: Union[StrategyOne, Sequence[int]],
    two: Union[StrategyTwo, Sequence],
) -> PlayRecord:
    """Run both strategies to completion; deterministic transcript."""
    idx_hist: tuple[int, ...] = ()
    sel_hist: tuple = ()
    state = game.target.start
    for r in range(game.horizon):
        i = one_move_index(one, sel_hist, r, state)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        idx_hist = idx_hist + (i,)
        x = two_selection(two, idx_hist, r, state)
        x = legal_selection(game, r, game.moves[r][i], x)
        sel_hist = sel_hist + (x,)
        state = advance(game, state, x)
    winner = Player.TWO if game.target.accept(state) else Player.ONE
    return PlayRecord(one_moves=idx_hist, two_selections=sel_hist, winner=winner)


def is_one_play(game: GameSpec, one: Union[StrategyOne, Sequence[int]], selections: Sequence) -> bool:
    """Whether a selection sequence can arise against this One strategy."""
    hist: tuple = ()
    state = game.target.start  # read by a StateOne alone
    for r, x in enumerate(selections):
        try:
            i = one_move_index(one, hist, r, state)
            if not 0 <= i < len(game.moves[r]):
                return False
            legal = legal_selection(game, r, game.moves[r][i], x)
        except IllegalMove:
            return False
        hist = hist + (x,)
        if isinstance(one, StateOne):
            state = advance(game, state, legal)
    return True


def expand(game: GameSpec, strategy) -> Union[FullOne, FullTwo]:
    """The full-information table of a strategy whose move is a function
    of the round, the target state and One's current index: a StateOne,
    StateTwo, PreOne or MarkovTwo becomes the FullOne or FullTwo that
    answers every reachable history as it does.

    Reachable means: the adversary ranges over every legal choice.  A
    history the strategy has no answer for gets no row, and one answered
    with an illegal move gets its row but no rows below it, so a play of
    the expansion breaks a rule in the round where the strategy's does.
    """
    moves, horizon = game.moves, game.horizon
    table: dict = {}
    if isinstance(strategy, (PreOne, StateOne)):

        def walk_one(r: int, hist: tuple, state) -> None:
            try:
                i = one_move_index(strategy, hist, r, state)
            except IllegalMove:
                return
            table[hist] = i
            if r + 1 < horizon and 0 <= i < len(moves[r]):
                for x in two_choices(game, moves[r][i]):
                    walk_one(r + 1, hist + (x,), advance(game, state, x))

        try:
            if horizon:
                walk_one(0, (), game.target.start)
        finally:
            del walk_one
        return FullOne(table=table)

    if not isinstance(strategy, (MarkovTwo, StateTwo)):
        raise TypeError(f"not a state-determined strategy: {strategy!r}")

    def walk_two(r: int, idx_hist: tuple, state) -> None:
        for i, ms in enumerate(moves[r]):
            idx = idx_hist + (i,)
            try:
                x = two_selection(strategy, idx, r, state)
            except IllegalMove:
                continue
            table[idx] = x
            if r + 1 < horizon:
                try:
                    x = legal_selection(game, r, ms, x)
                except IllegalMove:
                    continue
                walk_two(r + 1, idx, advance(game, state, x))

    try:
        if horizon:
            walk_two(0, (), game.target.start)
    finally:
        del walk_two
    return FullTwo(table=table)
