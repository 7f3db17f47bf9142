"""Round-based selection games: specs, targets, strategy classes, play.

One offers a move set each round (by index into that round's family);
Two selects one item (single kind) or a nonempty finite subset (finite
kind).  Two wins a play when the target predicate accepts the final
selection sequence.  Strategy classes: full-information One and Two
(keyed by history), script-only (predetermined) One, Markov Two (latest
move plus round number only), and the state-keyed One and Two that the
solver returns (round plus target state).
"""

from __future__ import annotations

import enum
import itertools
from functools import reduce
from operator import or_
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union, get_args

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
        return all(
            sum(1 for u in state if is_subset(a, u)) >= self.m for a in self.members
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
    """True when the selected set is one of an explicit list of winning sets.

    The list is stored as a set of sets: its order and repeats are not
    part of the target.
    """

    winning: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "winning", frozenset(map(frozenset, self.winning)))

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

    def truncated(self, h: int) -> "GameSpec":
        """The same game stopped after ``h`` rounds."""
        if not 0 <= h <= self.horizon:
            raise ValueError("bad truncation horizon")
        return GameSpec(moves=self.moves[:h], horizon=h, kind=self.kind, target=self.target)


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
    # 0 is a legal width or multiplicity: classify_cover builds such targets
    if getattr(target, "w", 0) < 0 or getattr(target, "m", 0) < 0:
        raise ValueError(f"negative width or multiplicity in {target!r}")
    if isinstance(target, (Not, EverySubsequence)):
        _check_target(target.inner)


def make_game(
    moves: Sequence[Sequence[MoveSet]],
    horizon: int,
    kind: Kind,
    target: Target,
) -> GameSpec:
    """Validate the kind, the integer horizon, the move families, and the
    target as built from the six classes above."""
    if not isinstance(kind, Kind):
        raise TypeError(f"kind must be a Kind, got {kind!r}")
    if type(horizon) is not int:  # a bool is not a horizon
        raise TypeError(f"horizon must be an integer, got {horizon!r}")
    _check_target(target)
    if not 0 <= horizon <= HORIZON_CAP:
        raise ValueError(f"horizon outside 0..{HORIZON_CAP}")
    if len(moves) != horizon:
        raise ValueError("moves must list one family per round")
    packed = []
    for r, family in enumerate(moves):
        if r and family is moves[r - 1]:
            # the builders pass one family object for every round: it is
            # checked and packed once
            packed.append(packed[-1])
            continue
        if not family:
            raise EmptyMove(f"round {r} has no move sets")
        packed.append(tuple(map(frozenset, family)))
        if not all(packed[-1]):
            raise EmptyMove(f"round {r} contains an empty move set")
    return GameSpec(moves=tuple(packed), horizon=horizon, kind=kind, target=target)


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


# each class's side, the text of its IllegalMove for a missing row, and
# the row key at (history, round, state)
_LOOKUPS = {
    PreOne: (Player.ONE, "predetermined script too short", lambda h, r, s: r),
    FullOne: (Player.ONE, _MISSING_ROW, lambda h, r, s: h),
    StateOne: (Player.ONE, _MISSING_ROW, lambda h, r, s: (r, s)),
    FullTwo: (Player.TWO, _MISSING_ROW, lambda h, r, s: h),
    StateTwo: (Player.TWO, _MISSING_ROW, lambda h, r, s: (r, s, h[-1])),
    MarkovTwo: (Player.TWO, "Markov table missing a cell", lambda h, r, s: (h[-1], r)),
}


def strategy_lookup(strategy, side: Optional[Player] = None) -> tuple[Player, Callable]:
    """The side ``strategy`` plays and its answer at (history, round,
    state), looked up once for a walk to call at each node: One's move
    index after Two's selections, or Two's selection after One's indices
    (the current one last).  A missing row raises IllegalMove; the answer
    is not checked against the move sets.  A plain sequence, as ``play``
    takes, is a script for ``side``, read as a PreOne's indices are."""
    found = _LOOKUPS.get(type(strategy))
    if found is None and side is not None:
        found, rows = (side, *_LOOKUPS[PreOne][1:]), dict(enumerate(strategy))
    elif found is None or side not in (None, found[0]):
        raise TypeError(f"not a {side.value + ' ' if side else ''}strategy: {strategy!r}")
    else:
        rows = dict(enumerate(strategy.indices)) if type(strategy) is PreOne else strategy.table
    side, missing, key = found

    def answer(history: tuple, r: int, state):
        try:
            return rows[key(history, r, state)]
        except KeyError:
            raise IllegalMove(r, missing) from None

    return side, answer


def two_choices(game: GameSpec, move_set: MoveSet) -> Iterator:
    """Two's legal selections from one move set, in canonical order."""
    items = sorted(move_set)
    if game.kind is Kind.SINGLE:
        return iter(items)
    return (frozenset(combo) for r in range(1, len(items) + 1)
            for combo in itertools.combinations(items, r))


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
    _, one_answer = strategy_lookup(one, Player.ONE)
    _, two_answer = strategy_lookup(two, Player.TWO)
    idx_hist: tuple[int, ...] = ()
    sel_hist: tuple = ()
    state = game.target.start
    for r in range(game.horizon):
        i = one_answer(sel_hist, r, state)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        idx_hist = idx_hist + (i,)
        x = legal_selection(game, r, game.moves[r][i], two_answer(idx_hist, r, state))
        sel_hist = sel_hist + (x,)
        state = advance(game, state, x)
    winner = Player.TWO if game.target.accept(state) else Player.ONE
    return PlayRecord(one_moves=idx_hist, two_selections=sel_hist, winner=winner)
