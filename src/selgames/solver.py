"""Exact winner determination and limited-information strategy synthesis.

solve() runs backward induction over the full game tree, memoizing on
(round, target state): every target is a deterministic automaton whose
state decides all future verdicts, so histories that reach the same
state share one value, soundly by construction.  Witness extraction
always prefers the least move index / least selection, so results are
reproducible across platforms and schedules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .errors import BudgetExceeded, IllegalMove
from .game import (
    FullOne,
    FullTwo,
    GameSpec,
    Kind,
    MarkovTwo,
    Player,
    PlayRecord,
    PreOne,
    StrategyOne,
    StrategyTwo,
    flatten_selections,
    one_move_index,
    play,
)

DEFAULT_NODE_BUDGET = 10**7
MARKOV_CELL_CAP = 24
MAX_EXHIBITS = 16


def _choices(game: GameSpec, move_set: frozenset) -> Iterator:
    """Two's legal selections from one move set, in canonical order."""
    items = sorted(move_set)
    if game.kind is Kind.SINGLE:
        yield from items
    else:
        for r in range(1, len(items) + 1):
            for combo in itertools.combinations(items, r):
                yield frozenset(combo)


def _advance(game: GameSpec, state, x):
    """Target state after Two's selection ``x``; a subset steps in item order."""
    step = game.target.step
    if game.kind is Kind.SINGLE:
        return step(state, x)
    for item in sorted(x):
        state = step(state, item)
    return state


@dataclass(frozen=True)
class Determination:
    winner: Player
    witness: Union[FullOne, FullTwo]
    nodes_explored: int
    memo_hits: int


class _Solver:
    def __init__(self, game: GameSpec):
        self.game = game
        self.memo: dict = {}
        self.nodes = 0
        self.hits = 0

    def two_wins(self, r: int, state) -> bool:
        game = self.game
        if r == game.horizon:
            return game.target.accept(state)
        key = (r, state)
        if key in self.memo:
            self.hits += 1
            return self.memo[key]
        self.nodes += 1
        result = all(
            any(
                self.two_wins(r + 1, _advance(game, state, x))
                for x in _choices(game, ms)
            )
            for ms in game.moves[r]
        )
        self.memo[key] = result
        return result

    def extract_one(self) -> FullOne:
        game = self.game
        table: dict = {}

        def walk(r: int, hist: tuple, state) -> None:
            if r == game.horizon:
                return
            best = None
            for i, ms in enumerate(game.moves[r]):
                if not any(
                    self.two_wins(r + 1, _advance(game, state, x))
                    for x in _choices(game, ms)
                ):
                    best = i
                    break
            assert best is not None, "extraction from a lost position"
            table[hist] = best
            for x in _choices(game, game.moves[r][best]):
                walk(r + 1, hist + (x,), _advance(game, state, x))

        walk(0, (), game.target.start)
        return FullOne(table=table)

    def extract_two(self) -> FullTwo:
        game = self.game
        table: dict = {}

        def walk(r: int, idx_hist: tuple, state) -> None:
            if r == game.horizon:
                return
            for i, ms in enumerate(game.moves[r]):
                chosen = None
                for x in _choices(game, ms):
                    if self.two_wins(r + 1, _advance(game, state, x)):
                        chosen = x
                        break
                assert chosen is not None, "extraction from a lost position"
                table[idx_hist + (i,)] = chosen
                walk(r + 1, idx_hist + (i,), _advance(game, state, chosen))

        walk(0, (), game.target.start)
        return FullTwo(table=table)


def solve(game: GameSpec) -> Determination:
    """Winner by backward induction plus a verified-by-construction witness."""
    s = _Solver(game)
    if s.two_wins(0, game.target.start):
        side, witness = Player.TWO, s.extract_two()
    else:
        side, witness = Player.ONE, s.extract_one()
    return Determination(
        winner=side, witness=witness, nodes_explored=s.nodes, memo_hits=s.hits
    )


def winner(game: GameSpec) -> Player:
    """The winner alone: backward induction without witness extraction."""
    if _Solver(game).two_wins(0, game.target.start):
        return Player.TWO
    return Player.ONE


def find_predetermined_one(game: GameSpec) -> Optional[PreOne]:
    """Lexicographically least winning script for One, or None.

    Enumerates move-index tuples; for each, exhausts Two's replies with
    memoization shared across tuples via the (suffix, round, target state)
    key.
    """
    memo: dict = {}

    def two_can_win(idx: tuple, r: int, state) -> bool:
        if r == game.horizon:
            return game.target.accept(state)
        key = (idx[r:], r, state)
        if key in memo:
            return memo[key]
        ms = game.moves[r][idx[r]]
        result = any(
            two_can_win(idx, r + 1, _advance(game, state, x))
            for x in _choices(game, ms)
        )
        memo[key] = result
        return result

    for idx in itertools.product(*(range(len(f)) for f in game.moves)):
        if not two_can_win(idx, 0, game.target.start):
            return PreOne(indices=idx)
    return None


def find_markov_two(
    game: GameSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[MarkovTwo]:
    """Exact backtracking search for a winning Markov table, or None.

    Budget exhaustion raises BudgetExceeded: a third outcome, distinct
    from "no such strategy exists".
    """
    # Column-major cell order: once move index 0 is assigned at every
    # round, each later assignment completes plays immediately, so the
    # partial-play falsification prunes near the top of the search tree.
    cells = sorted(
        ((r, j) for r in range(game.horizon) for j in range(len(game.moves[r]))),
        key=lambda cell: (cell[1], cell[0]),
    )
    max_family = max((len(f) for f in game.moves), default=0)
    if max_family * game.horizon > MARKOV_CELL_CAP:
        raise BudgetExceeded(
            f"Markov table would need {max_family * game.horizon} cells"
            f" (cap {MARKOV_CELL_CAP})"
        )
    if game.horizon == 0:
        return MarkovTwo(table={}) if game.target.evaluate(()) else None
    if winner(game) is Player.ONE:
        return None

    assigned: dict = {}
    budget = [node_budget]

    def complete_plays_through(cell) -> Iterator[tuple]:
        r0, j0 = cell
        per_round = []
        for r in range(game.horizon):
            js = [j0] if r == r0 else [
                j for j in range(len(game.moves[r])) if (r, j) in assigned
            ]
            if not js:
                return
            per_round.append(js)
        yield from itertools.product(*per_round)

    def play_ok(idx: tuple) -> bool:
        sel = tuple(assigned[(r, j)] for r, j in enumerate(idx))
        return game.target.evaluate(flatten_selections(game.kind, sel))

    def assign(k: int) -> bool:
        if k == len(cells):
            return True
        r, j = cells[k]
        for x in _choices(game, game.moves[r][j]):
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceeded("Markov search node budget exhausted")
            assigned[(r, j)] = x
            if all(play_ok(idx) for idx in complete_plays_through((r, j))):
                if assign(k + 1):
                    return True
            del assigned[(r, j)]
        return False

    if assign(0):
        return MarkovTwo(table={(j, r): assigned[(r, j)] for r, j in cells})
    return None


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    side: Player
    counter_plays: tuple[PlayRecord, ...]
    plays_checked: int


def one_side_plays(
    game: GameSpec, one: Union[StrategyOne, Sequence[int]]
) -> Iterator[PlayRecord]:
    """Every completed play with Two ranging over all legal replies."""

    def walk(r: int, idx_hist: tuple, sel_hist: tuple) -> Iterator[PlayRecord]:
        if r == game.horizon:
            flat = flatten_selections(game.kind, sel_hist)
            won = Player.TWO if game.target.evaluate(flat) else Player.ONE
            yield PlayRecord(idx_hist, sel_hist, won)
            return
        i = one_move_index(one, sel_hist, r)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        for x in _choices(game, game.moves[r][i]):
            yield from walk(r + 1, idx_hist + (i,), sel_hist + (x,))

    yield from walk(0, (), ())


def two_side_plays(
    game: GameSpec, two: Union[StrategyTwo, Sequence]
) -> Iterator[PlayRecord]:
    """Every completed play with One ranging over all index tuples."""
    for idx in itertools.product(*(range(len(f)) for f in game.moves)):
        yield play(game, idx, two)


def verify(
    game: GameSpec,
    strategy: Union[StrategyOne, StrategyTwo],
    max_exhibits: int = MAX_EXHIBITS,
) -> VerificationReport:
    """Exhaustive adversary enumeration; lists losing counter-plays."""
    if isinstance(strategy, (PreOne, FullOne)):
        side = Player.ONE
        plays = one_side_plays(game, strategy)
        losing = Player.TWO
    elif isinstance(strategy, (FullTwo, MarkovTwo)):
        side = Player.TWO
        plays = two_side_plays(game, strategy)
        losing = Player.ONE
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    counters = []
    checked = 0
    for rec in plays:
        checked += 1
        if rec.winner is losing and len(counters) < max_exhibits:
            counters.append(rec)
    return VerificationReport(
        valid=not counters,
        side=side,
        counter_plays=tuple(counters),
        plays_checked=checked,
    )


def is_winning(game: GameSpec, strategy) -> bool:
    """Like verify(...).valid but stops at the first counter-play."""
    if isinstance(strategy, (PreOne, FullOne)):
        plays, losing = one_side_plays(game, strategy), Player.TWO
    elif isinstance(strategy, (FullTwo, MarkovTwo)):
        plays, losing = two_side_plays(game, strategy), Player.ONE
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    return all(rec.winner is not losing for rec in plays)


def selection_principle_holds(game: GameSpec) -> bool:
    """Single-selection principle at this horizon: every script is beatable.

    Definitionally equivalent to the absence of a winning predetermined
    strategy for One; tests assert agreement with the synthesizer.
    """
    for idx in itertools.product(*(range(len(f)) for f in game.moves)):

        def beatable(r: int, state) -> bool:
            if r == game.horizon:
                return game.target.accept(state)
            return any(
                beatable(r + 1, _advance(game, state, x))
                for x in _choices(game, game.moves[r][idx[r]])
            )

        if not beatable(0, game.target.start):
            return False
    return True
