"""Exact winner determination and limited-information strategy synthesis.

Every target is a deterministic automaton whose state decides all future
verdicts, so the searches run over target states, not histories.  solve()
is backward induction memoized on (round, state).  Witness extraction
prefers the least move index / least selection, so results reproduce;
that choice depends only on (round, state), so it is decided once per
state and the walk over histories only writes table rows.
find_predetermined_one() recurses over (round, set of states Two's
replies can reach), since a script sees no reply.  verify() walks the
play tree once, stepping each (state, selection) transition once and
settling One's last round once per (state, move), so leaves are counted,
not replayed.
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
    legal_selection,
    one_move_index,
    two_choices,
    two_selection,
)

DEFAULT_NODE_BUDGET = 10**7
MARKOV_CELL_CAP = 24
MAX_EXHIBITS = 16


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
                for x in two_choices(game, ms)
            )
            for ms in game.moves[r]
        )
        self.memo[key] = result
        return result

    def extract_one(self) -> FullOne:
        game = self.game
        table: dict = {}
        plans: dict = {}  # (r, state) -> (least winning index, [(reply, next state)])

        def plan(r: int, state):
            for i, ms in enumerate(game.moves[r]):
                if not any(
                    self.two_wins(r + 1, _advance(game, state, x))
                    for x in two_choices(game, ms)
                ):
                    return i, [
                        (x, _advance(game, state, x)) for x in two_choices(game, ms)
                    ]
            raise AssertionError("extraction from a lost position")

        def walk(r: int, hist: tuple, state) -> None:
            if r == game.horizon:
                return
            key = (r, state)
            if key not in plans:
                plans[key] = plan(r, state)
            best, replies = plans[key]
            table[hist] = best
            for x, nxt in replies:
                walk(r + 1, hist + (x,), nxt)

        walk(0, (), game.target.start)
        return FullOne(table=table)

    def extract_two(self) -> FullTwo:
        game = self.game
        table: dict = {}
        plans: dict = {}  # (r, state) -> [(least winning reply, next state)] per index

        def least_winning_reply(r: int, state, ms):
            for x in two_choices(game, ms):
                nxt = _advance(game, state, x)
                if self.two_wins(r + 1, nxt):
                    return x, nxt
            raise AssertionError("extraction from a lost position")

        def walk(r: int, idx_hist: tuple, state) -> None:
            if r == game.horizon:
                return
            key = (r, state)
            if key not in plans:
                plans[key] = [
                    least_winning_reply(r, state, ms) for ms in game.moves[r]
                ]
            for i, (x, nxt) in enumerate(plans[key]):
                table[idx_hist + (i,)] = x
                walk(r + 1, idx_hist + (i,), nxt)

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

    A script sees none of Two's replies, so the search recurses over
    (round, set of target states the replies can have reached), memoized
    on that pair, trying One's indices in order: its first success is the
    least script.  Each (state, move set) step and each (state, selection)
    transition runs once per call.
    """
    successors: dict = {}  # (state, selection) -> next state
    reached: dict = {}  # (state, move set) -> frozenset of next states
    memo: dict = {}  # (round, state set) -> least winning suffix or None

    def advance(state, x):
        if (state, x) not in successors:
            successors[state, x] = _advance(game, state, x)
        return successors[state, x]

    def step(states: frozenset, ms) -> frozenset:
        out = set()
        for state in states:
            if (state, ms) not in reached:
                reached[state, ms] = frozenset(
                    advance(state, x) for x in two_choices(game, ms)
                )
            out |= reached[state, ms]
        return frozenset(out)

    def least_suffix(r: int, states: frozenset) -> Optional[tuple]:
        if r == game.horizon:
            return None if any(map(game.target.accept, states)) else ()
        key = (r, states)
        if key not in memo:
            memo[key] = None
            for i, ms in enumerate(game.moves[r]):
                suffix = least_suffix(r + 1, step(states, ms))
                if suffix is not None:
                    memo[key] = (i,) + suffix
                    break
        return memo[key]

    script = least_suffix(0, frozenset([game.target.start]))
    return None if script is None else PreOne(indices=script)


def find_markov_two(
    game: GameSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[MarkovTwo]:
    """Exact backtracking search for a winning Markov table, or None.

    Budget exhaustion raises BudgetExceeded: a third outcome, distinct
    from "no such strategy exists".  A game One wins has no winning table
    for Two, so it answers None before the cell cap applies.
    """
    # Column-major cell order: once move index 0 is assigned at every
    # round, each later assignment completes plays immediately, so the
    # partial-play falsification prunes near the top of the search tree.
    cells = sorted(
        ((r, j) for r in range(game.horizon) for j in range(len(game.moves[r]))),
        key=lambda cell: (cell[1], cell[0]),
    )
    if game.horizon == 0:
        return MarkovTwo(table={}) if game.target.evaluate(()) else None
    if winner(game) is Player.ONE:
        return None
    max_family = max(len(f) for f in game.moves)
    if max_family * game.horizon > MARKOV_CELL_CAP:
        raise BudgetExceeded(
            f"Markov table would need {max_family * game.horizon} cells"
            f" (cap {MARKOV_CELL_CAP})"
        )

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
        for x in two_choices(game, game.moves[r][j]):
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
    """Every completed play with Two ranging over all legal replies, in
    canonical order, depth first."""
    accept = game.target.accept

    def walk(r: int, idx_hist: tuple, sel_hist: tuple, state) -> Iterator[PlayRecord]:
        if r == game.horizon:
            won = Player.TWO if accept(state) else Player.ONE
            yield PlayRecord(idx_hist, sel_hist, won)
            return
        i = one_move_index(one, sel_hist, r)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        idx = idx_hist + (i,)
        for x in two_choices(game, game.moves[r][i]):
            yield from walk(r + 1, idx, sel_hist + (x,), _advance(game, state, x))

    return walk(0, (), (), game.target.start)


class _FirstLoss(Exception):
    """Ends an is_winning walk at its first losing play."""


def _check(
    game: GameSpec, strategy, max_exhibits: int, first_loss_only: bool
) -> VerificationReport:
    """One depth-first walk of the strategy's play tree, the adversary
    ranging over every legal choice in lexicographic order.

    Every node looks up and checks the strategy's move, raising
    IllegalMove as ``play`` does.  Each (state, selection) transition is
    stepped once per call.  On One's side the last round is settled once
    per (target state, One's index) instead: every node reaching that pair
    has the same reply count and the same winning replies for Two.
    """
    if isinstance(strategy, (PreOne, FullOne)):
        side, other = Player.ONE, Player.TWO
    elif isinstance(strategy, (FullTwo, MarkovTwo)):
        side, other = Player.TWO, Player.ONE
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    target = game.target
    if game.horizon == 0:
        won = Player.TWO if target.accept(target.start) else Player.ONE
        shown = won is other and max_exhibits > 0
        return VerificationReport(
            valid=won is side,
            side=side,
            counter_plays=(PlayRecord((), (), won),) if shown else (),
            plays_checked=1,
        )
    moves, last = game.moves, game.horizon - 1
    successors: dict = {}  # (state, selection) -> next state
    settled: dict = {}  # (state, One's last index) -> (reply count, Two's wins)
    counters: list = []
    checked = lost = 0

    def advance(state, x):
        # the dict itself marks a miss: None is a target state
        nxt = successors.get((state, x), successors)
        if nxt is successors:
            nxt = successors[state, x] = _advance(game, state, x)
        return nxt

    def lose(idx_hist: tuple, sel_hist: tuple, finals: tuple) -> None:
        """The plays ``sel_hist + (x,)``, x in ``finals``, are lost."""
        nonlocal lost
        lost += len(finals)
        room = max_exhibits - len(counters)
        if room > 0:
            counters.extend(
                PlayRecord(idx_hist, sel_hist + (x,), other) for x in finals[:room]
            )
        if first_loss_only:
            raise _FirstLoss

    if side is Player.ONE:

        def walk(r: int, idx_hist: tuple, sel_hist: tuple, state) -> None:
            nonlocal checked
            i = one_move_index(strategy, sel_hist, r)
            if not 0 <= i < len(moves[r]):
                raise IllegalMove(r, f"move index {i} out of range")
            idx = idx_hist + (i,)
            if r < last:
                for x in two_choices(game, moves[r][i]):
                    walk(r + 1, idx, sel_hist + (x,), advance(state, x))
                return
            pair = settled.get((state, i))
            if pair is None:
                xs = tuple(two_choices(game, moves[r][i]))
                wins = tuple(x for x in xs if target.accept(_advance(game, state, x)))
                pair = settled[state, i] = (len(xs), wins)
            count, two_winning = pair
            checked += count
            if two_winning:
                lose(idx, sel_hist, two_winning)

    else:

        def walk(r: int, idx_hist: tuple, sel_hist: tuple, state) -> None:
            nonlocal checked
            for i, ms in enumerate(moves[r]):
                idx = idx_hist + (i,)
                x = legal_selection(game, r, ms, two_selection(strategy, idx, r))
                if r < last:
                    walk(r + 1, idx, sel_hist + (x,), advance(state, x))
                    continue
                checked += 1
                if not target.accept(advance(state, x)):
                    lose(idx, sel_hist, (x,))

    try:
        walk(0, (), (), target.start)
    except _FirstLoss:
        pass
    return VerificationReport(
        valid=not lost,
        side=side,
        counter_plays=tuple(counters),
        plays_checked=checked,
    )


def verify(
    game: GameSpec,
    strategy: Union[StrategyOne, StrategyTwo],
    max_exhibits: int = MAX_EXHIBITS,
) -> VerificationReport:
    """Exhaustive adversary enumeration; lists the first ``max_exhibits``
    losing counter-plays in lexicographic order.  ``valid`` counts every
    losing play, exhibited or not."""
    return _check(game, strategy, max_exhibits, first_loss_only=False)


def is_winning(game: GameSpec, strategy) -> bool:
    """Like verify(...).valid but stops at the first counter-play."""
    return _check(game, strategy, 0, first_loss_only=True).valid

