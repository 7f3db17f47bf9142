"""Exact winner determination and limited-information strategy synthesis.

Every target is a deterministic automaton whose state decides all future
verdicts, so the searches run over target states, not histories.  solve()
is backward induction memoized on (round, state); its witness is the
least winning move per (round, state) -- a StateOne table
(round, state) -> least winning index, or a StateTwo table
(round, state, One's index) -> least winning reply -- so it has one row
per reachable state, not per history (``game.expand`` gives the history
table).  find_predetermined_one() recurses over (round, set of states
Two's replies can reach), since a script sees no reply, and answers None
at once for a set holding a state Two wins from.  One _Solver per game
holds the (state, selection) transition cache, Two's selections from
each move set and the (round, state) memo that determination,
extraction, both synthesizers and this prune share; callers asking
several questions of one game share one _Solver.  verify() checks a
strategy whose move depends on the round, the state and One's index
(StateOne, StateTwo, PreOne, MarkovTwo) by one walk memoized on (round,
state) that counts plays by multiplication; a history table (FullOne,
FullTwo) is walked play by play, stepping each (state, selection)
transition once.
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
    MarkovTwo,
    Player,
    PlayRecord,
    PreOne,
    StateOne,
    StateTwo,
    StrategyOne,
    StrategyTwo,
    advance,
    legal_selection,
    one_move_index,
    two_choices,
    two_selection,
)

DEFAULT_NODE_BUDGET = 10**7
MARKOV_CELL_CAP = 24
MAX_EXHIBITS = 16


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _transitions(game: GameSpec) -> _Table:
    """(state, selection) -> ``advance``: each transition is stepped once,
    however often the searches sharing the table meet it."""
    return _Table(lambda key: advance(game, *key))


@dataclass(frozen=True)
class Determination:
    winner: Player
    witness: Union[StateOne, StateTwo]
    nodes_explored: int
    memo_hits: int


class _Solver:
    """The search context of one game, for every question asked of it.

    It holds the (state, selection) -> next state cache, Two's selections
    from each move set as a tuple (listed on first use: a finite-kind
    move set of k items has 2^k - 1 of them) and the (round, state)
    determination memo; the determination, both extraction walks, the
    script search and Markov synthesis read selections and step the
    target only through those tables, and both synthesizers read their
    prune or winner off that memo.  A caller asking several questions of
    one game builds one and asks them all of it; the nodes and memo hits
    ``solve`` reports then count every search made on it so far.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self.transitions = _transitions(game)
        self.selections = _Table(lambda ms: tuple(two_choices(game, ms)))
        self.memo: dict = {}  # (round, state) -> whether Two wins from there
        self.nodes = 0
        self.hits = 0

    def two_wins(self, r: int, state) -> bool:
        """Whether Two wins from ``state`` before round ``r``: every move
        set has a selection that wins, tried in order; the last round is
        settled by ``accept``."""
        game = self.game
        if r == game.horizon:
            return game.target.accept(state)
        key = (r, state)
        won = self.memo.get(key)
        if won is not None:
            self.hits += 1
            return won
        self.nodes += 1
        transitions, selections = self.transitions, self.selections
        last, accept = r + 1 == game.horizon, game.target.accept
        won = True
        for ms in game.moves[r]:
            for x in selections[ms]:
                nxt = transitions[state, x]
                if accept(nxt) if last else self.two_wins(r + 1, nxt):
                    break
            else:
                won = False
                break
        self.memo[key] = won
        return won

    def winner(self) -> Player:
        """The winner alone: backward induction without witness extraction."""
        return Player.TWO if self.two_wins(0, self.game.target.start) else Player.ONE

    def solve(self) -> Determination:
        if self.two_wins(0, self.game.target.start):
            side, witness = Player.TWO, self.extract_two()
        else:
            side, witness = Player.ONE, self.extract_one()
        return Determination(
            winner=side, witness=witness, nodes_explored=self.nodes, memo_hits=self.hits
        )

    def extract_one(self) -> StateOne:
        """One's least winning index at each (round, state) the strategy
        lets Two reach."""
        game, transitions, selections = self.game, self.transitions, self.selections
        table: dict = {}

        def walk(r: int, state) -> None:
            if (r, state) in table:
                return
            for i, ms in enumerate(game.moves[r]):
                nexts = []
                for x in selections[ms]:
                    nexts.append(transitions[state, x])
                    if self.two_wins(r + 1, nexts[-1]):
                        break
                else:
                    break  # no reply wins for Two
            else:
                raise AssertionError("extraction from a lost position")
            table[r, state] = i
            if r + 1 < game.horizon:
                for nxt in nexts:
                    walk(r + 1, nxt)

        if game.horizon:
            walk(0, game.target.start)
        return StateOne(table=table)

    def extract_two(self) -> StateTwo:
        """Two's least winning reply to each index at each (round, state)
        the strategy lets One reach."""
        game, transitions, selections = self.game, self.transitions, self.selections
        table: dict = {}
        seen: set = set()

        def least_winning_reply(r: int, state, ms):
            for x in selections[ms]:
                nxt = transitions[state, x]
                if self.two_wins(r + 1, nxt):
                    return x, nxt
            raise AssertionError("extraction from a lost position")

        def walk(r: int, state) -> None:
            if (r, state) in seen:
                return
            seen.add((r, state))
            replies = [least_winning_reply(r, state, ms) for ms in game.moves[r]]
            for i, (x, _) in enumerate(replies):
                table[r, state, i] = x
            if r + 1 < game.horizon:
                for _, nxt in replies:
                    walk(r + 1, nxt)

        if game.horizon:
            walk(0, game.target.start)
        return StateTwo(table=table)

    def find_predetermined_one(self) -> Optional[PreOne]:
        game, transitions, selections = self.game, self.transitions, self.selections
        reached: dict = {}  # (state, move set) -> frozenset of next states
        memo: dict = {}  # (round, state set) -> least winning suffix or None

        def step(states: frozenset, ms) -> frozenset:
            out = set()
            for state in states:
                if (state, ms) not in reached:
                    reached[state, ms] = frozenset(
                        transitions[state, x] for x in selections[ms]
                    )
                out |= reached[state, ms]
            return frozenset(out)

        def least_suffix(r: int, states: frozenset) -> Optional[tuple]:
            if r == game.horizon:
                return None if any(map(game.target.accept, states)) else ()
            key = (r, states)
            if key not in memo:
                memo[key] = None
                # a script is one of One's strategies: it cannot win from a
                # set holding a state Two wins from
                if not any(self.two_wins(r, state) for state in states):
                    for i, ms in enumerate(game.moves[r]):
                        suffix = least_suffix(r + 1, step(states, ms))
                        if suffix is not None:
                            memo[key] = (i,) + suffix
                            break
            return memo[key]

        script = least_suffix(0, frozenset([game.target.start]))
        return None if script is None else PreOne(indices=script)

    def find_markov_two(
        self, node_budget: int = DEFAULT_NODE_BUDGET
    ) -> Optional[MarkovTwo]:
        game, transitions, selections = self.game, self.transitions, self.selections
        if not self.two_wins(0, game.target.start):
            return None
        if game.horizon == 0:
            return MarkovTwo(table={})
        # Column-major cell order: once move index 0 is assigned at every
        # round, each later assignment completes plays immediately, so the
        # partial-play falsification prunes near the top of the search tree.
        cells = sorted(
            ((r, j) for r in range(game.horizon) for j in range(len(game.moves[r]))),
            key=lambda cell: (cell[1], cell[0]),
        )
        if len(cells) > MARKOV_CELL_CAP:
            raise BudgetExceeded(
                f"Markov table would need {len(cells)} cells (cap {MARKOV_CELL_CAP})"
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
            state = game.target.start
            for r, j in enumerate(idx):
                state = transitions[state, assigned[r, j]]
            return game.target.accept(state)

        def assign(k: int) -> bool:
            if k == len(cells):
                return True
            r, j = cells[k]
            for x in selections[game.moves[r][j]]:
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


def solve(game: GameSpec) -> Determination:
    """Winner by backward induction plus a verified-by-construction witness."""
    return _Solver(game).solve()


def winner(game: GameSpec) -> Player:
    """The winner alone: backward induction without witness extraction."""
    return _Solver(game).winner()


def find_predetermined_one(game: GameSpec) -> Optional[PreOne]:
    """Lexicographically least winning script for One, or None.

    A script sees none of Two's replies, so the search recurses over
    (round, set of target states the replies can have reached), memoized
    on that pair, trying One's indices in order: its first success is the
    least script.  A script is one of One's strategies, so a set holding
    a state Two wins from (by the determination memo) is answered None
    without search; this cuts only branches that would fail, and a game
    Two wins answers None after one determination.  Each (state, move
    set) step runs once per call, each (state, selection) transition once
    per game.
    """
    return _Solver(game).find_predetermined_one()


def find_markov_two(
    game: GameSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[MarkovTwo]:
    """Exact backtracking search for a winning Markov table, or None.

    Budget exhaustion raises BudgetExceeded: a third outcome, distinct
    from "no such strategy exists".  A game One wins has no winning table
    for Two, so it answers None before the cap on the table's cells
    (one per move set of each round) applies.
    """
    return _Solver(game).find_markov_two(node_budget)


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
        i = one_move_index(one, sel_hist, r, state)
        if not 0 <= i < len(game.moves[r]):
            raise IllegalMove(r, f"move index {i} out of range")
        idx = idx_hist + (i,)
        for x in two_choices(game, game.moves[r][i]):
            yield from walk(r + 1, idx, sel_hist + (x,), advance(game, state, x))

    return walk(0, (), (), game.target.start)


class _FirstLoss(Exception):
    """Ends an is_winning walk at its first losing play."""


def _check(
    game: GameSpec, strategy, max_exhibits: int, first_loss_only: bool
) -> VerificationReport:
    """verify() and is_winning(): the side, the empty game, and the walk
    that suits the strategy's class."""
    if isinstance(strategy, (PreOne, StateOne, FullOne)):
        side, other = Player.ONE, Player.TWO
    elif isinstance(strategy, (MarkovTwo, StateTwo, FullTwo)):
        side, other = Player.TWO, Player.ONE
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    if game.horizon == 0:
        won = Player.TWO if game.target.accept(game.target.start) else Player.ONE
        shown = won is other and max_exhibits > 0
        return VerificationReport(
            valid=won is side,
            side=side,
            counter_plays=(PlayRecord((), (), won),) if shown else (),
            plays_checked=1,
        )
    walk = _walk_histories if isinstance(strategy, (FullOne, FullTwo)) else _walk_states
    try:
        lost, counters, checked = walk(
            game, strategy, side, max_exhibits, first_loss_only
        )
    except _FirstLoss:
        lost, counters, checked = 1, (), 0
    return VerificationReport(
        valid=not lost,
        side=side,
        counter_plays=tuple(counters),
        plays_checked=checked,
    )


def _walk_states(game: GameSpec, strategy, side: Player, max_exhibits: int,
                 first_loss_only: bool) -> tuple:
    """(lost plays, counter-plays, plays) for a strategy whose move is a
    function of the round, the target state and One's current index
    (StateOne, StateTwo, PreOne, MarkovTwo): every history reaching
    (round, state) continues alike.

    One depth-first walk, memoized on (round, state), tallies the plays
    below each pair and the lost ones among them, so plays are counted by
    multiplication.  Its first visit of each pair looks up and checks the
    strategy's moves in the order a play-by-play walk would, so the first
    IllegalMove is the same.  Counter-plays are then read off in
    lexicographic order by descending only into pairs that hold a loss.
    """
    one_side = side is Player.ONE
    other = Player.TWO if one_side else Player.ONE
    moves, target, last = game.moves, game.target, game.horizon - 1
    transitions = _transitions(game)
    tally: dict = {}  # (round, state) -> (plays, lost plays), round > 0

    def choices(r: int, state) -> Iterator[tuple]:
        """(One's index, Two's selection) pairs in lexicographic order; on
        Two's side each reply is looked up as its turn comes."""
        if one_side:
            i = one_move_index(strategy, (), r, state)
            if not 0 <= i < len(moves[r]):
                raise IllegalMove(r, f"move index {i} out of range")
            return zip(itertools.repeat(i), two_choices(game, moves[r][i]))
        return (
            (i, legal_selection(game, r, ms, two_selection(strategy, (i,), r, state)))
            for i, ms in enumerate(moves[r])
        )

    def count(r: int, state) -> tuple:
        plays = lost = 0
        for _, x in choices(r, state):
            nxt = transitions[state, x]
            if r == last:
                plays += 1
                # the target is Two's: One loses the plays it accepts
                if target.accept(nxt) == one_side:
                    if first_loss_only:
                        raise _FirstLoss
                    lost += 1
                continue
            got = tally.get((r + 1, nxt))
            if got is None:
                got = tally[r + 1, nxt] = count(r + 1, nxt)
            plays, lost = plays + got[0], lost + got[1]
        return plays, lost

    counters: list = []

    def exhibit(r: int, state, idx_hist: tuple, sel_hist: tuple) -> None:
        for i, x in choices(r, state):
            nxt = transitions[state, x]
            if r == last:
                if target.accept(nxt) == one_side:
                    counters.append(PlayRecord(idx_hist + (i,), sel_hist + (x,), other))
            elif tally[r + 1, nxt][1]:
                exhibit(r + 1, nxt, idx_hist + (i,), sel_hist + (x,))
            if len(counters) == max_exhibits:
                return

    plays, lost = count(0, game.target.start)
    if lost and max_exhibits > 0:
        exhibit(0, game.target.start, (), ())
    return lost, counters, plays


def _walk_histories(game: GameSpec, strategy, side: Player, max_exhibits: int,
                    first_loss_only: bool) -> tuple:
    """(lost plays, counter-plays, plays) for a history table (FullOne,
    FullTwo): one depth-first walk of the strategy's play tree, the
    adversary ranging over every legal choice in lexicographic order.

    Every node looks up and checks the strategy's move, raising
    IllegalMove as ``play`` does.  Each (state, selection) transition is
    stepped once per call.  On One's side the last round is settled once
    per (target state, One's index) instead: every node reaching that pair
    has the same reply count and the same winning replies for Two.
    """
    other = Player.TWO if side is Player.ONE else Player.ONE
    moves, target, last = game.moves, game.target, game.horizon - 1
    transitions = _transitions(game)
    settled: dict = {}  # (state, One's last index) -> (reply count, Two's wins)
    counters: list = []
    checked = lost = 0

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
                    walk(r + 1, idx, sel_hist + (x,), transitions[state, x])
                return
            pair = settled.get((state, i))
            if pair is None:
                xs = tuple(two_choices(game, moves[r][i]))
                wins = tuple(x for x in xs if target.accept(advance(game, state, x)))
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
                    walk(r + 1, idx, sel_hist + (x,), transitions[state, x])
                    continue
                checked += 1
                if not target.accept(transitions[state, x]):
                    lose(idx, sel_hist, (x,))

    walk(0, (), (), target.start)
    return lost, counters, checked


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

