"""Exact winner determination and limited-information strategy synthesis.

Every target is a deterministic automaton whose state decides all future
verdicts, so the searches run over target states, not histories.  solve()
is backward induction memoized on (round, state) by the row its loop
stopped on, which also says who wins there; the witness is read off
those rows -- a StateOne table (round, state) -> least winning index, or
a StateTwo table (round, state, One's index) -> least winning reply -- so
it has one row per reachable state, not per history, and no state is
decided twice.  Its memo_hits count the determination's memo lookups
over every search made on the context.  find_predetermined_one() and
find_markov_two() share one search over (round, set of states the other
side can reach): a script sees no reply and a Markov table no history,
so each fixes one row per round, and a set holding a state the other
side wins from is answered None at once.  verify() checks every
strategy class by one walk memoized on (round, state, what the strategy
remembers) that counts plays by multiplication: StateOne, StateTwo,
PreOne and MarkovTwo remember nothing, a FullOne remembers Two's
selections and a FullTwo One's indices; the walk looks up the strategy's
answer (``game.strategy_lookup``) once, asks it once per node, and
records the moves into the children that hold a loss, so counter-plays
are read off those losses as the witness is read off the rows.  A
Search, the search context of one game, answers every question asked of
it from plain dicts, stepping a transition where a lookup misses it;
the module-level functions build one for a single question.

A recursive helper nested in a search refers to itself through its
closure cell, a reference cycle that would keep it and every table it
closes over alive until the cyclic collector runs.  So every search in
the package deletes such a helper in a ``finally`` once its top-level call
returns or raises: a search's tables are freed by reference counting,
never left to the collector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

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
    StateOne,
    StateTwo,
    StrategyOne,
    StrategyTwo,
    advance,
    legal_selection,
    strategy_lookup,
    two_choices,
)

DEFAULT_NODE_BUDGET = 10**7
MAX_EXHIBITS = 16


_UNSTEPPED = object()  # a transition not stepped yet: None is a target state


@dataclass(frozen=True)
class Determination:
    """The winner and its witness, read off the rows the determination
    recorded.  ``nodes_explored`` and ``memo_hits`` count the
    determination's expansions and memo lookups over every search made on
    the context so far; reading the witness adds to neither."""

    winner: Player
    witness: Union[StateOne, StateTwo]
    nodes_explored: int
    memo_hits: int


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    side: Player
    counter_plays: tuple[PlayRecord, ...]
    plays_checked: int


class Search:
    """The search context of one game, for every question asked of it.

    It holds three plain dicts: ``selections``, Two's selections from each
    move set the game offers as a tuple in canonical order, listed when it
    is built (a finite-kind move set of k items has 2^k - 1 of them);
    ``transitions``, the (state, selection) -> next state cache, filled
    where a search's lookup misses; and ``rows``, the (round, state)
    determination memo, whose entry is the winner's row there.  Every
    search reads selections and steps the target only through those
    tables, the witness is read off the rows, and both synthesizers read
    their prune off the memo.  A caller asking several questions of one
    game builds one and passes it on: no answer depends on what was asked
    before, only the work does, and ``solve``'s nodes and memo hits count
    every search made on it so far.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        # a single-kind selection is one item, stepped by the target
        # itself, and a finite-kind one goes through ``advance``
        self.step = game.target.step if game.kind is Kind.SINGLE else functools.partial(advance, game)
        self.transitions: dict = {}  # each stepped once, however often met
        self.selections = selections = {}
        for family in game.moves:
            for ms in family:
                if ms not in selections:
                    selections[ms] = tuple(two_choices(game, ms))
        # (round, state) -> the winner's row there: Two's first winning reply
        # to each move set (a tuple), or One's first index with none (an int)
        self.rows: dict = {}
        self.nodes = 0
        self.hits = 0

    def two_wins(self, r: int, state) -> bool:
        """Whether Two wins from ``state`` before round ``r``: every move
        set has a selection that wins, tried in order; the last round is
        settled by ``accept``.  The row the loop stops on is recorded."""
        game = self.game
        if r == game.horizon:
            return game.target.accept(state)
        key = (r, state)
        row = self.rows.get(key)
        if row is not None:
            self.hits += 1
            return type(row) is tuple
        self.nodes += 1
        transitions, selections = self.transitions, self.selections
        last, accept = r + 1 == game.horizon, game.target.accept
        row = []
        for ms in game.moves[r]:
            for x in selections[ms]:
                if (nxt := transitions.get((state, x), _UNSTEPPED)) is _UNSTEPPED:
                    nxt = transitions[state, x] = self.step(state, x)
                if accept(nxt) if last else self.two_wins(r + 1, nxt):
                    row.append(x)
                    break
            else:
                # no reply wins: this move set's index is len(row)
                self.rows[key] = len(row)
                return False
        self.rows[key] = tuple(row)
        return True

    def winner(self) -> Player:
        """The winner alone: backward induction without reading a witness."""
        return Player.TWO if self.two_wins(0, self.game.target.start) else Player.ONE

    def solve(self) -> Determination:
        """Determine the game, then read the winner's witness off the rows
        the determination recorded, by one walk over the (round, state)
        pairs those rows let the other side reach."""
        game, transitions, selections = self.game, self.transitions, self.selections
        start = game.target.start
        two = self.two_wins(0, start)
        table: dict = {}
        todo = [(0, start)] if game.horizon else []
        seen = set(todo)
        while todo:
            r, state = todo.pop()
            row = self.rows[r, state]
            if two:
                table.update(((r, state, i), x) for i, x in enumerate(row))
                replies = row
            else:
                table[r, state] = row
                replies = selections[game.moves[r][row]]
            if r + 1 < game.horizon:
                # the determination stepped every move its rows make
                for x in replies:
                    nxt = (r + 1, transitions[state, x])
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        return Determination(
            winner=Player.TWO if two else Player.ONE,
            witness=StateTwo(table=table) if two else StateOne(table=table),
            nodes_explored=self.nodes,
            memo_hits=self.hits,
        )

    def _least_rows(self, one_side: bool, rows, node_budget: int) -> Optional[tuple]:
        """One's script or Two's Markov table as one row per round, or
        None.  ``rows(r, states)`` lists candidate rows in order, each with
        the set of states the other side reaches through it.  A set holding
        a state the other side wins from answers None: at the horizon,
        that test is the verdict."""
        horizon, two_wins = self.game.horizon, self.two_wins
        memo: dict = {}  # (round, state set) -> least winning suffix or None
        budget = node_budget

        def least_suffix(r: int, states: frozenset) -> Optional[tuple]:
            nonlocal budget
            key = (r, states)
            if key in memo:
                return memo[key]
            memo[key] = None
            for state in states:
                if two_wins(r, state) == one_side:
                    return None
            if r == horizon:
                memo[key] = ()
                return ()
            budget -= 1
            if budget < 0:
                raise BudgetExceeded("synthesis node budget exhausted")
            for row, reached in rows(r, states):
                suffix = least_suffix(r + 1, reached)
                if suffix is not None:
                    memo[key] = (row,) + suffix
                    break
            return memo[key]

        try:
            return least_suffix(0, frozenset([self.game.target.start]))
        finally:
            del least_suffix

    def find_predetermined_one(
        self, node_budget: int = DEFAULT_NODE_BUDGET
    ) -> Optional[PreOne]:
        moves, transitions, selections = self.game.moves, self.transitions, self.selections
        reached: dict = {}  # (state, move set) -> the states Two's replies reach

        def indices(r: int, states: frozenset) -> Iterator[tuple]:
            for i, ms in enumerate(moves[r]):
                out = set()
                for state in states:
                    nexts = reached.get((state, ms))
                    if nexts is None:
                        nexts = []
                        for x in selections[ms]:
                            if (nxt := transitions.get((state, x), _UNSTEPPED)) is _UNSTEPPED:
                                nxt = transitions[state, x] = self.step(state, x)
                            nexts.append(nxt)
                        nexts = reached[state, ms] = frozenset(nexts)
                    out |= nexts
                yield i, frozenset(out)

        script = self._least_rows(True, indices, node_budget)
        return None if script is None else PreOne(indices=script)

    def find_markov_two(
        self, node_budget: int = DEFAULT_NODE_BUDGET
    ) -> Optional[MarkovTwo]:
        moves, transitions, selections = self.game.moves, self.transitions, self.selections
        two_wins = self.two_wins

        def replies(r: int, states: frozenset) -> list:
            partial = {frozenset(): ()}  # union of images -> first row to it
            for ms in moves[r]:
                images = []
                for x in selections[ms]:
                    image = []
                    for state in states:
                        if (nxt := transitions.get((state, x), _UNSTEPPED)) is _UNSTEPPED:
                            nxt = transitions[state, x] = self.step(state, x)
                        image.append(nxt)
                    image = frozenset(image)
                    if all(two_wins(r + 1, nxt) for nxt in image):
                        images.append((x, image))
                grown: dict = {}
                for union, row in partial.items():
                    for x, image in images:
                        grown.setdefault(union | image, row + (x,))
                partial = {
                    union: row for union, row in grown.items()
                    if not any(other < union for other in grown)
                }
            return [(row, union) for union, row in partial.items()]

        table = self._least_rows(False, replies, node_budget)
        if table is None:
            return None
        return MarkovTwo(table={
            (j, r): x for r, row in enumerate(table) for j, x in enumerate(row)
        })

    def verify(
        self,
        strategy: Union[StrategyOne, StrategyTwo],
        max_exhibits: int = MAX_EXHIBITS,
    ) -> VerificationReport:
        """One depth-first walk of the strategy's play tree, the adversary
        ranging over every legal choice, memoized on (round, target state,
        what the strategy remembers).

        A StateOne, StateTwo, PreOne or MarkovTwo remembers nothing: its
        move is a function of the round, the state and One's current index.
        A FullOne remembers Two's selections and a FullTwo One's indices.
        At the horizon no move is made, so a final state's verdict is shared
        by every history reaching it.  The walk tallies the plays below each
        node, the lost ones among them and the moves into the children that
        hold a loss, so plays are counted by multiplication.  Its first
        visit of a node looks up and checks the strategy's moves in the
        order a play-by-play walk would, so the first IllegalMove is the
        same, and no node asks the strategy twice.  Counter-plays are then
        read off those recorded losses in lexicographic order.
        """
        side, answer = strategy_lookup(strategy)
        one_side = side is Player.ONE
        other = Player.TWO if one_side else Player.ONE
        remembers = isinstance(strategy, (FullOne, FullTwo))
        game, transitions, selections = self.game, self.transitions, self.selections
        moves, horizon, accept = game.moves, game.horizon, game.target.accept
        # (round, state, memory) -> (plays, lost plays, the moves (i, x,
        # child key) into the children that hold a loss, in move order)
        tally: dict = {}

        def count(r: int, state, memory: tuple) -> tuple:
            """The node's tally, its moves taken in lexicographic order:
            One's index and each of Two's selections, or each of One's
            indices and Two's reply to it."""
            if r == horizon:
                # the target is Two's: One loses the plays it accepts
                got = tally[r, state, memory] = (1, int(accept(state) == one_side), ())
                return got
            plays = lost = 0
            losses = ()
            keep = remembers and r + 1 < horizon
            if one_side:
                i = answer(memory, r, state)
                if not 0 <= i < len(moves[r]):
                    raise IllegalMove(r, f"move index {i} out of range")
                for x in selections[moves[r][i]]:
                    if (nxt := transitions.get((state, x), _UNSTEPPED)) is _UNSTEPPED:
                        nxt = transitions[state, x] = self.step(state, x)
                    mem = memory + (x,) if keep else ()
                    got = tally.get((r + 1, nxt, mem)) or count(r + 1, nxt, mem)
                    plays += got[0]
                    if got[1]:
                        lost += got[1]
                        losses += ((i, x, (r + 1, nxt, mem)),)
            else:
                for i, ms in enumerate(moves[r]):
                    idx = memory + (i,)
                    x = legal_selection(game, r, ms, answer(idx, r, state))
                    if (nxt := transitions.get((state, x), _UNSTEPPED)) is _UNSTEPPED:
                        nxt = transitions[state, x] = self.step(state, x)
                    mem = idx if keep else ()
                    got = tally.get((r + 1, nxt, mem)) or count(r + 1, nxt, mem)
                    plays += got[0]
                    if got[1]:
                        lost += got[1]
                        losses += ((i, x, (r + 1, nxt, mem)),)
            got = tally[r, state, memory] = (plays, lost, losses)
            return got

        counters: list = []

        def exhibit(key: tuple, one_moves: tuple, two_selections: tuple) -> None:
            if key[0] == horizon:
                counters.append(PlayRecord(one_moves, two_selections, other))
                return
            for i, x, child in tally[key][2]:
                exhibit(child, one_moves + (i,), two_selections + (x,))
                if len(counters) == max_exhibits:
                    return

        try:
            plays, lost, _ = count(0, game.target.start, ())
            if lost and max_exhibits > 0:
                exhibit((0, game.target.start, ()), (), ())
        finally:
            del count, exhibit
        return VerificationReport(
            valid=not lost,
            side=side,
            counter_plays=tuple(counters),
            plays_checked=plays,
        )


def solve(game: GameSpec) -> Determination:
    """Winner by backward induction plus a verified-by-construction witness."""
    return Search(game).solve()


def find_predetermined_one(
    game: GameSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[PreOne]:
    """Lexicographically least winning script for One, or None.

    A script sees none of Two's replies, so the search recurses over
    (round, set of target states the replies can have reached), memoized
    on that pair, trying One's indices in order: its first success is the
    least script.  A script is one of One's strategies, so a set holding
    a state Two wins from (by the determination memo) is answered None
    without search; this cuts only branches that would fail, and a game
    Two wins answers None after one determination.  Each (state, move
    set) step runs once per call, each (state, selection) transition once
    per game.  The search shares find_markov_two's: each (round, set) node
    expanded counts against ``node_budget``, and exhaustion raises
    BudgetExceeded.
    """
    return Search(game).find_predetermined_one(node_budget)


def find_markov_two(
    game: GameSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[MarkovTwo]:
    """A winning Markov table for Two, or None, by exact search.

    A table sees One's current index and the round, not the history, so
    the search recurses over (round, set of target states One's indices
    can have reached), memoized on that pair; a set holding a state One
    wins from is answered None without search, so a game One wins answers
    None after one determination.  The canonical table: a round's rows
    answer its move sets one at a time, each with a reply, in canonical
    order, that keeps every state Two-won; each union of reached states
    keeps the first row reaching it, and a union strictly containing
    another is dropped (a smaller set is never worse for Two).  The rows
    left are tried in lexicographic order, and the first that wins at
    every later round is taken.  Each (round, set) node expanded counts
    against ``node_budget``; exhaustion raises BudgetExceeded, a third
    outcome distinct from "no such strategy exists".
    """
    return Search(game).find_markov_two(node_budget)


def verify(
    game: GameSpec,
    strategy: Union[StrategyOne, StrategyTwo],
    max_exhibits: int = MAX_EXHIBITS,
) -> VerificationReport:
    """Exhaustive adversary enumeration; lists the first ``max_exhibits``
    losing counter-plays in lexicographic order.  ``valid`` counts every
    losing play, exhibited or not."""
    return Search(game).verify(strategy, max_exhibits)
