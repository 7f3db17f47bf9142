"""Every search frees its tables by reference counting.

A recursive helper nested in a search refers to itself through its
closure cell; unless the search breaks that cycle, the helper and every
table it closes over stay alive until the cyclic collector runs.  With
the collector off, each search below must leave nothing for
``gc.collect()`` to find, whether it returns or raises.
"""

import gc

from selgames import (
    Direction,
    ExplicitSet,
    FullOne,
    Kind,
    Not,
    PreOne,
    Search,
    StateTwo,
    apply_translation,
    build_point_open,
    check_translation_axioms,
    discrete_space,
    find_markov_two,
    find_predetermined_one,
    inclusion_pair,
    lift_item_map,
    make_game,
    relative_cofinality,
    singleton_family,
    solve,
    strengthen_one_for_subsequences,
    verify,
    winner,
)
from selgames.errors import BudgetExceeded, IllegalMove, InputNotWinning, TranslationFailed
from selgames.fuzzing import fuzz
from selgames.ground import min_covers
from selgames.transforms import _transfer


def _game(families, horizon, winning, negate=False):
    target = ExplicitSet(winning=tuple(frozenset(w) for w in winning))
    return make_game(families, horizon, Kind.SINGLE, Not(target) if negate else target)


def _raising(exc_type, search, *args, **kwargs):
    def run():
        try:
            search(*args, **kwargs)
        except exc_type:
            return
        raise AssertionError(f"expected {exc_type.__name__}")

    return run


def _searches() -> dict:
    """Each search to run, by name, with inputs built beforehand."""
    d2 = discrete_space(2)
    singles = singleton_family(d2)
    two_won = build_point_open(d2, singles, singles, 1)
    one_won = build_point_open(d2, singles, singles, 2)
    state_one = solve(one_won).witness
    losing = PreOne(indices=(0, 0))

    # identity packs on a game Two always wins and on one One wins
    always = _game([(frozenset({0, 1}),)] * 2, 2, [{0}, {1}, {0, 1}])
    pack_two = lift_item_map(lambda y, r: y, always, always)
    offered = _game([(frozenset({0}), frozenset({1}))] * 2, 2, [{0, 1}])
    pack_one = lift_item_map(lambda y, r: y, offered, offered)
    # an identity pack that breaks preservation
    src = _game([(frozenset({0, 1}),)], 1, [{1}])
    dst = _game([(frozenset({0, 1}),)], 1, [{0}])
    bad_pack = lift_item_map(lambda y, r: y, src, dst)

    chain = (frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0}))
    every = [set(c) for c in ({}, {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})]
    chain_game = _game([chain] * 2, 2, every, negate=True)
    uniform = FullOne(table={(): 0, (0,): 1, (1,): 1, (2,): 1})

    def solve_verify_transfer():
        # one context answers every question asked of its game
        searches = Search(always)
        det = searches.solve()
        assert searches.verify(det.witness).valid
        _transfer(pack_two, searches, searches, Direction.FULL_TWO, det.witness)

    return {
        "solve two-won": lambda: solve(two_won),
        "solve one-won": lambda: solve(one_won),
        "winner": lambda: winner(one_won),
        "script search, One wins": lambda: find_predetermined_one(one_won),
        "script search, Two wins": lambda: find_predetermined_one(two_won),
        "Markov synthesis, Two wins": lambda: find_markov_two(two_won),
        "Markov synthesis, One wins": lambda: find_markov_two(one_won),
        "script search out of budget": _raising(
            BudgetExceeded, find_predetermined_one, one_won, node_budget=1),
        "Markov synthesis out of budget": _raising(
            BudgetExceeded, find_markov_two, two_won, node_budget=0),
        "verify winning": lambda: verify(one_won, state_one),
        "verify losing": lambda: verify(one_won, losing),
        "verify illegal": _raising(IllegalMove, verify, one_won, PreOne(indices=(0,))),
        "verify missing a row": _raising(
            IllegalMove, Search(two_won).verify, StateTwo(table={})),
        "axioms hold": lambda: check_translation_axioms(pack_two, always, always),
        "axioms fail": lambda: check_translation_axioms(bad_pack, src, dst),
        "transfer markov-two": lambda: apply_translation(
            pack_two, always, always, Direction.MARKOV_TWO, find_markov_two(always)),
        "transfer full-two": lambda: apply_translation(
            pack_two, always, always, Direction.FULL_TWO, solve(always).witness),
        "transfer full-one-pullback": lambda: apply_translation(
            pack_one, offered, offered, Direction.FULL_ONE_PULLBACK,
            solve(offered).witness),
        "transfer pre-one-pullback": lambda: apply_translation(
            pack_one, offered, offered, Direction.PRE_ONE_PULLBACK,
            find_predetermined_one(offered)),
        "transfer of a losing input": _raising(
            InputNotWinning, apply_translation, pack_two, always, always,
            Direction.PRE_ONE_PULLBACK, losing),
        "transfer with a losing output": _raising(
            TranslationFailed, _transfer, bad_pack, Search(src), Search(dst),
            Direction.FULL_TWO, solve(src).witness),
        "solve, verify and transfer on one context": solve_verify_transfer,
        "strengthen": lambda: strengthen_one_for_subsequences(uniform, chain_game, 1),
        "relative_cofinality": lambda: relative_cofinality(
            inclusion_pair(singles.members, singles.members)),
        "min_covers": lambda: min_covers(d2, singles),
        "fuzz": lambda: fuzz(seed=0, count=2),
    }


def test_searches_leave_no_cyclic_garbage():
    searches = _searches()
    left = {}
    gc.disable()
    try:
        gc.collect()
        for name, search in searches.items():
            search()
            found = gc.collect()
            if found:
                left[name] = found
    finally:
        gc.enable()
    assert not left, f"objects in cycles, by search: {left}"
