"""Reflections, transversal enumeration, duality checks.

A family R of nonempty sets is a reflection of a family F when the
ranges of choice functions on R all belong to F and form a selection
basis for it (every member of F contains such a range).  Reflection is
the bridge between a game played over F and the game played over R with
the negated target: the module verifies concrete instances of that
duality with the exact solver, at both full and limited information.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ChoiceSpaceTooLarge
from .game import GameSpec, Not, Player
from .solver import DEFAULT_NODE_BUDGET, Search

Family = Sequence[frozenset]

CHOICE_CAP = 10**6


def _choice_space_size(refl: Family) -> int:
    size = 1
    for r in refl:
        size *= len(r)
        if size > CHOICE_CAP:
            raise ChoiceSpaceTooLarge(
                f"transversal space exceeds {CHOICE_CAP}"
            )
    return size


def transversals(refl: Family):
    """All choice tuples on the family, lazily, in sorted item order."""
    yield from itertools.product(*(sorted(r) for r in refl))


def range_inside_exists(refl: Family, target: frozenset) -> bool:
    """Some transversal range inside ``target`` (criterion: every member meets it)."""
    return all(r & target for r in refl)


@dataclass(frozen=True)
class ReflectionReport:
    is_reflection: bool
    bad_transversal: Optional[tuple] = None
    uncovered: Optional[frozenset] = None


def is_reflection(refl: Family, fam: Family) -> ReflectionReport:
    """Check both reflection conditions, with early-exit witnesses.

    bad_transversal: the first choice tuple (in enumeration order) whose
    range is not a member of fam.  uncovered: the first member of fam
    containing no transversal range.
    """
    refl = [frozenset(r) for r in refl]
    if any(not r for r in refl):
        raise ValueError("reflection members must be nonempty")
    _choice_space_size(refl)
    fam_sets = [frozenset(a) for a in fam]
    fam_lookup = set(fam_sets)
    bad = None
    for t in transversals(refl):
        if frozenset(t) not in fam_lookup:
            bad = t
            break
    uncovered = None
    for a in fam_sets:
        if not range_inside_exists(refl, a):
            uncovered = a
            break
    return ReflectionReport(
        is_reflection=bad is None and uncovered is None,
        bad_transversal=bad,
        uncovered=uncovered,
    )


@dataclass(frozen=True)
class DualityReport:
    """Empirical duality verdict between a game and its mirrored game.

    The first game runs over the plain family with target T; the second
    over the reflecting family with target Not(T).  The strategic clause
    compares full-information winners; the limited clauses compare One's
    predetermined scripts against Two's Markov tables crosswise.
    """

    one_fam_iff_two_refl: bool
    pre_fam_iff_markov_refl: bool
    pre_refl_iff_markov_fam: bool
    all_hold: bool
    facts: dict


def check_duality(game_over_fam: GameSpec, game_over_refl: GameSpec,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> DualityReport:
    """Solve and synthesize on both sides; compare per the duality clauses.

    Duality of two games is stated as two strategic clauses: One wins the
    first iff Two wins the second, and One wins the second iff Two wins
    the first.  Infinite games need not be determined, so there the two
    are independent.  A finite game is determined (exactly one player
    wins), so both read ``one_fam != one_refl`` and one clause is checked.
    The limited clauses stay two: neither player need have a script or a
    Markov table, so they are independent even here.

    Requires equal horizons and the mirrored target.  Both synthesizers
    run under ``node_budget`` and may raise BudgetExceeded; callers
    report that separately from a negative answer.
    """
    if game_over_fam.horizon != game_over_refl.horizon:
        raise ValueError("games must share a horizon")
    if game_over_refl.target != Not(game_over_fam.target):
        raise ValueError("mirror game must carry the negated target")
    # one search context per game: each is determined once, and the
    # script search and Markov synthesis read that determination
    fam, refl = Search(game_over_fam), Search(game_over_refl)
    one_fam = fam.winner() is Player.ONE
    one_refl = refl.winner() is Player.ONE
    pre_fam = fam.find_predetermined_one(node_budget) is not None
    pre_refl = refl.find_predetermined_one(node_budget) is not None
    markov_fam = fam.find_markov_two(node_budget) is not None
    markov_refl = refl.find_markov_two(node_budget) is not None
    strategic = one_fam != one_refl
    limited_fam = pre_fam == markov_refl
    limited_refl = pre_refl == markov_fam
    return DualityReport(
        one_fam_iff_two_refl=strategic,
        pre_fam_iff_markov_refl=limited_fam,
        pre_refl_iff_markov_fam=limited_refl,
        all_hold=strategic and limited_fam and limited_refl,
        facts={
            "one_wins_family_game": one_fam,
            "one_wins_reflection_game": one_refl,
            "predetermined_family_game": pre_fam,
            "predetermined_reflection_game": pre_refl,
            "markov_family_game": markov_fam,
            "markov_reflection_game": markov_refl,
        },
    )
