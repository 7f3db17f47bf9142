import itertools
import random

import pytest

from brute import brute_range_inside_exists, is_selection_basis
from selgames import (
    ExplicitSet,
    Kind,
    Not,
    build_point_open,
    build_rothberger,
    check_duality,
    is_reflection,
    make_game,
)
from selgames.duality import range_inside_exists, transversals
from selgames.errors import ChoiceSpaceTooLarge


def fs(*items):
    return frozenset(items)


class TestSelectionBasis:
    def test_family_is_its_own_basis(self):
        fam = [fs(0, 1), fs(2)]
        assert is_selection_basis(fam, fam)

    def test_minimal_members_form_a_basis(self):
        fam = [fs(0), fs(0, 1), fs(2), fs(2, 3)]
        assert is_selection_basis([fs(0), fs(2)], fam)

    def test_outsider_rejected(self):
        assert not is_selection_basis([fs(9)], [fs(0), fs(9)][:1])


class TestIsReflection:
    def test_two_singletons_reflect_their_union(self):
        report = is_reflection([fs("a"), fs("b")], [fs("a", "b")])
        assert report.is_reflection

    def test_bad_transversal_reported(self):
        report = is_reflection([fs("a", "b")], [fs("a")])
        assert not report.is_reflection
        assert report.bad_transversal == ("b",)

    def test_uncovered_member_reported(self):
        report = is_reflection([fs(0)], [fs(0), fs(1)])
        assert not report.is_reflection
        assert report.uncovered == fs(1)

    def test_point_blades_instance(self, d3):
        # opens around a point reflect the sets whose closure meets it:
        # on a discrete space those are simply the sets containing it
        x = 0
        refl = [
            frozenset(
                i for i in range(d3.size) if (1 << i) & u
            )
            for u in sorted(d3.opens)
            if u & (1 << x)
        ]
        fam = [
            frozenset(i for i in range(d3.size) if (1 << i) & m)
            for m in range(1, d3.full + 1)
            if (1 << x) & m
        ]
        report = is_reflection(refl, fam)
        assert report.is_reflection

    def test_choice_space_cap(self):
        big = [frozenset(range(10))] * 7  # 10^7 transversals
        with pytest.raises(ChoiceSpaceTooLarge):
            is_reflection(big, [frozenset(range(10))])

    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            is_reflection([fs()], [fs()])


class TestTransversalImplementations:
    def test_agree_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(1, 5)
            refl = [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 3))
            ]
            target = frozenset(rng.sample(range(n), rng.randint(0, n)))
            assert range_inside_exists(refl, target) == (
                brute_range_inside_exists(refl, target)
            )

    def test_agree_exhaustively_on_three_items(self):
        # every reflection of at most 3 members on 3 items, every target
        subsets = [
            frozenset(c)
            for k in range(4)
            for c in itertools.combinations(range(3), k)
        ]
        for size in (1, 2, 3):
            for refl in itertools.product(subsets[1:], repeat=size):
                for target in subsets:
                    assert range_inside_exists(refl, target) == (
                        brute_range_inside_exists(refl, target)
                    ), (refl, target)

    def test_transversal_order_is_canonical(self):
        refl = [fs(1, 0), fs(2)]
        assert list(transversals(refl)) == [(0, 2), (1, 2)]


class TestCheckDuality:
    def test_point_open_vs_rothberger_h2(self, d2, singles2):
        rothberger = build_rothberger(d2, singles2, singles2, 2)
        point_open = build_point_open(d2, singles2, singles2, 2)
        report = check_duality(rothberger, point_open)
        assert report.all_hold
        assert report.facts["one_wins_reflection_game"]  # One wins point-open
        assert not report.facts["one_wins_family_game"]  # Two wins Rothberger

    def test_point_open_vs_rothberger_h1(self, d2, singles2):
        rothberger = build_rothberger(d2, singles2, singles2, 1)
        point_open = build_point_open(d2, singles2, singles2, 1)
        report = check_duality(rothberger, point_open)
        assert report.all_hold
        assert report.facts["one_wins_family_game"]
        assert report.facts["predetermined_family_game"]
        assert report.facts["markov_reflection_game"]

    def test_target_mirror_required(self):
        g = make_game(
            [[fs(0)]], 1, Kind.SINGLE, ExplicitSet(winning=(fs(0),))
        )
        with pytest.raises(ValueError):
            check_duality(g, g)

    def test_horizon_mismatch(self):
        t = ExplicitSet(winning=(fs(0),))
        g1 = make_game([[fs(0)]], 1, Kind.SINGLE, t)
        g2 = make_game([[fs(0)]] * 2, 2, Kind.SINGLE, Not(inner=t))
        with pytest.raises(ValueError):
            check_duality(g1, g2)

    def test_three_point_pair_h3(self, d3, singles3):
        rothberger = build_rothberger(d3, singles3, singles3, 3)
        point_open = build_point_open(d3, singles3, singles3, 3)
        assert check_duality(rothberger, point_open).all_hold
