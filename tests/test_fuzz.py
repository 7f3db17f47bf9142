import random
import types

import pytest

from brute import (
    brute_blocks_are_counter_plays,
    brute_subsequences_are_plays,
    brute_winner,
)
from selgames import fuzzing
from selgames._bits import items_of
from selgames.errors import InvalidCount, TranslationFailed
from selgames.fuzzing import GATED_SUITES, fuzz
from selgames.game import Player
from selgames.ground import MinCoverResult, SetFamily, discrete_space
from selgames.orders import check_tukey_map
from selgames.scenarios import (
    Scenario,
    abstract_scenario,
    build_point_open,
    scenario_from_json,
    scenario_to_json,
)
from selgames.serialize import canonical_dumps, rel_pair_from_json, rel_pair_to_json
from selgames.solver import Search


class TestFuzzContract:
    def test_identical_seed_identical_bytes(self):
        a = fuzz(seed=42, count=6)
        b = fuzz(seed=42, count=6)
        assert canonical_dumps(a.to_json()) == canonical_dumps(b.to_json())

    def test_different_seed_differs(self):
        a = fuzz(seed=1, count=4, suites=("determinacy",))
        b = fuzz(seed=2, count=4, suites=("determinacy",))
        # determinism does not mean constancy: reports echo their seed
        assert a.to_json()["seed"] != b.to_json()["seed"]

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidCount):
            fuzz(seed=1, count=0)

    def test_unknown_suite_rejected(self):
        # the retired exploratory suite is as unknown as any other name
        for name in ("nope", "open-question-gamma-two"):
            with pytest.raises(ValueError):
                fuzz(seed=1, count=1, suites=(name,))

    def test_gated_suites_clean_at_small_count(self):
        report = fuzz(seed=123, count=10)
        assert set(report.results) == set(GATED_SUITES)
        assert report.total_violations == 0

    def test_violations_carry_replayable_instances(self, monkeypatch):
        # payloads are built only when a check fails: force failures in
        # every suite and compare each recorded instance with the payload
        # built at once from the inputs the failing check saw
        for suite, force, replays in FORCED:
            expected: list = []
            with monkeypatch.context() as patch:
                force(patch, expected)
                report = fuzz(seed=77, count=2, suites=(suite,))
            got = [v["instance"] for v in report.results[suite].violations]
            assert expected and got == expected, suite
            for instance in got:
                replays(instance)

    def test_repeated_suite_runs_once(self):
        once = fuzz(seed=1, count=2, suites=("ground", "tukey"))
        twice = fuzz(seed=1, count=2, suites=("ground", "tukey", "ground", "tukey"))
        assert twice.suites == ("ground", "tukey")
        assert canonical_dumps(twice.to_json()) == canonical_dumps(once.to_json())

    def test_markov_budget_threads_through(self):
        # budget zero forces Markov synthesis to give up wherever Two wins,
        # in every suite that synthesizes Markov tables
        suites = ("determinacy", "duality", "translation")
        report = fuzz(seed=3, count=3, suites=suites, node_budget=0)
        for suite in suites:
            assert report.results[suite].budget_exceeded > 0, suite
        assert report.total_budget_exceeded > 0
        assert fuzz(seed=3, count=3, suites=suites).total_budget_exceeded == 0

    def test_budget_reaches_the_script_search(self, monkeypatch):
        # every script search of every gated suite runs under the budget
        # given to fuzz, and running out is counted, never raised
        budgets = []
        original = Search.find_predetermined_one

        def wrapper(self, node_budget=None):
            budgets.append(node_budget)
            return original(self, node_budget)

        monkeypatch.setattr(Search, "find_predetermined_one", wrapper)
        report = fuzz(seed=3, count=3, node_budget=0)
        assert budgets and set(budgets) == {0}
        for suite in ("determinacy", "translation", "duality", "cofinality", "gamma"):
            assert report.results[suite].budget_exceeded > 0, suite


def test_one_memo_answers_every_gamma_truncation():
    # a solver test on the gamma suite's kind of game: its point-open games
    # offer the same move sets every round, so Two wins the h-round game iff
    # Two wins the n-round game from the start state at round n - h, all
    # read off one memo.  Half the draws take the suite's ideal-base
    # families; the rest take any family, where One may need more than one
    # round
    rng = random.Random(8)
    patterns = {"two everywhere": 0, "one at once": 0, "one later": 0}
    for trial in range(120):
        space = discrete_space(2 + trial % 2)
        if trial % 4 < 2:
            members = fuzzing._ideal_base_family(rng, space).members
        else:
            members = rng.sample(range(1, space.full), rng.randint(1, 2))
        fam_a = SetFamily.build(space, [m for m in members if m != space.full] or [1])
        fam_b = SetFamily.build(space, rng.sample(range(1, space.full), rng.randint(1, 2)))
        n = 1 + trial % 4
        game = build_point_open(space, fam_a, fam_b, n)
        searches = Search(game)
        verdicts = []
        for h in range(n + 1):
            two = searches.two_wins(n - h, game.target.start)
            assert two == (brute_winner(game.truncated(h)) is Player.TWO), (trial, h)
            verdicts.append(two)
        if all(verdicts):
            patterns["two everywhere"] += 1
        else:
            patterns["one at once" if not verdicts[1] else "one later"] += 1
    assert min(patterns.values()) >= 5, patterns


def test_gamma_games_are_decided_at_one_round(monkeypatch):
    # the suite decides each game it draws at one round, since One's move
    # sets form a finite filter base: One wins the n-round game iff One
    # wins the one-round game.  Every game of seeds 0-39 bears it out,
    # rejected draws included, whichever player wins
    games = []
    build = fuzzing.build_point_open

    def recording_build(space, fam_a, fam_b, horizon, window=None):
        game = build(space, fam_a, fam_b, horizon, window=window)
        if window is None:
            games.append(game)
        return game

    monkeypatch.setattr(fuzzing, "build_point_open", recording_build)
    for seed in range(40):
        fuzz(seed=seed, count=20, suites=("gamma",))
    won = {Player.ONE: 0, Player.TWO: 0}
    for game in games:
        verdicts = {brute_winner(game.truncated(h)) for h in range(1, game.horizon + 1)}
        assert len(verdicts) == 1, game
        won[verdicts.pop()] += 1
    assert won == {Player.ONE: 800, Player.TWO: 2179}


def test_gamma_lemmas_hold_play_by_play(monkeypatch):
    # the suite checks both strengthenings with verify on the upgraded
    # games; the lemmas their proofs go through are checked here, play by
    # play, on all 800 instances of seeds 0-39.  The suite decides each
    # game at one round and hands one script to both strengthenings, so
    # every instance strengthens at horizon 1
    strengthened, upgraded, windows = [], [], []
    strengthen = fuzzing.strengthen_one_for_subsequences
    intersect = fuzzing.intersect_predetermined
    build = fuzzing.build_point_open

    def recording_strengthen(s, game, low):
        sigma = strengthen(s, game, low)
        strengthened.append((game, s, sigma, low))
        return sigma

    def recording_intersect(script, fam):
        sigma = intersect(script, fam)
        upgraded.append((script, sigma))
        return sigma

    def recording_build(space, fam_a, fam_b, horizon, window=None):
        game = build(space, fam_a, fam_b, horizon, window=window)
        if window is not None:
            windows.append((game, window))
        return game

    monkeypatch.setattr(fuzzing, "strengthen_one_for_subsequences",
                        recording_strengthen)
    monkeypatch.setattr(fuzzing, "intersect_predetermined", recording_intersect)
    monkeypatch.setattr(fuzzing, "build_point_open", recording_build)
    for seed in range(40):
        assert fuzz(seed=seed, count=20, suites=("gamma",)).total_violations == 0
    assert len(strengthened) == len(upgraded) == len(windows) == 800
    for game, s, sigma, low in strengthened:
        assert low == 1
        assert brute_subsequences_are_plays(game, s, sigma)
    for (script, sigma), (game, width) in zip(upgraded, windows):
        assert width == 1
        assert brute_blocks_are_counter_plays(game, sigma, script, width)


# -- forced violations ------------------------------------------------------
#
# Each ``force`` patches the predicate one or more checks of a suite read,
# so that they fail, and appends to ``expected`` the payload of every
# failure, built from the inputs the patched predicate sees.


def _recording(patch, name: str) -> list:
    """Wrap ``fuzzing.<name>``; the returned list collects the arguments
    and the result of every call."""
    original, calls = getattr(fuzzing, name), []

    def wrapper(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    patch.setattr(fuzzing, name, wrapper)
    return calls


def _invalid(record):
    def verify(searches, strategy):
        record(searches.game)
        return types.SimpleNamespace(valid=False)

    return verify


def _space_payload(space, fam_a, fam_b, horizon, name) -> dict:
    return scenario_to_json(
        Scenario(
            name=name,
            space_size=space.size,
            subbasis=tuple(1 << i for i in range(space.size)),
            fam_a=fam_a.members,
            fam_b=fam_b.members,
            horizon=horizon,
            flavor="point-open-o",
        )
    )


def _force_determinacy(patch, expected):
    # instance k is attempt k: the suite rejects no draw
    drawn = _recording(patch, "_random_game")

    def record(game):
        k = [g for _, g in drawn].index(game)
        expected.append(scenario_to_json(abstract_scenario(f"determinacy-{k}", game)))

    patch.setattr(Search, "verify", _invalid(record))


def _force_translation(patch, expected):
    drawn = _recording(patch, "_translation_instance")

    def _transfer(*args):
        _, src, dst = drawn[-1][1]
        expected.append({
            "src": scenario_to_json(abstract_scenario("translation-src", src)),
            "dst": scenario_to_json(abstract_scenario("translation-dst", dst)),
        })
        raise TranslationFailed("forced")

    patch.setattr(fuzzing, "_transfer", _transfer)


def _force_duality(patch, expected):
    def check_duality(g_fam, g_refl, node_budget):
        expected.append({
            "family-game": scenario_to_json(abstract_scenario("duality-fam", g_fam)),
            "reflection-game": scenario_to_json(abstract_scenario("duality-refl", g_refl)),
        })
        return types.SimpleNamespace(all_hold=False)

    patch.setattr(fuzzing, "check_duality", check_duality)


def _force_cofinality(patch, expected):
    built = _recording(patch, "build_point_open")
    real = fuzzing.relative_cofinality
    instances = []

    def relative_cofinality(pair):
        cof = real(pair)
        instances.append(len(instances))

        def at_most(horizon):
            (space, fam_a, fam_b, _), _ = built[-1]
            name = f"cofinality-{instances[-1]}"
            expected.append(
                dict(_space_payload(space, fam_a, fam_b, 0, name), horizon=horizon)
            )
            return not cof.at_most(horizon)

        return types.SimpleNamespace(at_most=at_most)

    patch.setattr(fuzzing, "relative_cofinality", relative_cofinality)


def _force_tukey(patch, expected):
    def brute_tukey_oracle(phi, src, dst):
        expected.append({
            "src": rel_pair_to_json(src),
            "dst": rel_pair_to_json(dst),
            "phi": sorted([a, c] for a, c in phi.items()),
        })
        return not check_tukey_map(phi, src, dst)

    patch.setattr(fuzzing, "brute_tukey_oracle", brute_tukey_oracle)


def _force_gamma(patch, expected):
    built = _recording(patch, "build_point_open")
    accepted = []

    def base_payload():
        (space, fam_a, fam_b, n), _ = built[-1]
        return _space_payload(space, fam_a, fam_b, n, f"gamma-{len(accepted)}")

    def is_filter_base(family):
        expected.append(base_payload())
        return False

    def strengthen_one_for_subsequences(s, game, low):
        # a strengthening that raises is a violation whose payload carries
        # the least horizon One wins, found here by deciding each truncation
        least = next(
            h for h in range(1, game.horizon + 1)
            if Search(game.truncated(h)).winner() is Player.ONE
        )
        expected.append(dict(base_payload(), low=least))
        accepted.append(game)
        raise ValueError("forced")

    patch.setattr(fuzzing, "is_filter_base", is_filter_base)
    patch.setattr(fuzzing, "strengthen_one_for_subsequences",
                  strengthen_one_for_subsequences)


def _force_ground(patch, expected):
    real = fuzzing.classify_cover
    calls = []

    def payload(space, fam) -> dict:
        return {
            "space": {"size": space.size, "subbasis": [[i] for i in range(space.size)]},
            "family": [list(items_of(m)) for m in fam.members],
        }

    def min_covers(space, fam):
        expected.append(payload(space, fam))
        return MinCoverResult(covers=((space.full,),), truncated=False)

    def classify_cover(space, fam, listed):
        # calls come in pairs, the listed sets and then their permutation:
        # the second of each pair reports the opposite verdict
        verdict = real(space, fam, listed)
        calls.append(listed)
        if len(calls) % 2:
            return verdict
        first = calls[-2]
        expected.append(
            dict(payload(space, fam), listed=[list(items_of(u)) for u in first])
        )
        return types.SimpleNamespace(
            covers_all=not verdict.covers_all, multiplicity=verdict.multiplicity
        )

    patch.setattr(fuzzing, "min_covers", min_covers)
    patch.setattr(fuzzing, "classify_cover", classify_cover)


def _scenarios(*keys):
    """Asserts that the scenario payloads under ``keys`` (the instance
    itself when none) parse back through the scenario schema."""

    def replays(instance) -> None:
        for payload in [instance[k] for k in keys] if keys else [instance]:
            assert scenario_to_json(scenario_from_json(payload)) == {
                k: v for k, v in payload.items() if k != "low"
            }

    return replays


def _order_pairs(instance) -> None:
    for key in ("src", "dst"):
        assert rel_pair_to_json(rel_pair_from_json(instance[key])) == instance[key]


# (suite, force, how one recorded instance replays)
FORCED = (
    ("determinacy", _force_determinacy, _scenarios()),
    ("translation", _force_translation, _scenarios("src", "dst")),
    ("duality", _force_duality, _scenarios("family-game", "reflection-game")),
    ("cofinality", _force_cofinality, _scenarios()),
    ("tukey", _force_tukey, _order_pairs),
    ("gamma", _force_gamma, _scenarios()),
    ("ground", _force_ground, lambda instance: None),  # lists of items, no schema
)
