import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brute import cover_number, expand, least_open, multiplicity_number

from selgames import (
    Kind,
    Player,
    Search,
    build_game,
    build_point_open,
    build_rothberger,
    discrete_space,
    find_markov_two,
    find_predetermined_one,
    indiscrete_space,
    load_scenario,
    make_game,
    singleton_family,
    solve,
    verify,
)
from selgames.errors import (
    BudgetExceeded,
    CoverEnumerationTruncated,
    NoCovers,
    NoNeighborhood,
    ScenarioFormatError,
)
from selgames.fuzzing import _random_game
from selgames.game import CoversFamily, ExplicitSet, FullOne, FullTwo, Not
from selgames.ground import SetFamily, all_topologies, closure_family, family_of
from selgames.scenarios import (
    CORPUS_EXPECTATIONS,
    Scenario,
    abstract_scenario,
    corpus,
    scenario_from_json,
    scenario_to_json,
)
from selgames.serialize import (
    canonical_dumps,
    game_from_json,
    game_to_json,
    pack_from_json,
    pack_to_json,
    rel_pair_from_json,
    strategy_from_json,
    strategy_to_json,
    target_from_json,
    target_to_json,
)

# one table per strategy class whose two rows share a key
REPEATED_ROWS = {
    "full-one": [{"history": [], "move": 0}, {"history": [], "move": 1}],
    "full-two": [{"history": [0], "item": 0}, {"history": [0], "item": 1}],
    "markov-two": [{"move": 0, "round": 0, "item": 0},
                   {"move": 0, "round": 0, "item": 1}],
    "state-one": [{"round": 0, "state": None, "move": 0},
                  {"round": 0, "state": None, "move": 1}],
    "state-two": [{"round": 0, "state": None, "move": 0, "item": 0},
                  {"round": 0, "state": None, "move": 0, "item": 1}],
}


class TestBuilders:
    def test_point_open_move_sets_exclude_universe(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 1)
        assert all(d2.full not in ms for ms in g.moves[0])
        assert g.target == Not(CoversFamily(full=d2.full, members=(1, 2)))

    def test_no_neighborhood_on_indiscrete(self):
        space = indiscrete_space(2)
        fam = SetFamily.build(space, [1])
        with pytest.raises(NoNeighborhood):
            build_point_open(space, fam, fam, 1)

    def test_empty_second_family_never_lets_two_win(self, d2, singles2):
        empty = SetFamily.build(d2, [])
        for h in (0, 1, 2):
            g = build_point_open(d2, singles2, empty, h)
            assert solve(g).winner is Player.ONE

    def test_rothberger_no_covers(self, d2):
        fam = family_of(d2, [{0}, {1}, {0, 1}])
        with pytest.raises(NoCovers):
            build_rothberger(d2, fam, fam, 2)

    def test_rothberger_refuses_a_truncated_cover_list(self):
        # the singletons of 5 discrete points have more minimal covers
        # than the enumeration lists
        d5 = discrete_space(5)
        singles = singleton_family(d5)
        with pytest.raises(CoverEnumerationTruncated):
            build_rothberger(d5, singles, singles, 1)

    def test_rothberger_values(self, d2, singles2):
        assert solve(build_rothberger(d2, singles2, singles2, 2)).winner is Player.TWO
        assert solve(build_rothberger(d2, singles2, singles2, 1)).winner is Player.ONE

    def test_point_open_targets_cross_check_classify(self, d3, singles3):
        # the target's own evaluation must agree with the literal cover
        # classifier on every legal selection
        from itertools import product

        from brute import brute_classify_cover

        g = build_point_open(d3, singles3, singles3, 2)
        for moves in product(range(len(g.moves[0])), repeat=2):
            for sel in product(*(sorted(g.moves[r][moves[r]]) for r in range(2))):
                target_val = g.target.inner.evaluate(sel)
                verdict = brute_classify_cover(d3, singles3.members, list(sel))
                assert target_val == verdict.covers_all


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MULTIPLICITY_SAMPLE = 2_000  # of the 102,650 games of multiplicity_games


def multiplicity_games():
    """Every builder Rothberger game with multiplicity on at most 3 points,
    in a fixed order: each topology, A any 1-3 nonempty subsets, B any
    1-2 and m = 2 or 3, as (space, A, B, m)."""
    for n in (1, 2, 3):
        for space in all_topologies(n):
            subsets = range(1, space.full + 1)
            for na, nb in itertools.product((1, 2, 3), (1, 2)):
                for a, b in itertools.product(
                    itertools.combinations(subsets, na), itertools.combinations(subsets, nb)
                ):
                    for m in (2, 3):
                        yield space, a, b, m


def check_multiplicity(space, a, b, m) -> int:
    """The solver's winners of one game of ``multiplicity_games`` at h1-h5
    against ``multiplicity_number``; the verdicts checked, 0 when the
    builder refuses the families.  The whole slice, 110,900 verdicts,
    runs outside the suite:

        PYTHONPATH=src:tests python -c "import test_scenarios as t; \\
            print(sum(t.check_multiplicity(*g) for g in t.multiplicity_games()))"
    """
    fam_a, fam_b = SetFamily.build(space, a), SetFamily.build(space, b)
    if any(least_open(space, x) == space.full for x in a):
        with pytest.raises(NoCovers):
            build_rothberger(space, fam_a, fam_b, 1, multiplicity=m)
        return 0
    km = multiplicity_number(space, fam_a.members, fam_b.members, m)
    multi = build_rothberger(space, fam_a, fam_b, 5, multiplicity=m)
    for h in range(1, 6):
        two = Search(multi.truncated(h)).winner() is Player.TWO
        assert two == (km is not None and km <= h), (space.opens, a, b, m, h)
    return 5


def test_builder_games_follow_the_cover_number():
    # the closed forms in tests/brute.py against the solver.  Every
    # topology on at most 4 points with singletons, closures of singletons
    # and 2-point sets: cover games at h1-h6; on at most 3 points, also
    # with the empty family second, window games w = 1..3 at w <= h <= 5
    # (h <= 6 on 2 points) and multiplicities 2 and 3 (and 1 for the
    # empty family) at h1-h5.  Among them are discrete 2 and 3 with
    # singletons, where k = n: the plain and window values differ exactly
    # when w < n <= h.  Then multiplicities on a seeded sample of the
    # arbitrary families of multiplicity_games
    refused = decided = 0
    for n in range(1, 5):
        for space in all_topologies(n):
            singles = singleton_family(space)
            pairs = [m for m in range(space.full) if bin(m).count("1") == 2]
            families = [singles, closure_family(space, singles)]
            families += [SetFamily.build(space, pairs)] if pairs else []
            seconds = families + [SetFamily.build(space, [])] if n <= 3 else families
            for fam_a, fam_b in itertools.product(families, seconds):
                if any(least_open(space, a) == space.full for a in fam_a.members):
                    with pytest.raises(NoCovers):
                        build_rothberger(space, fam_a, fam_b, 1)
                    with pytest.raises(NoNeighborhood):
                        build_point_open(space, fam_a, fam_b, 1)
                    refused += 1
                    continue
                k = cover_number(space, fam_a.members, fam_b.members)
                rothberger = build_rothberger(space, fam_a, fam_b, 6)
                point_open = build_point_open(space, fam_a, fam_b, 6)
                for h in range(1, 7):
                    covers = k is not None and k <= h
                    assert (Search(rothberger.truncated(h)).winner() is Player.TWO) == covers
                    assert (Search(point_open.truncated(h)).winner() is Player.ONE) == covers
                decided += 12
                if n > 3:
                    continue
                last = 6 if n == 2 else 5
                for w in (1, 2, 3):
                    window = build_point_open(space, fam_a, fam_b, last, window=w)
                    for h in range(w, last + 1):
                        one = Search(window.truncated(h)).winner() is Player.ONE
                        assert one == (k is not None and k <= w), (w, h)
                        decided += 1
                for m in (1, 2, 3) if not fam_b.members else (2, 3):
                    decided += check_multiplicity(space, fam_a.members, fam_b.members, m)
    games = list(multiplicity_games())
    for game in random.Random(31).sample(games, MULTIPLICITY_SAMPLE):
        decided += check_multiplicity(*game)
    assert refused and decided > 10_000


def test_lambda_counterexample_one_wins():
    # a 3-point game where counting the N(a) misjudges multiplicity:
    # both N(a) hold {0}, so that count says Two wins at h = 2, but One's
    # only minimal cover is {{0, 1}} and One wins by offering it twice
    sc = load_scenario(SCENARIO_DIR / "rothberger-lambda-one-wins.json")
    game = build_game(sc)
    hoods = {least_open(sc.space, a) for a in sc.fam_a}
    assert len(hoods) == 2 and all(b & ~u == 0 for u in hoods for b in sc.fam_b)
    assert multiplicity_number(sc.space, sc.fam_a, sc.fam_b, 2) is None
    assert solve(game).winner is Player.ONE
    assert find_predetermined_one(game).indices == (0, 0)


class TestScenarioFiles:
    def test_files_named_after_corpus_entries_match_them(self):
        # the two corpora must not drift: a scenarios/<name>.json named
        # after a corpus() entry holds exactly that entry, emitted
        files = {path.stem: path for path in SCENARIO_DIR.glob("*.json")}
        shared = [sc for sc in corpus() if sc.name in files]
        assert shared
        for sc in shared:
            assert files[sc.name].read_text() == canonical_dumps(scenario_to_json(sc)), sc.name

    def test_every_file_is_canonical_and_decodes(self):
        # each file holds a scenario, a strategy, a pack, an order pair or
        # a pair of scenarios, in canonical form
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert files
        for path in files:
            text = path.read_text()
            data = json.loads(text)
            assert canonical_dumps(data) == text, path.name
            if "flavor" in data:
                scenario_from_json(data)
            elif "class" in data:
                strategy_from_json(data)
            elif "t_one" in data:
                pack_from_json(data)
            elif "type" in data:
                rel_pair_from_json(data)
            else:
                assert set(data) == {"left", "right"}, path.name
                scenario_from_json(data["left"])
                scenario_from_json(data["right"])

    def test_round_trip_corpus(self):
        for sc in corpus():
            text = canonical_dumps(scenario_to_json(sc))
            back = scenario_from_json(json.loads(text))
            assert back == sc
            assert canonical_dumps(scenario_to_json(back)) == text

    def test_round_trip_random(self):
        rng = random.Random(9)
        for k in range(30):
            size = rng.randint(2, 4)
            full = (1 << size) - 1
            sc = Scenario(
                name=f"rand-{k}",
                space_size=size,
                subbasis=tuple(sorted(rng.sample(range(full + 1), rng.randint(0, 3)))),
                fam_a=tuple(rng.sample(range(1, full + 1), rng.randint(1, 3))),
                fam_b=tuple(rng.sample(range(1, full + 1), rng.randint(1, 3))),
                horizon=(h := rng.randint(0, 4)),
                flavor="abstract-game",
                # the wrapped game plays the scenario's horizon
                params={"game": {"horizon": h, "kind": "single", "moves": [[[0]]] * h,
                                  "target": {"type": "explicit-set", "winning": []}}},
            )
            assert scenario_from_json(json.loads(canonical_dumps(scenario_to_json(sc)))) == sc

    def test_unknown_flavor_rejected(self):
        # an unhashable flavor is a format error too, decoded or built
        data = scenario_to_json(corpus()[0])
        for flavor in ("mystery", ["point-open-o"]):
            with pytest.raises(ScenarioFormatError):
                scenario_from_json(dict(data, flavor=flavor))
        with pytest.raises(ScenarioFormatError):
            dataclasses.replace(corpus()[0], flavor=["point-open-o"])

    def test_point_open_needs_closed_points(self):
        space_json = {
            "name": "sierpinski",
            "space": {"size": 2, "subbasis": [[0]]},
            "families": {"a": [[0]], "b": [[0]]},
            "horizon": 1,
            "flavor": "point-open-o",
            "params": {},
        }
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(space_json)

    def test_window_flavor_needs_width(self):
        data = scenario_to_json(corpus()[0])
        data["flavor"] = "point-open-window"
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(data)

    def test_member_outside_universe_rejected(self):
        data = {
            "name": "bad",
            "space": {"size": 2, "subbasis": []},
            "families": {"a": [[3]], "b": [[0]]},
            "horizon": 1,
            "flavor": "rothberger",
            "params": {},
        }
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(data)

    def test_negative_ground_item_is_a_format_error(self):
        data = scenario_to_json(corpus()[0])
        records = (
            dict(data, families=dict(data["families"], a=[[-1], [0]])),
            dict(data, space=dict(data["space"], subbasis=[[0], [-2]])),
        )
        for record in records:
            with pytest.raises(ScenarioFormatError, match="bad scenario record"):
                scenario_from_json(record)
        with pytest.raises(ScenarioFormatError, match="bad order-pair record"):
            rel_pair_from_json({"type": "inclusion", "a": [[-1]], "b": [[0]]})

    def test_abstract_game_round_trips_through_build(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        sc = abstract_scenario("wrapped", g)
        text = canonical_dumps(scenario_to_json(sc))
        rebuilt = build_game(scenario_from_json(json.loads(text)))
        assert rebuilt == g


class TestSerializeCodecs:
    def test_game_codec_round_trip(self, d3, singles3):
        for g in [
            build_point_open(d3, singles3, singles3, 2),
            build_rothberger(discrete_space(2), singleton_family(discrete_space(2)),
                             singleton_family(discrete_space(2)), 2),
            # member k is bit k of a cover target's state, so unsorted
            # members must keep their order for the witness to fit
            build_point_open(d3, SetFamily.build(d3, [1, 2, 4]),
                             SetFamily.build(d3, [4, 1]), 2, window=2),
            # the codec emits winning sets sorted; the target is their set
            make_game([[frozenset({0}), frozenset({1})]], 1, Kind.SINGLE,
                      ExplicitSet(winning=(frozenset({1}), frozenset({0})))),
        ]:
            back = game_from_json(game_to_json(g))
            assert back == g
            assert verify(back, solve(g).witness).valid

    def test_strategy_codec_round_trip(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        det = solve(g)
        pre = find_predetermined_one(g)
        for strat in [det.witness, pre]:
            data = strategy_to_json(strat, g.kind)
            assert strategy_from_json(data) == strat

    def test_markov_codec_round_trip(self, d2, singles2):
        g = build_rothberger(d2, singles2, singles2, 2)
        markov = find_markov_two(g)
        assert strategy_from_json(strategy_to_json(markov, g.kind)) == markov

    def test_finite_kind_strategy_codec(self):
        from selgames import FullTwo, make_game
        from selgames.game import ExplicitSet

        g = make_game(
            [[frozenset({0, 1})]], 1, Kind.FINITE,
            ExplicitSet(winning=(frozenset({0, 1}),)),
        )
        strat = FullTwo(table={(0,): frozenset({0, 1})})
        data = strategy_to_json(strat, g.kind)
        assert strategy_from_json(data) == strat
        assert verify(g, strategy_from_json(data)).valid

    def test_pack_codec_round_trip(self):
        from selgames import TranslationPack

        pack = TranslationPack(
            t_one=({0: 0, 1: 0},), t_two=({(0, 0): 1, (2, 1): 0},)
        )
        assert pack_from_json(pack_to_json(pack)) == pack

    def test_order_pair_codec(self):
        from selgames import inclusion_pair
        from selgames.serialize import rel_pair_from_json, rel_pair_to_json

        pair = inclusion_pair([0b011, 0b101], [1, 2, 4])
        back = rel_pair_from_json(rel_pair_to_json(pair))
        n = len(pair.carrier)
        assert len(back.carrier) == n
        assert back.sub_a == pair.sub_a and back.sub_b == pair.sub_b
        assert all(
            back.leq(i, j) == pair.leq(i, j)
            for i in range(n)
            for j in range(n)
        )

    def test_every_decoder_reports_a_bad_record(self):
        decoders = {
            "target": target_from_json,
            "game": game_from_json,
            "strategy": strategy_from_json,
            "pack": pack_from_json,
            "order-pair": rel_pair_from_json,
            "scenario": scenario_from_json,
        }
        for record, decode in decoders.items():
            for data in ([], "x", {}):
                with pytest.raises(ScenarioFormatError, match=f"bad {record} record"):
                    decode(data)
        # a bad value is a bad record too, not a bare ValueError
        with pytest.raises(ScenarioFormatError, match="bad strategy record"):
            strategy_from_json({"class": "pre-one", "kind": "bogus", "indices": [0]})
        # so is a table that gives one key two rows
        for cls, rows in REPEATED_ROWS.items():
            with pytest.raises(ScenarioFormatError, match="bad strategy record: two rows"):
                strategy_from_json({"class": cls, "table": rows})
        for t_one, t_two in (([[[0, 0], [0, 1]]], [[]]),
                             ([[]], [[[0, 0, 0], [0, 0, 1]]])):
            with pytest.raises(ScenarioFormatError, match="bad pack record: two rows"):
                pack_from_json({"t_one": t_one, "t_two": t_two})
        # and an order pair on points outside the carrier
        with pytest.raises(ScenarioFormatError, match="bad order-pair record"):
            rel_pair_from_json({"type": "explicit", "size": 1,
                                "leq_pairs": [[0, 0], [7, 9], [-1, 3]],
                                "a": [0], "b": [0]})
        # and an abstract game played to another horizon than its scenario's
        tiny = json.loads((SCENARIO_DIR / "tiny-abstract.json").read_text())
        with pytest.raises(ScenarioFormatError, match="horizon differs"):
            scenario_from_json(dict(tiny, horizon=7))

    def test_inclusion_pair_file_form(self):
        from selgames.serialize import rel_pair_from_json

        pair = rel_pair_from_json(
            {"type": "inclusion", "a": [[0, 1], [1, 2]], "b": [[0], [1]]}
        )
        assert len(pair.sub_a) == 2 and len(pair.sub_b) == 2


def _target_trees():
    from selgames.game import (
        CoversFamily,
        EverySubsequence,
        ExplicitSet,
        MultiCover,
        Not,
        WindowCover,
    )

    members = st.lists(
        st.integers(min_value=0, max_value=7), max_size=3, unique=True
    ).map(tuple)
    leaves = st.one_of(
        st.builds(CoversFamily, full=st.just(7), members=members),
        st.builds(
            MultiCover, full=st.just(7), members=members,
            m=st.integers(min_value=0, max_value=3),
        ),
        st.builds(
            WindowCover, full=st.just(7), members=members,
            w=st.integers(min_value=0, max_value=4),
        ),
        st.builds(
            ExplicitSet,
            winning=st.lists(
                st.frozensets(st.integers(min_value=0, max_value=5), max_size=3),
                max_size=4,
            ).map(tuple),  # any order, with repeats: the target is their set
        ),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner=inner),
            st.builds(
                EverySubsequence, inner=inner,
                m=st.integers(min_value=0, max_value=4),
            ),
        ),
        max_leaves=3,
    )


@settings(max_examples=80, deadline=None)
@given(target=_target_trees())
def test_target_codec_round_trips(target):
    # a cover target's members keep their order: member k is bit k of its state
    assert target_from_json(target_to_json(target)) == target


@settings(max_examples=80, deadline=None)
@given(
    target=_target_trees(),
    items=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
def test_state_codec_round_trips_reachable_states(target, items):
    # every state the target reaches along the items: decoding the JSON
    # text gives an equal state back, and that state emits the same text
    from selgames.serialize import state_from_json, state_to_json

    states = [target.start]
    for item in items:
        states.append(target.step(states[-1], item))
    for state in states:
        text = json.dumps(state_to_json(state))
        back = state_from_json(json.loads(text))
        assert back == state
        assert json.dumps(state_to_json(back)) == text


def test_state_codec_rejects_other_values():
    from selgames.serialize import state_from_json, state_to_json

    for value in (True, 1.5, "x", {"set": [1], "more": 2}, {"items": [1]}):
        with pytest.raises(ScenarioFormatError):
            state_from_json(value)
    with pytest.raises(ScenarioFormatError):
        state_to_json([1, 2])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_history_tables_emit_in_whole_row_order(data):
    # rows are sorted by their history's JSON text alone; that must be the
    # order of the whole row's sort_keys text, which the canonical witness
    # bytes were defined by
    kind = data.draw(st.sampled_from([Kind.SINGLE, Kind.FINITE]))
    item = (
        st.integers(min_value=0, max_value=20)
        if kind is Kind.SINGLE
        else st.frozensets(st.integers(min_value=0, max_value=20), min_size=1, max_size=3)
    )
    index = st.integers(min_value=0, max_value=12)
    one = FullOne(table=data.draw(st.dictionaries(
        st.lists(item, max_size=4).map(tuple), index, max_size=25)))
    two = FullTwo(table=data.draw(st.dictionaries(
        st.lists(index, min_size=1, max_size=4).map(tuple), item, max_size=25)))
    for strategy in (one, two):
        rows = strategy_to_json(strategy, kind)["table"]
        assert rows == sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scenario_codec_round_trips_random_families(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    full = (1 << size) - 1
    fam = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=full),
            min_size=1, max_size=3, unique=True,
        )
    )
    sc = Scenario(
        name="prop",
        space_size=size,
        subbasis=tuple(1 << i for i in range(size)),
        fam_a=tuple(fam),
        fam_b=tuple(fam),
        horizon=data.draw(st.integers(min_value=0, max_value=4)),
        flavor="rothberger",
    )
    assert scenario_from_json(json.loads(canonical_dumps(scenario_to_json(sc)))) == sc


# malformed values put in place of one field of a strategy record's first row
BAD_VALUES = ("x", None, ["x"], {"set": "x"}, -1)


def _codec_strategies():
    """(strategy, kind) for the witness, script, Markov table and the
    witness's history table of fuzzing's random games 0..399."""
    for s in range(400):
        g = _random_game(random.Random(s))
        search = Search(g)
        witness = search.solve().witness
        found = [witness, expand(g, witness), search.find_predetermined_one()]
        try:
            found.append(search.find_markov_two())
        except BudgetExceeded:
            pass
        yield from ((strat, g.kind) for strat in found if strat is not None)


def _malformed(data: dict):
    """A fixed grid of malformed copies of a strategy record, by name."""
    rows = "indices" if data["class"] == "pre-one" else "table"
    yield "no-class", {k: v for k, v in data.items() if k != "class"}
    yield "kind", dict(data, kind="bogus")
    yield f"no-{rows}", {k: v for k, v in data.items() if k != rows}
    for value in BAD_VALUES:
        yield f"{rows}={value!r}", dict(data, **{rows: value})
    if rows == "indices":
        for value in BAD_VALUES:
            yield f"indices[0]={value!r}", dict(data, indices=[value] + data[rows][1:])
        return
    first = data["table"][0]
    rest = data["table"][1:]
    yield "two-rows", dict(data, table=[first, first] + rest)
    # with every field missing or mistyped, the first field read names the fault
    yield "empty-row", dict(data, table=[{}] + rest)
    yield "every-field='x'", dict(data, table=[dict.fromkeys(first, "x")] + rest)
    for field in first:
        yield f"no-{field}", dict(data, table=[
            {k: v for k, v in first.items() if k != field}] + rest)
        for value in BAD_VALUES:
            yield f"{field}={value!r}", dict(data, table=[dict(first, **{field: value})] + rest)


def test_strategy_codec_bytes_and_errors_are_pinned():
    # each class's row order, field names and the order its decoder reads
    # fields in (which decides the error text of a record with two faults)
    digest = hashlib.sha256()
    samples = {}
    for strat, kind in _codec_strategies():
        data = strategy_to_json(strat, kind)
        assert strategy_from_json(data) == strat
        digest.update(canonical_dumps(data).encode())
        if data.get("table", data.get("indices")):
            samples.setdefault((data["class"], kind), data)
    # every class occurs at both kinds
    assert len(samples) == 2 * len(set(REPEATED_ROWS) | {"pre-one"})
    for (cls, kind), data in sorted(samples.items(), key=lambda s: (s[0][0], s[0][1].value)):
        for case, bad in _malformed(data):
            try:
                out = canonical_dumps(strategy_to_json(strategy_from_json(bad), kind))
            except ScenarioFormatError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(f"{cls}/{kind.value}/{case}: {out}\n".encode())
    assert digest.hexdigest() == (
        "4727cbd688d4794f7e6cc76db044c4e0812a174f5b923b5143568eab7934d2b1")


class TestCorpus:
    def test_expectations_hold(self):
        for sc in corpus():
            game = build_game(sc)
            det = solve(game)
            pre = find_predetermined_one(game)
            markov = find_markov_two(game)
            expected = CORPUS_EXPECTATIONS[sc.name]
            assert (det.winner.value, pre is not None, markov is not None) == expected, sc.name
            assert verify(game, det.witness).valid
