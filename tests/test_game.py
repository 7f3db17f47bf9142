import pytest
from hypothesis import given, settings, strategies as st

from brute import brute_every_subsequence, brute_is_one_play, expand, flatten_selections
from selgames import (
    CoversFamily,
    EverySubsequence,
    ExplicitSet,
    FullOne,
    FullTwo,
    Kind,
    MarkovTwo,
    MultiCover,
    Not,
    Player,
    PreOne,
    StateOne,
    StateTwo,
    WindowCover,
    build_point_open,
    make_game,
    play,
    solve,
    verify,
)
from selgames.errors import EmptyMove, IllegalMove


class TestTargets:
    def test_covers_family(self):
        t = CoversFamily(full=0b111, members=(1, 2, 4))
        assert t.evaluate([0b011, 0b110])
        assert not t.evaluate([0b011])
        assert not t.evaluate([0b011, 0b110, 0b111])  # whole space listed

    def test_multi_cover_distinct(self):
        t = MultiCover(full=0b11, members=(1, 2), m=2)
        assert not t.evaluate([1, 1, 2, 2])  # duplicates are one set
        t2 = MultiCover(full=0b111, members=(1,), m=2)
        assert t2.evaluate([0b001, 0b011])

    def test_window_cover(self):
        t = WindowCover(full=0b11, members=(1, 2), w=2)
        assert t.evaluate([1, 2, 1, 2])
        assert not t.evaluate([1, 1, 2, 2])  # needs width 3

    def test_every_subsequence_full_length_only(self):
        inner = CoversFamily(full=0b111, members=(1, 2, 4))
        sel = (0b011, 0b110)
        assert EverySubsequence(inner=inner, m=len(sel)).evaluate(sel) == inner.evaluate(sel)

    def test_every_subsequence_checks_shorter_ones(self):
        inner = CoversFamily(full=0b11, members=(1, 2))
        t = EverySubsequence(inner=inner, m=1)
        assert not t.evaluate((1, 2))  # the singleton subsequences fail

    def test_every_subsequence_state_forgets_order(self):
        # the state is the set of (inner state, capped length) pairs the
        # subsequences reach, so reorderings of an order-insensitive
        # inner target's items land in one state
        t = EverySubsequence(inner=CoversFamily(full=7, members=(1, 2, 4)), m=2)

        def fold(items):
            state = t.start
            for item in items:
                state = t.step(state, item)
            return state

        assert fold([1, 2, 4]) == fold([4, 2, 1])

    def test_not(self):
        t = Not(inner=ExplicitSet(winning=(frozenset({0}),)))
        assert not t.evaluate([0])
        assert t.evaluate([1])


class TestMakeGame:
    def test_horizon_zero(self):
        g = make_game([], 0, Kind.SINGLE, ExplicitSet(winning=(frozenset(),)))
        det = solve(g)
        assert det.winner is Player.TWO

    def test_empty_move_set_rejected(self):
        with pytest.raises(EmptyMove):
            make_game([[frozenset()]], 1, Kind.SINGLE, ExplicitSet(winning=()))

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyMove):
            make_game([[]], 1, Kind.SINGLE, ExplicitSet(winning=()))

    def test_horizon_hard_cap(self):
        family = [frozenset({0})]
        with pytest.raises(ValueError):
            make_game([family] * 9, 9, Kind.SINGLE, ExplicitSet(winning=()))

    def test_non_builtin_target_rejected(self):
        class CustomTarget:
            def evaluate(self, selection):
                return len(selection) >= 2 and selection[0] < selection[1]

        family = [frozenset({0, 1})]
        for target in (CustomTarget(), Not(inner=CustomTarget())):
            with pytest.raises(TypeError):
                make_game([family, family], 2, Kind.SINGLE, target)

    def test_kind_must_be_a_kind(self):
        # unchecked, a kind given by its value plays as a finite-kind
        # game and fails only when the game is dumped
        with pytest.raises(TypeError):
            make_game([[frozenset({0})]], 1, "single", ExplicitSet(winning=()))

    @pytest.mark.parametrize("horizon", [1.0, True])
    def test_horizon_must_be_an_int(self, horizon):
        with pytest.raises(TypeError):
            make_game([[frozenset({0})]], horizon, Kind.SINGLE, ExplicitSet(winning=()))


class TestPlay:
    def test_forced_moves(self):
        g = make_game(
            [[frozenset({0})], [frozenset({1})]],
            2,
            Kind.SINGLE,
            ExplicitSet(winning=(frozenset({0, 1}),)),
        )
        two = FullTwo(table={(0,): 0, (0, 0): 1})
        rec = play(g, PreOne(indices=(0, 0)), two)
        assert rec.two_selections == (0, 1)
        assert rec.winner is Player.TWO

    def test_horizon_zero_play(self):
        g = make_game([], 0, Kind.SINGLE, ExplicitSet(winning=()))
        rec = play(g, PreOne(indices=()), FullTwo(table={}))
        assert rec.one_moves == () and rec.winner is Player.ONE

    def test_point_open_play(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        rec = play(g, (0, 1), [1, 2])  # opens {0} then {1}
        assert rec.winner is Player.ONE  # the selections cover

    def test_illegal_selection(self):
        # a plain sequence and every class of Two's strategies
        g = make_game([[frozenset({0})]], 1, Kind.SINGLE, ExplicitSet(winning=()))
        start = g.target.start
        for two in ([5], FullTwo(table={(0,): 5}), MarkovTwo(table={(0, 0): 5}),
                    StateTwo(table={(0, start, 0): 5})):
            with pytest.raises(IllegalMove) as exc:
                play(g, (0,), two)
            assert exc.value.round_index == 0
            assert str(exc.value) == "selection 5 outside the offered move set"

    def test_illegal_index(self):
        # a plain sequence and every class of One's strategies
        g = make_game([[frozenset({0})]], 1, Kind.SINGLE, ExplicitSet(winning=()))
        for one in ((3,), PreOne(indices=(3,)), FullOne(table={(): 3}),
                    StateOne(table={(0, g.target.start): 3})):
            with pytest.raises(IllegalMove) as exc:
                play(g, one, [0])
            assert (exc.value.round_index, str(exc.value)) == (0, "move index 3 out of range")

    def test_short_sequence_is_a_short_script(self, d2, singles2):
        # a plain sequence is a script for either side: one that ends before
        # the horizon raises IllegalMove at the first round it lacks, as a
        # short PreOne does
        g = build_point_open(d2, singles2, singles2, 2)
        for one, two, r in (([0], [1, 2], 1), (PreOne((0,)), [1, 2], 1),
                            ([0, 1], [1], 1), ((), (), 0), ([0, 1], (), 0)):
            with pytest.raises(IllegalMove) as exc:
                play(g, one, two)
            assert (exc.value.round_index, str(exc.value)) == (
                r, "predetermined script too short"), (one, two)

    def test_replay_reproduces_record(self, d3, singles3):
        g = build_point_open(d3, singles3, singles3, 2)
        rec = play(g, (0, 1), [1, 3])
        rec2 = play(g, rec.one_moves, rec.two_selections)
        assert rec == rec2

    def test_finite_kind_selection_subsets(self):
        g = make_game(
            [[frozenset({0, 1, 2})]],
            1,
            Kind.FINITE,
            ExplicitSet(winning=(frozenset({0, 1}),)),
        )
        rec = play(g, (0,), [frozenset({0, 1})])
        assert rec.winner is Player.TWO
        with pytest.raises(IllegalMove):
            play(g, (0,), [frozenset()])

    def test_finite_kind_flattening_sorts_within_round(self):
        assert flatten_selections(
            Kind.FINITE, (frozenset({2, 0}), frozenset({1}))
        ) == (0, 2, 1)


class TestStrategyClassHierarchy:
    def test_pre_embeds_into_full_one(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        pre = PreOne(indices=(0, 1))
        assert verify(g, pre).valid
        assert verify(g, expand(g, pre)).valid

    def test_markov_embeds_into_full_two(self, d2, singles2):
        from selgames import build_rothberger, find_markov_two

        g = build_rothberger(d2, singles2, singles2, 2)
        markov = find_markov_two(g)
        assert markov is not None
        assert verify(g, expand(g, markov)).valid

    def test_single_two_wins_embed_into_finite_kind(self, d2, singles2):
        from selgames import build_rothberger

        g = build_rothberger(d2, singles2, singles2, 2)
        det = solve(g)
        assert det.winner is Player.TWO
        g_fin = make_game(g.moves, g.horizon, Kind.FINITE, g.target)
        # each reply becomes the singleton selection of the same item
        full_two = expand(g, det.witness)
        embedded = FullTwo(table={k: frozenset([x]) for k, x in full_two.table.items()})
        assert verify(g_fin, embedded).valid


class TestIsOnePlay:
    def test_accepts_legal_and_rejects_illegal(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        pre = PreOne(indices=(0, 1))
        assert brute_is_one_play(g, pre, (1, 2))
        assert not brute_is_one_play(g, pre, (2, 2))  # 2 = {1} does not contain {0}


def test_cover_targets_agree_with_the_classifier():
    # the target automata against the literal classifier of tests/brute.py,
    # read straight from the definitions
    import random

    from brute import brute_classify_cover
    from selgames import discrete_space
    from selgames.ground import SetFamily

    rng = random.Random(29)
    space = discrete_space(3)
    opens = sorted(space.opens)
    for _ in range(150):
        members = tuple(rng.sample(range(1, space.full + 1), rng.randint(0, 3)))
        fam = SetFamily.build(space, members)
        listed = [rng.choice(opens) for _ in range(rng.randint(0, 4))]
        verdict = brute_classify_cover(space, fam.members, listed)
        assert CoversFamily(full=space.full, members=fam.members).evaluate(
            listed
        ) == verdict.covers_all
        for m in (0, 1, 2, 3):
            # at m = 0 every member lies inside >= 0 listed sets: only the
            # full set being listed loses
            want = space.full not in listed if m == 0 else verdict.covers_all and (
                verdict.multiplicity >= m or not fam.members
            )
            got = MultiCover(full=space.full, members=fam.members, m=m).evaluate(listed)
            assert got == want, (members, listed, m)
        for w in (0, 1, 2, 3, 4):
            want = verdict.window is not None and verdict.window <= w
            got = WindowCover(full=space.full, members=fam.members, w=w).evaluate(listed)
            assert got == want, (members, listed, w)


@settings(max_examples=60, deadline=None)
@given(
    selection=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    m=st.integers(min_value=0, max_value=6),
)
def test_subsequence_core_implies_inner_at_full_length(selection, m):
    # the full selection is one of its own subsequences, so the core
    # target is at least as strong as the inner one (the easy direction
    # of the equivalence the strengthening construction realizes)
    inner = CoversFamily(full=0b111, members=(1, 2))
    core = EverySubsequence(inner=inner, m=m)
    if m <= len(selection) and core.evaluate(selection):
        assert inner.evaluate(selection)


@settings(max_examples=40, deadline=None)
@given(
    selection=st.lists(st.integers(min_value=0, max_value=6), max_size=5),
    data=st.data(),
)
def test_order_insensitive_targets_really_are(selection, data):
    targets = [
        CoversFamily(full=0b111, members=(1, 2)),
        MultiCover(full=0b111, members=(1, 2), m=1),
        ExplicitSet(winning=(frozenset({1, 2}), frozenset())),
        Not(inner=CoversFamily(full=0b111, members=(3,))),
        EverySubsequence(inner=CoversFamily(full=0b111, members=(1,)), m=1),
    ]
    perm = data.draw(st.permutations(selection))
    for t in targets:
        assert t.evaluate(selection) == t.evaluate(perm)


_SUBSEQUENCE_INNERS = [
    CoversFamily(full=0b111, members=(1, 2)),
    CoversFamily(full=0b111, members=(1, 2, 4)),
    WindowCover(full=0b111, members=(1, 2), w=2),
    WindowCover(full=0b111, members=(1, 2, 4), w=3),
    ExplicitSet(winning=(frozenset(), frozenset({1, 2}), frozenset({3}))),
    Not(inner=CoversFamily(full=0b111, members=(1, 2))),
    Not(inner=WindowCover(full=0b111, members=(1, 2), w=2)),
]


@settings(max_examples=150, deadline=None)
@given(
    selection=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    inner=st.sampled_from(_SUBSEQUENCE_INNERS),
    data=st.data(),
)
def test_every_subsequence_matches_enumeration(selection, inner, data):
    # the automaton against the literal enumeration of subsequences
    m = data.draw(st.integers(min_value=0, max_value=len(selection) + 1))
    got = EverySubsequence(inner=inner, m=m).evaluate(selection)
    assert got == brute_every_subsequence(inner, m, selection)
