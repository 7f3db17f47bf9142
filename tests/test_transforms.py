import itertools
import random

import pytest

from brute import (
    brute_blocks_are_counter_plays,
    brute_subsequences_are_plays,
    brute_translation_axioms,
    brute_verify,
    expand,
    preservation_fails,
    pulled_plays,
)
from selgames import (
    CoversFamily,
    Direction,
    EverySubsequence,
    ExplicitSet,
    FullOne,
    Kind,
    Not,
    Player,
    PreOne,
    TranslationPack,
    apply_translation,
    build_point_open,
    build_rothberger,
    check_translation_axioms,
    discrete_space,
    find_markov_two,
    find_predetermined_one,
    intersect_predetermined,
    is_filter_base,
    lift_item_map,
    make_game,
    solve,
    strengthen_one_for_subsequences,
    verify,
)
from selgames.errors import (
    AxiomsFail,
    ImageNotMove,
    InputNotWinning,
    NotFilterBase,
    NotUniformlyWinning,
    TranslationFailed,
    WitnessMissing,
)
from selgames.fuzzing import _translation_instance
from selgames.ground import family_of
from selgames.solver import Search
from selgames.transforms import _transfer


def explicit_game(families, horizon, winning):
    return make_game(
        families,
        horizon,
        Kind.SINGLE,
        ExplicitSet(winning=tuple(frozenset(w) for w in winning)),
    )


def identity_pack(game):
    t_one = []
    t_two = []
    for r in range(game.horizon):
        t_one.append({j: j for j in range(len(game.moves[r]))})
        t_two.append(
            {
                (x, j): x
                for j in range(len(game.moves[r]))
                for x in game.universe
            }
        )
    return TranslationPack(t_one=tuple(t_one), t_two=tuple(t_two))


class TestAxioms:
    def test_identity_pack_on_identical_games(self):
        g = explicit_game([[frozenset({0, 1})]] * 2, 2, [{0, 1}])
        assert check_translation_axioms(identity_pack(g), g, g)

    def test_pushforward_outside_move_reported(self):
        g = explicit_game([[frozenset({0, 1})]], 1, [{0}])
        pack = TranslationPack(
            t_one=({0: 0},),
            t_two=({(0, 0): 5, (1, 0): 5},),  # 5 is not in the move set
        )
        check = check_translation_axioms(pack, g, g)
        assert not check
        assert check.failure[0] == "legality"

    def test_sequence_condition_violation_reported(self):
        src = explicit_game([[frozenset({0, 1})]], 1, [{0}, {1}])
        dst = explicit_game([[frozenset({0, 1})]], 1, [{0}])
        pack = identity_pack(src)
        check = check_translation_axioms(pack, src, dst)
        assert not check
        assert check.failure[0] == "preservation"

    def test_state_walk_matches_literal_enumeration(self):
        # lifted packs, and the same packs with one pushforward entry
        # rewired to an item of its target move (preservation may fail) or
        # to any item (legality may fail), against the (js, xs) enumeration
        rng = random.Random(5)
        kinds = {"legality": 0, "preservation": 0, None: 0}
        for _ in range(300):
            pack, src, dst = _translation_instance(rng)
            packs = [pack]
            for legal in (True, False):
                r = rng.randrange(src.horizon)
                key = rng.choice(sorted(pack.t_two[r]))
                pool = dst.moves[r][key[1]] if legal else dst.universe | {-1}
                t_two = list(pack.t_two)
                t_two[r] = dict(t_two[r])
                t_two[r][key] = rng.choice(sorted(pool))
                packs.append(TranslationPack(t_one=pack.t_one, t_two=tuple(t_two)))
            for p in packs:
                got = check_translation_axioms(p, src, dst)
                want = brute_translation_axioms(p, src, dst)
                assert bool(got) == bool(want)
                kinds[None if want else want.failure[0]] += 1
                if want:
                    continue
                assert got.failure[0] == want.failure[0]
                if want.failure[0] == "legality":
                    assert got.failure == want.failure
                    continue
                # the walk's witness is the least failing play with the
                # rounds' (j, x) pairs compared in turn
                failing = [
                    (js, xs) for js, xs in pulled_plays(p, src, dst)
                    if preservation_fails(p, src, dst, js, xs)
                ]
                assert got.failure[1] == min(failing, key=lambda f: list(zip(*f)))
        assert all(kinds.values()), kinds

    def test_horizon_mismatch(self):
        g1 = explicit_game([[frozenset({0})]], 1, [])
        g2 = explicit_game([[frozenset({0})]] * 2, 2, [])
        with pytest.raises(ValueError):
            check_translation_axioms(identity_pack(g1), g1, g2)


class TestLiftItemMap:
    def test_identity_map_gives_identity_pack(self):
        g = explicit_game([[frozenset({0, 1}), frozenset({1})]], 1, [{0}])
        pack = lift_item_map(lambda y, r: y, g, g)
        assert pack.t_one == ({0: 0, 1: 1},)
        assert all(pack.t_two[0][(x, j)] == x for (x, j) in pack.t_two[0] if x in g.moves[0][j])

    def test_collapse_picks_least_preimage(self):
        dst = explicit_game([[frozenset({0, 1, 2})]], 1, [{0}])
        src = explicit_game([[frozenset({5})]], 1, [{5}])
        pack = lift_item_map(lambda y, r: 5, src, dst)
        assert pack.t_one == ({0: 0},)
        assert pack.t_two[0][(5, 0)] == 0  # least of the three preimages

    def test_image_not_a_move(self):
        dst = explicit_game([[frozenset({0, 1})]], 1, [{0}])
        src = explicit_game([[frozenset({9})]], 1, [])
        with pytest.raises(ImageNotMove):
            lift_item_map(lambda y, r: y, src, dst)


class TestApplyTranslation:
    def _pair(self):
        # two-round game with two moves per round; the image game collapses
        # items 0,1 -> 0 and 2 -> 2, and Two wins the source game always
        phi = {0: 0, 1: 0, 2: 2}
        dst_family = (frozenset({0, 1}), frozenset({2}))
        src_family = (frozenset({0}), frozenset({2}))
        src = make_game(
            [src_family] * 2, 2, Kind.SINGLE,
            ExplicitSet(
                winning=(frozenset({0}), frozenset({2}), frozenset({0, 2}))
            ),
        )
        winning_d = tuple(
            frozenset(t)
            for r in range(4)
            for t in itertools.combinations((0, 1, 2), r)
            if frozenset(phi[y] for y in t) in src.target.winning
        )
        dst = make_game(
            [dst_family] * 2, 2, Kind.SINGLE, ExplicitSet(winning=winning_d)
        )
        pack = lift_item_map(lambda y, r: phi[y], src, dst)
        return pack, src, dst

    def test_markov_transfer(self):
        pack, src, dst = self._pair()
        markov = find_markov_two(src)
        assert markov is not None
        out = apply_translation(pack, src, dst, Direction.MARKOV_TWO, markov)
        assert verify(dst, out).valid

    def test_full_two_transfer(self):
        pack, src, dst = self._pair()
        det = solve(src)
        assert det.winner is Player.TWO
        full_two = expand(src, det.witness)
        out = apply_translation(pack, src, dst, Direction.FULL_TWO, full_two)
        assert verify(dst, out).valid

    def test_pullbacks(self):
        # One wins by offering the same singleton every round; the pulled
        # strategies must do likewise in the source game
        family = (frozenset({0}), frozenset({1}))
        target = ExplicitSet(winning=(frozenset({0, 1}),))
        dst = make_game([family] * 2, 2, Kind.SINGLE, target)
        src = make_game([family] * 2, 2, Kind.SINGLE, target)
        pack = lift_item_map(lambda y, r: y, src, dst)
        det = solve(dst)
        assert det.winner is Player.ONE
        out = apply_translation(
            pack, src, dst, Direction.FULL_ONE_PULLBACK, expand(dst, det.witness)
        )
        assert verify(src, out).valid
        pre = find_predetermined_one(dst)
        assert pre is not None
        out_pre = apply_translation(pack, src, dst, Direction.PRE_ONE_PULLBACK, pre)
        assert verify(src, out_pre).valid

    def test_markov_identity_transfer_reindexes_only(self):
        g = explicit_game([[frozenset({0, 1})]] * 2, 2, [{0}, {0, 1}, {1}])
        markov = find_markov_two(g)
        out = apply_translation(identity_pack(g), g, g, Direction.MARKOV_TWO, markov)
        assert out.table == markov.table

    def test_input_not_winning(self):
        pack, src, dst = self._pair()
        losing = PreOne(indices=(0, 0))
        with pytest.raises((InputNotWinning, ValueError)):
            apply_translation(pack, src, dst, Direction.MARKOV_TWO, losing)

    def test_wrong_class_is_a_caller_error(self):
        pack, src, dst = self._pair()
        det = solve(src)
        assert det.winner is Player.TWO
        with pytest.raises(ValueError, match="FullOne or StateOne"):
            apply_translation(pack, src, dst, Direction.FULL_ONE_PULLBACK, det.witness)

    def test_state_witness_transfers_as_its_expansion(self):
        # the solver's state-keyed witness and its history table transfer
        # to equal tables, which the literal-play verifier accepts
        rng = random.Random(11)
        seen = {Direction.FULL_TWO: 0, Direction.FULL_ONE_PULLBACK: 0}
        for _ in range(300):
            pack, src, dst = _translation_instance(rng)
            if not check_translation_axioms(pack, src, dst):
                continue
            det_src, det_dst = solve(src), solve(dst)
            runs = []
            if det_src.winner is Player.TWO:
                runs.append((Direction.FULL_TWO, src, det_src.witness, dst))
            if det_dst.winner is Player.ONE:
                runs.append((Direction.FULL_ONE_PULLBACK, dst, det_dst.witness, src))
            for direction, in_game, witness, out_game in runs:
                out = apply_translation(pack, src, dst, direction, witness)
                via_history = apply_translation(
                    pack, src, dst, direction, expand(in_game, witness)
                )
                assert type(out) is type(via_history)
                assert out.table == via_history.table
                assert brute_verify(out_game, out).valid
                seen[direction] += 1
        assert all(n >= 50 for n in seen.values()), seen

    def test_walks_step_the_input_games_automaton(self, d2, singles2):
        # a point-open game, whose states are cover bitmasks, beside the
        # same game with its winning sets listed, whose states are item
        # sets; the identity pack carries the cover game's witness across
        for h, direction in ((1, Direction.FULL_TWO), (2, Direction.FULL_ONE_PULLBACK)):
            cover = build_point_open(d2, singles2, singles2, h)
            items = sorted(cover.universe)
            listed = make_game(cover.moves, h, Kind.SINGLE, ExplicitSet(winning=tuple(
                frozenset(c)
                for k in range(len(items) + 1)
                for c in itertools.combinations(items, k)
                if cover.target.evaluate(c)
            )))
            pushes = direction is Direction.FULL_TWO
            src, dst = (cover, listed) if pushes else (listed, cover)
            pack = lift_item_map(lambda y, r: y, src, dst)
            witness = solve(cover).witness
            out = apply_translation(pack, src, dst, direction, witness)
            via_history = apply_translation(pack, src, dst, direction, expand(cover, witness))
            assert out.table == via_history.table
            assert brute_verify(listed, out).valid

    def test_losing_input_is_refused(self):
        pack, src, dst = self._pair()
        with pytest.raises(InputNotWinning):
            apply_translation(pack, src, dst, Direction.PRE_ONE_PULLBACK, PreOne((0, 0)))

    def test_losing_output_is_refused(self):
        # the pack breaks preservation, so only the output check stands
        # between the fuzz suite, which calls _transfer, and a losing table
        src = explicit_game([[frozenset({0, 1})]], 1, [{1}])
        dst = explicit_game([[frozenset({0, 1})]], 1, [{0}])
        markov = find_markov_two(src)
        assert markov.table == {(0, 0): 1}
        with pytest.raises(TranslationFailed):
            _transfer(identity_pack(src), Search(src), Search(dst), Direction.MARKOV_TWO,
                      markov)

    def test_axioms_fail(self):
        src = explicit_game([[frozenset({0, 1})]], 1, [{0}, {1}])
        dst = explicit_game([[frozenset({0, 1})]], 1, [{0}])
        with pytest.raises(AxiomsFail):
            apply_translation(
                identity_pack(src), src, dst, Direction.PRE_ONE_PULLBACK,
                PreOne(indices=(0,)),
            )


class TestMinimalCoverJustification:
    """Restricting One to minimal covers is itself a strategy transfer."""

    def _games(self):
        space = discrete_space(2)
        singles = family_of(space, [{0}, {1}])
        minimal = build_rothberger(space, singles, singles, 2)
        # the unrestricted variant: every cover of the first family
        full = space.full
        proper = [u for u in sorted(space.opens) if u != full]
        covers = []
        for r in range(1, len(proper) + 1):
            for combo in itertools.combinations(proper, r):
                if all(any(a & ~u == 0 for u in combo) for a in singles.members):
                    covers.append(frozenset(combo))
        unrestricted = make_game(
            [tuple(covers)] * 2, 2, Kind.SINGLE, minimal.target
        )
        return minimal, unrestricted

    def test_identity_lift_validates(self):
        minimal, unrestricted = self._games()
        pack = lift_item_map(lambda y, r: y, unrestricted, minimal)
        assert check_translation_axioms(pack, unrestricted, minimal)

    def test_full_two_transfer_preserves_winning(self):
        minimal, unrestricted = self._games()
        pack = lift_item_map(lambda y, r: y, unrestricted, minimal)
        det = solve(unrestricted)
        assert det.winner is Player.TWO
        out = apply_translation(
            pack, unrestricted, minimal, Direction.FULL_TWO,
            expand(unrestricted, det.witness),
        )
        assert verify(minimal, out).valid

    def test_subcover_pullback_direction(self):
        # the pack mapping each cover to a minimal subcover carries One's
        # strategies the other way; on this instance One loses both games,
        # so only the axioms are exercised
        minimal, unrestricted = self._games()
        minimal_list = sorted(minimal.moves[0], key=sorted)

        def to_minimal_subcover(cover):
            for m in minimal_list:
                if m <= cover:
                    return m
            raise AssertionError("every cover contains a minimal one")

        t_one = {j: minimal.moves[0].index(to_minimal_subcover(c))
                 for j, c in enumerate(unrestricted.moves[0])}
        t_two = {
            (x, j): x
            for j in range(len(unrestricted.moves[0]))
            for x in minimal.universe
        }
        pack = TranslationPack(
            t_one=(t_one,) * 2, t_two=(t_two,) * 2
        )
        assert check_translation_axioms(pack, minimal, unrestricted)


class TestFilterBase:
    def test_nested_family_is_filter_base(self):
        assert is_filter_base([frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})])

    def test_singletons_are_not(self):
        assert not is_filter_base([frozenset({0}), frozenset({1})])

    def test_neighborhoods_of_ideal_base(self, d3):
        fam = family_of(d3, [{0}, {1}, {0, 1}])
        game = build_point_open(d3, fam, family_of(d3, [{0}]), 2)
        assert is_filter_base(game.moves[0])


class TestStrengthenForSubsequences:
    def _chain_game(self, horizon, winning):
        family = (frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0}))
        return make_game(
            [family] * horizon, horizon, Kind.SINGLE,
            Not(inner=ExplicitSet(winning=tuple(frozenset(w) for w in winning))),
        )

    def test_constant_largest_strategy_is_fixed_point(self):
        # One constantly offers the top set and wins against everything
        g = self._chain_game(2, [])  # inner never holds, so Not always wins for Two?
        # make One win instead: Two's target never satisfied means Two wins --
        # use a target whose negation always holds: winning = all subsets
        winning = [set(c) for r in range(4) for c in itertools.combinations({0, 1, 2}, r)]
        g = self._chain_game(2, winning)
        s = FullOne(table={(): 0, (0,): 0, (1,): 0, (2,): 0})
        sigma = strengthen_one_for_subsequences(s, g, 1)
        assert all(sigma.table[h] == s.table[h] for h in sigma.table)

    def test_descending_chain_plays_round_minima(self):
        winning = [set(c) for r in range(4) for c in itertools.combinations({0, 1, 2}, r)]
        g = self._chain_game(2, winning)
        s = FullOne(table={(): 0, (0,): 1, (1,): 1, (2,): 1})
        sigma = strengthen_one_for_subsequences(s, g, 1)
        assert sigma.table[()] == 0
        assert all(sigma.table[h] == 1 for h in sigma.table if len(h) == 1)

    def test_not_filter_base(self):
        family = (frozenset({0}), frozenset({1}))
        g = make_game([family] * 2, 2, Kind.SINGLE,
                      Not(inner=ExplicitSet(winning=())))
        s = FullOne(table={(): 0, (0,): 0, (1,): 0})
        with pytest.raises(NotFilterBase):
            strengthen_one_for_subsequences(s, g, 1)

    def test_not_uniformly_winning_names_horizon(self, d3):
        fam_a = family_of(d3, [{0}, {1}, {0, 1}])
        fam_b = family_of(d3, [{0}, {1}])
        game = build_point_open(d3, fam_a, fam_b, 2)
        det = solve(game)
        assert det.winner is Player.ONE
        # the witness wins at horizon 2 but not at horizon 1
        with pytest.raises(NotUniformlyWinning) as exc:
            strengthen_one_for_subsequences(expand(game, det.witness), game, 1)
        assert exc.value.horizon == 1

    def test_structural_guarantee_and_core_membership(self, d3):
        fam_a = family_of(d3, [{0}, {1}, {0, 1}])
        fam_b = family_of(d3, [{0}])
        n = 3
        game = build_point_open(d3, fam_a, fam_b, n)
        low = 1  # a single neighborhood reply already covers {0}
        # One's least winning script at one round, padded, wins every horizon
        pre = find_predetermined_one(game.truncated(low))
        s = PreOne(indices=pre.indices + (0,) * (n - low))
        sigma = strengthen_one_for_subsequences(s, game, low)
        assert brute_subsequences_are_plays(game, s, sigma)
        core = Not(
            EverySubsequence(
                inner=CoversFamily(full=d3.full, members=fam_b.members), m=low
            )
        )
        core_game = make_game([game.moves[0]] * n, n, Kind.SINGLE, core)
        assert verify(core_game, sigma).valid

    def test_state_witness_is_rejected_by_name(self, d2):
        # solve's witness wins, but it reads the target state, which the
        # strengthening's subsequences of a history do not carry
        fam = family_of(d2, [{0}])
        game = build_point_open(d2, fam, fam, 2)
        det = solve(game)
        assert det.winner is Player.ONE
        with pytest.raises(ValueError, match="not a StateOne"):
            strengthen_one_for_subsequences(det.witness, game, 1)


class TestIntersectPredetermined:
    def test_union_witness_script(self, d3):
        fam = family_of(d3, [{0}, {1}, {0, 1}])
        out = intersect_predetermined(PreOne(indices=(0, 1)), fam)
        assert out == PreOne(indices=(0, 2))  # {0} then {0,1}

    def test_witness_missing_surfaces_at_the_failing_round(self, d3, singles3):
        with pytest.raises(WitnessMissing, match="round 1"):
            intersect_predetermined(PreOne(indices=(0, 1)), singles3)

    def test_window_upgrade_single_member_target(self, d3):
        # second family {{0}}: the script wins plain covers from horizon 1,
        # so the upgrade wins width-1 windows at horizon 2
        fam_a = family_of(d3, [{0}, {1}, {0, 1}])
        fam_b = family_of(d3, [{0}])
        script = PreOne(indices=(0, 1))
        for h in (1, 2):
            assert verify(
                build_point_open(d3, fam_a, fam_b, h),
                PreOne(indices=script.indices[:h]),
            ).valid
        upgraded = intersect_predetermined(script, fam_a)
        window_game = build_point_open(d3, fam_a, fam_b, 2, window=1)
        assert verify(window_game, upgraded).valid
        assert brute_blocks_are_counter_plays(window_game, upgraded, script, 1)

    def test_window_upgrade_two_member_target(self, d3):
        # second family of two singletons: wins from horizon 2, windows of 2
        fam_a = family_of(d3, [{0}, {1}, {0, 1}])
        fam_b = family_of(d3, [{0}, {1}])
        script = PreOne(indices=(0, 1, 0))
        for h in (2, 3):
            assert verify(
                build_point_open(d3, fam_a, fam_b, h),
                PreOne(indices=script.indices[:h]),
            ).valid
        upgraded = intersect_predetermined(script, fam_a)
        window_game = build_point_open(d3, fam_a, fam_b, 3, window=2)
        assert verify(window_game, upgraded).valid
        assert brute_blocks_are_counter_plays(window_game, upgraded, script, 2)
