import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from brute import (
    brute_history_witness,
    brute_least_pre_one,
    brute_markov_two,
    brute_verify,
    brute_winner,
    expand,
)
from selgames import (
    CoversFamily,
    Direction,
    EverySubsequence,
    ExplicitSet,
    FullOne,
    FullTwo,
    Kind,
    MultiCover,
    Not,
    Player,
    PreOne,
    WindowCover,
    apply_translation,
    build_point_open,
    build_rothberger,
    build_topology,
    check_duality,
    discrete_space,
    find_markov_two,
    find_predetermined_one,
    inclusion_pair,
    lift_item_map,
    make_game,
    play,
    relative_cofinality,
    singleton_family,
    solve,
    verify,
    winner,
)
from selgames.errors import BudgetExceeded, IllegalMove
from selgames.fuzzing import _random_game
from selgames.game import MarkovTwo, StateOne, StateTwo, advance, two_choices
from selgames.ground import SetFamily
from selgames.scenarios import build_game, corpus
from selgames.serialize import canonical_dumps, strategy_from_json, strategy_to_json
from selgames.solver import MAX_EXHIBITS
from selgames.transforms import _transfer

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestSolve:
    def test_point_open_values(self, d2, singles2):
        assert solve(build_point_open(d2, singles2, singles2, 1)).winner is Player.TWO
        assert solve(build_point_open(d2, singles2, singles2, 2)).winner is Player.ONE

    def test_horizon_zero(self):
        g = make_game([], 0, Kind.SINGLE, ExplicitSet(winning=(frozenset(),)))
        assert solve(g).winner is Player.TWO

    def test_witnesses_verify(self, d2, d3, singles2, singles3):
        for g in [
            build_point_open(d2, singles2, singles2, 1),
            build_point_open(d2, singles2, singles2, 2),
            build_rothberger(d2, singles2, singles2, 2),
            build_point_open(d3, singles3, singles3, 3),
        ]:
            det = solve(g)
            assert verify(g, det.witness).valid

    def test_deterministic_across_runs(self, d3, singles3):
        g = build_point_open(d3, singles3, singles3, 2)
        a, b = solve(g), solve(g)
        assert a.winner == b.winner
        assert a.witness == b.witness
        assert (a.nodes_explored, a.memo_hits) == (b.nodes_explored, b.memo_hits)

    def test_against_plain_minimax(self):
        rng = random.Random(11)
        for _ in range(40):
            g = _random_game(rng)
            assert solve(g).winner == brute_winner(g)

    def test_memo_respects_selection_order(self):
        # canary: keying solver states on the selected SET alone poisons
        # values for order-sensitive targets (a tempting shortcut, wrong
        # whenever duplicates or orderings matter); on this game such
        # states collide heavily, so an unsound memo crashes extraction
        # or flips the winner
        from selgames.game import WindowCover

        family = (frozenset({1, 2, 3}),)
        g = make_game(
            [family] * 4, 4, Kind.SINGLE,
            WindowCover(full=3, members=(1, 2), w=2),
        )
        det = solve(g)
        assert det.winner == brute_winner(g)
        assert verify(g, det.witness).valid

    def test_memo_merges_histories_with_equal_target_state(self, d3, singles3):
        # the solver expands each (round, target state) pair at most once,
        # however many histories reach it; count the pairs by a plain walk
        g = build_point_open(d3, singles3, singles3, 6, window=3)
        pairs = set()
        states = {g.target.start}
        for r in range(g.horizon):
            pairs.update((r, q) for q in states)
            states = {
                g.target.step(q, x) for q in states for ms in g.moves[r] for x in ms
            }
        assert solve(g).nodes_explored <= len(pairs)

    def test_extraction_decides_once_per_state(self):
        # the witness is read off the rows the determination recorded, so
        # no (round, state) is decided again per history: 2,801 history
        # rows at this size, but memo hits stay within the memo's own
        # fan-out
        space = discrete_space(4)
        singles = singleton_family(space)
        g = build_point_open(space, singles, singles, 5)
        det = solve(g)
        max_moves = max(len(family) for family in g.moves)
        max_replies = max(
            len(list(two_choices(g, ms))) for family in g.moves for ms in family
        )
        assert len(expand(g, det.witness).table) == 2801
        assert det.memo_hits <= det.nodes_explored * max_moves * max_replies

    def test_members_inside_once_per_item(self, monkeypatch):
        # a cover target keeps the members inside each item it has read:
        # solving a freshly built point-open d4 h5 game computes that mask
        # once per item (420 times when every step recomputed it), and a
        # second solve of the same game computes none
        from selgames import game as game_module

        calls = [0]
        members_inside = game_module._members_inside

        def counted(members, item):
            calls[0] += 1
            return members_inside(members, item)

        monkeypatch.setattr(game_module, "_members_inside", counted)
        space = discrete_space(4)
        singles = singleton_family(space)
        g = build_point_open(space, singles, singles, 5)
        solve(g)
        assert calls[0] <= len(g.universe)
        calls[0] = 0
        solve(g)
        assert calls[0] == 0

    def test_winner_matches_solve(self):
        rng = random.Random(19)
        for _ in range(25):
            g = _random_game(rng)
            assert winner(g) == solve(g).winner


class TestFindPredeterminedOne:
    def test_lex_least_script(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        assert find_predetermined_one(g) == PreOne(indices=(0, 1))

    def test_none_when_obligations_unreachable(self, d3, singles3):
        pairs = SetFamily.build(d3, [0b011, 0b101, 0b110])
        g = build_point_open(d3, singles3, pairs, 3)
        # a singleton script can cover pairs only via large opens, which Two
        # never grants: minimal replies block every script
        assert find_predetermined_one(g) is None

    def test_horizon_zero_empty_script(self):
        g = make_game([], 0, Kind.SINGLE, ExplicitSet(winning=()))
        assert find_predetermined_one(g) == PreOne(indices=())

    def test_against_double_enumeration(self, d3, singles3):
        # the least script itself, not just its existence; the window games
        # on d3 mix Two-won games, answered at the root by the prune on the
        # determination, with One-won ones whose state sets it cuts inside
        rng = random.Random(13)
        games = [_random_game(rng) for _ in range(1000)]
        families = [singles3, SetFamily.build(d3, list(range(1, 7)))]
        families += [
            SetFamily.build(d3, rng.sample(range(1, 7), rng.randint(3, 6)))
            for _ in range(3)
        ]
        games += [
            build_point_open(d3, fam_a, singles3, h, window=w)
            for fam_a in families
            for h in range(1, 6)
            for w in (1, 2, 3)
        ]
        for g in games:
            pre = find_predetermined_one(g)
            assert (None if pre is None else pre.indices) == brute_least_pre_one(g)

    def test_search_runs_over_state_sets(self, d3, singles3, monkeypatch):
        # the search runs over (round, set of reachable target states), not
        # over scripts and their suffixes, and a script cannot win where Two
        # does: on this Two-won window game it steps the target no more
        # often than determining the game does (84 steps against 24 without
        # the prune, 1,578 when scripts are enumerated)
        g = build_point_open(d3, singles3, singles3, 6, window=2)
        calls = _counting_steps(monkeypatch, WindowCover)
        assert winner(g) is Player.TWO
        determining = calls["step"]
        calls["step"] = 0
        assert find_predetermined_one(g) is None
        assert calls["step"] <= determining <= 200


class TestFindMarkovTwo:
    def test_rothberger_forced_table(self, d2, singles2):
        g = build_rothberger(d2, singles2, singles2, 2)
        markov = find_markov_two(g)
        assert markov is not None
        assert markov.table == {(0, 0): 1, (0, 1): 2}
        assert verify(g, markov).valid

    def test_point_open_h1(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 1)
        markov = find_markov_two(g)
        assert markov is not None and verify(g, markov).valid

    def test_none_when_two_loses(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        assert find_markov_two(g) is None

    def test_budget_zero_raises(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 1)
        with pytest.raises(BudgetExceeded):
            find_markov_two(g, node_budget=0)

    def test_table_has_one_cell_per_move_set(self):
        # families of sizes 1, 1, 1, 7 give 10 cells, not 7 x 4 rounds = 28
        pairs = [frozenset([k, k + 1]) for k in range(2, 9)]
        g = make_game(
            [[frozenset([1])]] * 3 + [pairs],
            4,
            Kind.SINGLE,
            ExplicitSet(winning=tuple(frozenset([1, k]) for k in range(2, 10, 2))),
        )
        assert winner(g) is Player.TWO
        markov = find_markov_two(g)
        assert markov is not None and len(markov.table) == 10
        assert verify(g, markov).valid

    def test_rothberger_tables_of_many_cells(self):
        # Two wins Rothberger discrete d3 from h3 on and d4 from h4 on
        # (test_one_won_game_beyond_the_cap_has_no_table covers d4 h1-h3):
        # tables of 28 to 56 cells (d3 h4-h8) and 192 and 240 (d4 h4-h5)
        for size, horizons in ((3, range(4, 9)), (4, (4, 5))):
            space = discrete_space(size)
            singles = singleton_family(space)
            for h in horizons:
                g = build_rothberger(space, singles, singles, h)
                markov = find_markov_two(g)
                assert markov is not None, (size, h)
                assert len(markov.table) == len(g.moves[0]) * h
                assert verify(g, markov).valid, (size, h)

    def test_existence_matches_table_enumeration(self):
        # tiny random games with at most 200 tables, each listed in full;
        # the tables found are pinned by digest, since their canonical
        # order is what `synth markov-two` prints
        rng = random.Random(12)
        checked, found = 0, []
        while checked < 300:
            g = _random_game(rng)
            tables = math.prod(
                len(tuple(two_choices(g, ms))) for family in g.moves for ms in family
            )
            if tables > 200:
                continue
            checked += 1
            markov = find_markov_two(g)
            assert (markov is None) == (brute_markov_two(g) is None), g
            if markov is not None:
                assert brute_verify(g, markov).valid and verify(g, markov).valid
                found.append(canonical_dumps(strategy_to_json(markov, g.kind)))
        digest = hashlib.sha256("".join(found).encode()).hexdigest()
        assert (len(found), digest[:16]) == (162, "a672b373f79b65a7")

    def test_one_won_game_beyond_the_cap_has_no_table(self):
        # One wins, so no table exists however many cells it would need
        # (48 to 144 here); the mirrored duality check is answered too
        d4 = discrete_space(4)
        singles4 = singleton_family(d4)
        for h in (1, 2, 3):
            rothberger = build_rothberger(d4, singles4, singles4, h)
            assert winner(rothberger) is Player.ONE
            assert find_markov_two(rothberger) is None
            point_open = build_point_open(d4, singles4, singles4, h)
            assert check_duality(rothberger, point_open).all_hold

    def test_winner_only_callers_skip_witness_extraction(
        self, d2, singles2, monkeypatch
    ):
        from selgames import duality, solver

        def no_witness(game):
            raise AssertionError("solve() extracts a witness nobody reads")

        monkeypatch.setattr(solver, "solve", no_witness)
        monkeypatch.setattr(duality, "solve", no_witness, raising=False)
        rothberger = build_rothberger(d2, singles2, singles2, 2)
        point_open = build_point_open(d2, singles2, singles2, 2)
        assert find_markov_two(rothberger) is not None
        assert find_markov_two(point_open) is None
        assert check_duality(rothberger, point_open).all_hold


class TestVerify:
    def test_repeated_script_refuted(self, d2, singles2):
        g = build_point_open(d2, singles2, singles2, 2)
        report = verify(g, PreOne(indices=(0, 0)))
        assert not report.valid
        assert any(rec.two_selections == (1, 1) for rec in report.counter_plays)

    def test_exhibit_cap(self, d3, singles3):
        g = build_point_open(d3, singles3, singles3, 1)
        report = verify(g, PreOne(indices=(0,)), max_exhibits=2)
        assert not report.valid
        assert len(report.counter_plays) <= 2

    def test_illegal_strategy_raises(self, d2, singles2):
        # every strategy class, through play, verify and the input check of
        # apply_translation: the round and text of the first broken rule.
        # One's index i offers {i}, whose one proper open superset is 1 << i
        g = build_point_open(d2, singles2, singles2, 2)
        missing = "strategy table missing a reachable history"
        cases = [
            (PreOne(indices=(0, 7)), 1, "move index 7 out of range"),
            (PreOne(indices=(0,)), 1, "predetermined script too short"),
            (FullOne(table={(): 0}), 1, missing),
            (StateOne(table={}), 0, missing),
            (FullTwo(table={(0,): 1}), 1, missing),
            (MarkovTwo(table={}), 0, "Markov table missing a cell"),
            (StateTwo(table={(0, g.target.start, 0): 2}), 0,
             "selection 2 outside the offered move set"),
        ]
        one = PreOne(indices=(0, 0))
        two = MarkovTwo(table={(i, r): 1 << i for i in (0, 1) for r in (0, 1)})
        pack = lift_item_map(lambda y, r: y, g, g)
        direction = {PreOne: Direction.PRE_ONE_PULLBACK, FullOne: Direction.FULL_ONE_PULLBACK,
                     StateOne: Direction.FULL_ONE_PULLBACK, FullTwo: Direction.FULL_TWO,
                     StateTwo: Direction.FULL_TWO, MarkovTwo: Direction.MARKOV_TWO}
        for strategy, r, text in cases:
            one_side = isinstance(strategy, (PreOne, FullOne, StateOne))
            for run in (
                lambda: play(g, strategy, two) if one_side else play(g, one, strategy),
                lambda: verify(g, strategy),
                lambda: apply_translation(pack, g, g, direction[type(strategy)], strategy),
            ):
                with pytest.raises(IllegalMove) as exc:
                    run()
                assert (exc.value.round_index, str(exc.value)) == (r, text), strategy

    def test_no_exhibits_still_refutes(self, d3, singles3):
        g = build_point_open(d3, singles3, singles3, 3)
        report = verify(g, PreOne(indices=(0, 0, 0)), max_exhibits=0)
        assert not report.valid
        assert report.counter_plays == ()
        assert report.plays_checked == 27

    def test_verify_steps_once_per_transition(self, monkeypatch):
        # the d4 h5 witness has 16,807 plays but few target states: the
        # walk steps each (state, selection) transition once and judges
        # One's last round once per (state, move), not once per play
        # (19,607 steps and 16,807 verdicts when every play is replayed)
        space = discrete_space(4)
        singles = singleton_family(space)
        g = build_point_open(space, singles, singles, 5)
        witness = solve(g).witness
        calls = {"step": 0, "accept": 0}
        step, accept = CoversFamily.step, CoversFamily.accept

        def counted_step(self, state, item):
            calls["step"] += 1
            return step(self, state, item)

        def counted_accept(self, state):
            calls["accept"] += 1
            return accept(self, state)

        monkeypatch.setattr(CoversFamily, "step", counted_step)
        monkeypatch.setattr(CoversFamily, "accept", counted_accept)
        report = verify(g, witness)
        assert report.valid and report.plays_checked == 16807
        assert calls["step"] <= 200
        assert calls["accept"] <= 200


def _counting_steps(monkeypatch, cls):
    """Count calls of the target class's ``step`` from here on."""
    calls = {"step": 0}
    step = cls.step

    def counted_step(self, state, item):
        calls["step"] += 1
        return step(self, state, item)

    monkeypatch.setattr(cls, "step", counted_step)
    return calls


class TestStateWitness:
    # solve returns one row per reachable (round, state); its expansion is
    # the history table, and verify walks the states, not the plays

    def test_expansion_is_the_least_history_witness(self):
        games = [build_game(sc) for sc in corpus()]
        for size, horizon in ((3, 3), (3, 4), (4, 3), (4, 4)):
            space = discrete_space(size)
            singles = singleton_family(space)
            games.append(build_point_open(space, singles, singles, horizon))
        rng = random.Random(7)
        games += [_random_game(rng) for _ in range(1000)]
        assert {g.kind for g in games} == set(Kind)
        for g in games:
            assert expand(g, solve(g).witness) == brute_history_witness(g)

    def test_corpus_counters_are_pinned(self):
        # (winner, nodes explored, memo hits, witness rows) per corpus game:
        # a faster determination loop must keep its short-circuit order,
        # so these may not move; memo hits count the determination's own
        # lookups, since the witness is read off its recorded rows
        pinned = {
            "point-open-discrete-2-h1": ("two", 1, 0, 2),
            "point-open-discrete-2-h2": ("one", 2, 0, 2),
            "rothberger-discrete-2-h1": ("one", 1, 0, 1),
            "rothberger-discrete-2-h2": ("two", 2, 0, 2),
            "point-open-discrete-3-h3": ("one", 8, 6, 7),
            "rothberger-multiplicity-2": ("one", 9, 4, 9),
            "point-open-window-discrete-3": ("one", 29, 23, 28),
        }
        got = {}
        for sc in corpus():
            det = solve(build_game(sc))
            got[sc.name] = (
                det.winner.value, det.nodes_explored, det.memo_hits,
                len(det.witness.table),
            )
        assert got == pinned

    def test_rows_stay_within_the_memo(self):
        # point-open discrete d4 h5: 27 rows against 32 memo nodes, where
        # the history table has 2,801 rows
        space = discrete_space(4)
        singles = singleton_family(space)
        det = solve(build_point_open(space, singles, singles, 5))
        assert len(det.witness.table) <= det.nodes_explored

    def test_horizon_8_end_to_end(self, monkeypatch):
        # solve, the JSON round trip and verify of point-open discrete d4
        # h8 step the target 1,204 times for 7**8 = 5,764,801 plays
        space = discrete_space(4)
        singles = singleton_family(space)
        g = build_point_open(space, singles, singles, 8)
        calls = _counting_steps(monkeypatch, CoversFamily)
        det = solve(g)
        text = canonical_dumps(strategy_to_json(det.witness, g.kind))
        witness = strategy_from_json(json.loads(text))
        assert witness == det.witness
        report = verify(g, witness)
        assert report.valid and report.plays_checked == 7**8
        assert calls["step"] <= 1500
        assert len(text) < 5000

    def test_markov_table_verifies_by_state(self, monkeypatch):
        # Rothberger discrete d4 h4: Two covers point r in round r.  The
        # table has 48**4 = 5,308,416 plays and 81 distinct transitions
        space = discrete_space(4)
        singles = singleton_family(space)
        g = build_rothberger(space, singles, singles, 4)
        members = g.target.members
        markov = MarkovTwo(table={
            (j, r): min(u for u in ms if members[r] & ~u == 0)
            for r, family in enumerate(g.moves)
            for j, ms in enumerate(family)
        })
        calls = _counting_steps(monkeypatch, CoversFamily)
        report = verify(g, markov)
        assert report.valid and report.plays_checked == 48**4
        assert calls["step"] <= 200


def test_check_duality_determines_each_game_once(monkeypatch):
    # one search context per game: the script search, Markov synthesis
    # and verification read the determination check_duality, a fuzz
    # suite, `corpus run` or `translate` has already made instead of
    # determining the game again
    from selgames import cli, solver
    from selgames.fuzzing import suite_cofinality, suite_determinacy, suite_translation

    built = []
    init = solver.Search.__init__

    def counted_init(self, game):
        built.append(game)
        init(self, game)

    monkeypatch.setattr(solver.Search, "__init__", counted_init)
    space = discrete_space(3)
    singles = singleton_family(space)
    for h in (1, 2, 3):
        built.clear()
        check_duality(
            build_rothberger(space, singles, singles, h),
            build_point_open(space, singles, singles, h),
        )
        assert len(built) == 2

    # determinacy: one game per instance; cofinality: two horizons each
    for suite, games_per_instance in ((suite_determinacy, 1), (suite_cofinality, 2)):
        built.clear()
        res = suite(random.Random(5), 20)
        assert res.instances == 20
        assert len(built) == games_per_instance * res.instances

    built.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["corpus", "run", "--json"]) == 0
    assert len(built) == len(corpus())

    # translation: the syntheses and the transfers of an attempt share one
    # context per game, and _transfer builds none of its own
    built.clear()
    res = suite_translation(random.Random(5), 20)
    assert res.instances and 0 < len(built) <= 2 * res.attempts
    assert len({id(g) for g in built}) == len(built)
    always = make_game([(frozenset({0, 1}),)] * 2, 2, Kind.SINGLE,
                       ExplicitSet(winning=({0}, {1}, {0, 1})))
    pack = lift_item_map(lambda y, r: y, always, always)
    markov = find_markov_two(always)
    searches = solver.Search(always)
    built.clear()
    _transfer(pack, searches, searches, Direction.MARKOV_TWO, markov)
    assert built == []
    apply_translation(pack, always, always, Direction.MARKOV_TWO, markov)
    assert len(built) == 2

    # `translate` synthesizes on the contexts it transfers on, so each
    # game is determined at most once
    pack_file, tiny = (str(SCENARIOS / f) for f in ("identity-pack-tiny.json",
                                                    "tiny-abstract.json"))
    for direction in Direction:
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["translate", pack_file, tiny, tiny,
                             "--direction", direction.value]) == 0
        assert len(built) == 2, direction


def test_one_search_context_steps_each_transition_once(monkeypatch):
    # determination, the witness walk, the script search and Markov
    # synthesis on one Search step each (state, item) transition once
    from selgames import solver

    d3 = discrete_space(3)
    singles = singleton_family(d3)
    for cls, g in (
        (WindowCover, build_point_open(d3, singles, singles, 5, window=3)),
        (WindowCover, build_point_open(d3, singles, singles, 5, window=2)),
        (CoversFamily, build_rothberger(d3, singles, singles, 3)),
    ):
        stepped = []
        step = cls.step

        def recorded_step(self, state, item, step=step, stepped=stepped):
            stepped.append((state, item))
            return step(self, state, item)

        monkeypatch.setattr(cls, "step", recorded_step)
        searches = solver.Search(g)
        det = searches.solve()
        searches.find_predetermined_one()
        searches.find_markov_two()
        monkeypatch.undo()
        assert stepped and len(stepped) == len(set(stepped))
        assert verify(g, det.witness).valid


def test_verifying_the_witness_steps_no_new_transition():
    # the determination steps every move the witness makes, so verifying
    # it on the same search context reads each transition off the shared
    # table
    from selgames import solver

    for g in _oracle_games():
        searches = solver.Search(g)
        det = searches.solve()
        stepped = len(searches.transitions)
        assert searches.verify(det.witness).valid
        assert len(searches.transitions) == stepped


def test_solve_after_winner_reads_the_recorded_rows():
    # winner() records every row the witness needs, so solve() on the same
    # context explores no node, steps no transition and looks up the memo
    # once, at the start state, for games either side wins
    from selgames import solver

    sides = set()
    for g in _oracle_games():
        if not g.horizon:
            continue
        searches = solver.Search(g)
        sides.add(searches.winner())
        nodes, hits, stepped = searches.nodes, searches.hits, len(searches.transitions)
        det = searches.solve()
        assert det.nodes_explored == nodes
        assert det.memo_hits == hits + 1
        assert len(searches.transitions) == stepped
        assert det.witness == solve(g).witness
    assert sides == {Player.ONE, Player.TWO}


def _oracle_games():
    """Corpus games, point-open discrete d3/d4, and seeded random games
    (some finite-kind, some with negated or explicit targets)."""
    games = [build_game(sc) for sc in corpus()]
    for size, horizon in ((3, 3), (3, 4), (4, 3), (4, 4)):
        space = discrete_space(size)
        singles = singleton_family(space)
        games.append(build_point_open(space, singles, singles, horizon))
    rng = random.Random(23)
    games += [_random_game(rng) for _ in range(30)]
    return games


def _least_reply_markov(g):
    """Two's Markov table answering every move set with its least reply."""
    return MarkovTwo(table={
        (j, r): next(two_choices(g, ms))
        for r, family in enumerate(g.moves)
        for j, ms in enumerate(family)
    })


def _brute_form(g, strategy):
    """The strategy as tests/brute.py plays it: a state table expanded to
    the history table it stands for, any other class as it is."""
    if isinstance(strategy, (StateOne, StateTwo)):
        return expand(g, strategy)
    return strategy


def _legal_strategies(g):
    """Witnesses (state tables and their expansions), scripts and Markov
    tables, winning and losing, plus both witness forms with their
    last-round choices changed (legal, often losing)."""
    det = solve(g)
    full = expand(g, det.witness)
    zeros = PreOne(indices=(0,) * g.horizon)
    least = _least_reply_markov(g)
    out = [det.witness, full, zeros, expand(g, zeros), least, expand(g, least)]
    pre = find_predetermined_one(g)
    if pre is not None:
        out.append(pre)
    try:
        markov = find_markov_two(g)
    except BudgetExceeded:
        markov = None
    if markov is not None:
        out.append(markov)
    last = g.horizon - 1
    if isinstance(det.witness, StateOne):
        out.append(FullOne(table={
            h: (i + 1) % len(g.moves[last]) if len(h) == last else i
            for h, i in full.table.items()
        }))
        out.append(StateOne(table={
            (r, q): (i + 1) % len(g.moves[last]) if r == last else i
            for (r, q), i in det.witness.table.items()
        }))
    elif g.horizon:
        out.append(FullTwo(table={
            h: next(two_choices(g, g.moves[last][h[-1]])) if len(h) == g.horizon else x
            for h, x in full.table.items()
        }))
        out.append(StateTwo(table={
            (r, q, i): next(two_choices(g, g.moves[last][i])) if r == last else x
            for (r, q, i), x in det.witness.table.items()
        }))
    return out


def _illegal_strategies(g):
    """Strategies that break a rule somewhere in the play tree."""
    last = g.horizon - 1
    zeros = PreOne(indices=(0,) * g.horizon)
    full_one = expand(g, zeros)
    least = _least_reply_markov(g)
    full_two = expand(g, least)
    deepest_one = [h for h in full_one.table if len(h) == last][-1]
    deepest_two = list(full_two.table)[-1]
    outside = max(g.universe) + 1
    bad_items = [outside] if g.kind is Kind.SINGLE else [
        frozenset([outside]), frozenset()
    ]
    out = [
        PreOne(indices=()),
        PreOne(indices=(0,) * last + (len(g.moves[last]),)),
        FullOne(table={h: i for h, i in full_one.table.items() if h != deepest_one}),
        FullTwo(table={h: x for h, x in full_two.table.items() if h != deepest_two}),
        MarkovTwo(table={k: x for k, x in least.table.items() if k != (0, last)}),
    ]
    for bad in bad_items:
        out.append(FullTwo(table={**full_two.table, deepest_two: bad}))
        out.append(MarkovTwo(table={**least.table, (0, last): bad}))
    if last >= 1 and len(g.moves[0]) > 1:
        # two faults: the one under One's first index comes first depth
        # first, before the missing cell for One's last index in round 0
        first_round_short = {
            k: x for k, x in least.table.items() if k != (len(g.moves[0]) - 1, 0)
        }
        out.append(MarkovTwo(table={**first_round_short, (0, last): bad_items[0]}))
    # the witness's state table with a last-round row missing or broken
    witness = solve(g).witness
    deepest = [k for k in witness.table if k[0] == last][-1]
    out.append(type(witness)(
        table={k: v for k, v in witness.table.items() if k != deepest}))
    broken = [len(g.moves[last])] if isinstance(witness, StateOne) else bad_items
    for bad in broken:
        out.append(type(witness)(table={**witness.table, deepest: bad}))
    if isinstance(witness, StateOne):
        # an index out of range in round 0, with rounds still to come
        root = (0, g.target.start)
        out.append(StateOne(table={**witness.table, root: len(g.moves[0])}))
    return out


def _assert_matches_oracle(g, strategies, caps=(0, 1, 2, MAX_EXHIBITS)):
    for strategy in strategies:
        for cap in caps:
            report = verify(g, strategy, max_exhibits=cap)
            assert report == brute_verify(g, _brute_form(g, strategy), max_exhibits=cap)


class TestVerifyAgainstLiteralPlays:
    # verify walks the play tree once, carrying the target state; the
    # oracle replays every play from round 0 and evaluates it whole

    def test_reports_equal(self):
        capped = 0
        for g in _oracle_games():
            for strategy in _legal_strategies(g):
                for cap in (0, 1, 3, MAX_EXHIBITS):
                    report = verify(g, strategy, max_exhibits=cap)
                    oracle = brute_verify(g, _brute_form(g, strategy), max_exhibits=cap)
                    assert report == oracle
                    if cap and len(report.counter_plays) == cap:
                        capped += 1
        # the losing strategies lose often enough for every cap to bind
        assert capped > 20

    def test_illegal_strategies_raise_alike(self):
        for g in _oracle_games():
            if g.horizon == 0:
                continue
            for strategy in _illegal_strategies(g):
                with pytest.raises(IllegalMove) as fast:
                    verify(g, strategy)
                with pytest.raises(IllegalMove) as slow:
                    brute_verify(g, _brute_form(g, strategy))
                assert (fast.value.round_index, str(fast.value)) == (
                    slow.value.round_index, str(slow.value)
                )

    def test_horizon_zero(self):
        strategies = [PreOne(indices=()), FullOne(table={}), FullTwo(table={}),
                      MarkovTwo(table={}), StateOne(table={}), StateTwo(table={})]
        for kind in Kind:
            for winning in ((), (frozenset(),)):
                g = make_game([], 0, kind, ExplicitSet(winning=winning))
                _assert_matches_oracle(g, strategies)

    def test_cap_ends_inside_a_settled_node(self, d3, singles3):
        # after Two's reply {0}, each of the three replies to point 0
        # again leaves point 1 or 2 uncovered: one last-round node holds
        # several counter-plays, and caps 1 and 2 stop inside it
        g = build_point_open(d3, singles3, singles3, 2)
        strategy = expand(g, PreOne(indices=(0, 0)))
        first, second = verify(g, strategy, max_exhibits=2).counter_plays
        assert first.two_selections[:-1] == second.two_selections[:-1]
        _assert_matches_oracle(g, [strategy], caps=(1, 2))

    def test_history_tables_are_never_merged(self, d3, singles3):
        # two histories reach the same (round, covered set) and the table
        # continues them differently, one way winning and the other losing:
        # a walk keyed on (round, state) alone would judge both alike
        g = build_point_open(d3, singles3, singles3, 3)
        start = g.target.start
        # Two's replies ({0}, {1}) and ({0,1}, {1}) to points 0 and 1
        first, second = (0b001, 0b010), (0b011, 0b010)
        assert advance(g, advance(g, start, 0b001), 0b010) == advance(
            g, advance(g, start, 0b011), 0b010
        )
        # then point 2 wins for One, and point 0 loses to the reply {0}
        scripted = expand(g, PreOne(indices=(0, 1, 2))).table
        ones = [FullOne(table={**scripted, first: 2, second: 0}),
                FullOne(table={**scripted, first: 0, second: 2})]

        g2 = build_point_open(d3, singles3, singles3, 2)
        least = expand(g2, _least_reply_markov(g2)).table
        # Two answers points 0 and 1 alike with {0,1}; after point 0 again
        # the reply {0} keeps point 2 uncovered, the reply {0,2} does not
        twos = [FullTwo(table={**least, (0,): 0b011, (1,): 0b011,
                               (0, 0): 0b001, (1, 0): 0b101}),
                FullTwo(table={**least, (0,): 0b011, (1,): 0b011,
                               (0, 0): 0b101, (1, 0): 0b001})]
        for game, strategies in ((g, ones), (g2, twos)):
            for strategy in strategies:
                assert not verify(game, strategy).valid
            _assert_matches_oracle(game, strategies)

    def test_finite_kind_games(self):
        # replies are frozensets, as transition keys and in counter-plays
        family = (frozenset({1, 2}), frozenset({2, 4, 5}), frozenset({3, 6}))
        targets = [
            CoversFamily(full=7, members=(1, 2, 4)),
            Not(CoversFamily(full=7, members=(1, 2, 4))),
            ExplicitSet(winning=(frozenset({1, 2}), frozenset({2, 3, 6}))),
            WindowCover(full=7, members=(1, 2), w=2),
        ]
        for target in targets:
            for horizon in (1, 2, 3):
                g = make_game([family] * horizon, horizon, Kind.FINITE, target)
                _assert_matches_oracle(g, _legal_strategies(g))

    def test_non_int_target_states(self):
        # frozenset states (MultiCover, ExplicitSet, EverySubsequence),
        # tuple states (WindowCover) and Not wrappers are memo keys
        families = [
            (frozenset({1, 2, 3}), frozenset({3, 5, 6})),
            (frozenset({1, 4}), frozenset({2, 6}), frozenset({3, 5})),
            (frozenset({1, 2, 3}), frozenset({3, 5, 6})),
        ]
        cover = CoversFamily(full=7, members=(1, 2, 4))
        targets = [
            MultiCover(full=7, members=(1, 2, 4), m=1),
            MultiCover(full=7, members=(1, 2), m=2),
            ExplicitSet(winning=(frozenset({1, 2}), frozenset({3, 4, 5}))),
            WindowCover(full=7, members=(1, 2), w=2),
            WindowCover(full=7, members=(1, 2, 4), w=3),
            EverySubsequence(inner=cover, m=2),
            EverySubsequence(inner=WindowCover(full=7, members=(1, 2), w=2), m=2),
        ]
        targets += [Not(t) for t in targets]
        for target in targets:
            g = make_game(families, 3, Kind.SINGLE, target)
            _assert_matches_oracle(g, _legal_strategies(g))


class TestFiniteCharacterizations:
    def test_predetermined_iff_cofinality(self):
        # exhaustive on tiny discrete spaces and fixed family pairs
        for size in (2, 3):
            space = discrete_space(size)
            full = space.full
            import itertools

            pool = list(range(1, full))
            for fam_a_members in itertools.combinations(pool, 2):
                fam_a = SetFamily.build(space, fam_a_members)
                fam_b = SetFamily.build(space, [1, full])
                cof = relative_cofinality(
                    inclusion_pair(fam_a.members, fam_b.members)
                )
                for n in range(0, 4):
                    g = build_point_open(space, fam_a, fam_b, n)
                    assert (find_predetermined_one(g) is not None) == cof.at_most(n)

    def test_full_win_iff_predetermined_on_open_families(self):
        # all-open first family: echo replies collapse full information
        space = build_topology(3, [0b001, 0b011])
        fam_a = SetFamily.build(space, [0b001, 0b011])
        assert fam_a.all_open
        fam_b = SetFamily.build(space, [0b001, 0b010])
        for n in range(0, 4):
            g = build_point_open(space, fam_a, fam_b, n)
            assert (solve(g).winner is Player.ONE) == (
                find_predetermined_one(g) is not None
            )

    def test_closed_points_matter_for_the_cofinality_form(self):
        # {0} is not closed here, so Two cannot punish scripts with
        # point-complements: One wins with a script although no candidate
        # dominates the obligation.  This is exactly why the corpus
        # restricts the cofinality characterization to closed-point spaces.
        space = build_topology(3, [0b001, 0b011, 0b101])
        assert not space.points_closed()
        fam_a = SetFamily.build(space, [0b010, 0b100])
        fam_b = SetFamily.build(space, [0b001])
        cof = relative_cofinality(inclusion_pair(fam_a.members, fam_b.members))
        assert cof.is_undefined
        g = build_point_open(space, fam_a, fam_b, 1)
        assert find_predetermined_one(g) is not None
