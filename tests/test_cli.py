import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from selgames import scenarios
from selgames.cli import _build_parser, main
from selgames.fuzzing import fuzz
from selgames.serialize import canonical_dumps
from test_fuzz import _force_tukey
from test_scenarios import REPEATED_ROWS

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_winner_line(self, capsys):
        code, out, _ = run(capsys, "solve", str(SCENARIOS / "point-open-discrete-2-h2.json"))
        assert code == 0
        assert "winner one" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(SCENARIOS / "point-open-discrete-2-h1.json"), "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["winner"] == "two"
        assert data["witness"]["class"] == "state-two"

    def test_horizon_override(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(SCENARIOS / "point-open-discrete-2-h1.json"),
            "--horizon", "2", "--json",
        )
        assert json.loads(out)["winner"] == "one"

    def test_builds_the_topology_once(self, capsys, monkeypatch):
        # a scenario checks itself when it is made, and the game reuses its space
        calls = []
        build = scenarios.build_topology

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(scenarios, "build_topology", counted)
        for name in ("point-open-discrete-2-h2.json", "tiny-abstract.json"):
            calls.clear()
            code, _, _ = run(capsys, "solve", str(SCENARIOS / name))
            assert code == 0
            assert len(calls) == 1, name


class TestSynth:
    def test_pre_one(self, capsys):
        code, out, _ = run(
            capsys, "synth", "pre-one",
            str(SCENARIOS / "point-open-discrete-2-h2.json"), "--json",
        )
        assert code == 0
        assert json.loads(out)["strategy"]["indices"] == [0, 1]

    def test_markov_two_none(self, capsys):
        code, out, _ = run(
            capsys, "synth", "markov-two",
            str(SCENARIOS / "point-open-discrete-2-h2.json"), "--json",
        )
        assert code == 0
        assert json.loads(out)["strategy"] is None

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run(
            capsys, "synth", "markov-two",
            str(SCENARIOS / "point-open-discrete-2-h1.json"), "--budget", "0",
        )
        assert code == 3
        assert "budget" in err.lower()

    def test_script_search_honours_budget(self, capsys):
        # One wins both games, so the script search expands at least the
        # root node, which a zero budget does not allow
        tiny = str(SCENARIOS / "tiny-abstract-one-wins.json")
        commands = (
            ("synth", "pre-one", str(SCENARIOS / "point-open-discrete-3-h3.json")),
            ("translate", str(SCENARIOS / "identity-pack-one-wins.json"), tiny, tiny,
             "--direction", "pre-one-pullback"),
        )
        for command in commands:
            code, out, err = run(capsys, *command, "--budget", "0")
            assert code == 3, command
            assert out == ""
            assert err.startswith("budget exhausted: "), command


class TestVerify:
    def test_valid_strategy(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "pre-one",
            str(SCENARIOS / "point-open-discrete-2-h2.json"), "--json",
        )
        strategy = json.loads(out)["strategy"]
        path = tmp_path / "script.json"
        path.write_text(json.dumps(strategy))
        code, out, _ = run(
            capsys, "verify", str(SCENARIOS / "point-open-discrete-2-h2.json"),
            str(path), "--json",
        )
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_solve_witness_verifies(self, capsys, tmp_path):
        # the witness `solve --json` prints is a state table `verify` reads,
        # on a game each side wins
        for horizon in ("1", "2", "3"):
            scenario = str(SCENARIOS / "point-open-discrete-3-h3.json")
            code, out, _ = run(capsys, "solve", scenario, "--horizon", horizon, "--json")
            assert code == 0
            witness = json.loads(out)["witness"]
            assert witness["class"] in ("state-one", "state-two")
            path = tmp_path / "witness.json"
            path.write_text(json.dumps(witness))
            code, out, _ = run(
                capsys, "verify", scenario, str(path), "--horizon", horizon, "--json"
            )
            assert code == 0
            assert json.loads(out)["valid"] is True

    def test_state_witness_drives_translate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "solve", str(SCENARIOS / "tiny-abstract.json"), "--json"
        )
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(json.loads(out)["witness"]))
        code, out, _ = run(
            capsys, "translate", str(SCENARIOS / "identity-pack-tiny.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            "--direction", "full-two", "--input", str(path), "--json",
        )
        assert code == 0
        assert json.loads(out)["transferred"]["class"] == "full-two"

    def test_losing_strategy_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(SCENARIOS / "point-open-discrete-2-h2.json"),
            str(SCENARIOS / "losing-script-point-open-2.json"), "--json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["valid"] is False
        assert data["counter_plays"]

    def test_max_exhibits_caps_counter_plays(self, capsys):
        # a repeated-first-member script on the 3-point space loses in
        # many ways; the flag caps how many are exhibited
        code, out, _ = run(
            capsys, "verify", str(SCENARIOS / "point-open-discrete-3-h3.json"),
            str(SCENARIOS / "losing-script-point-open-2.json"),
            "--horizon", "2", "--max-exhibits", "1", "--json",
        )
        assert code == 2
        assert len(json.loads(out)["counter_plays"]) == 1

    def test_max_exhibits_zero_still_refutes(self, capsys):
        # exhibiting no counter-play must not hide that there are some
        code, out, _ = run(
            capsys, "verify", str(SCENARIOS / "point-open-discrete-3-h3.json"),
            str(SCENARIOS / "losing-script-point-open-2.json"),
            "--horizon", "2", "--max-exhibits", "0", "--json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["valid"] is False
        assert data["counter_plays"] == []

    def test_negative_max_exhibits_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", str(SCENARIOS / "point-open-discrete-3-h3.json"),
            str(SCENARIOS / "losing-script-point-open-2.json"),
            "--horizon", "2", "--max-exhibits", "-1", "--json",
        )
        assert code == 1
        assert out == ""
        assert "--max-exhibits" in err

    def test_negative_budget_is_usage_error(self, capsys):
        tiny = str(SCENARIOS / "tiny-abstract.json")
        commands = (
            ("synth", "markov-two", str(SCENARIOS / "point-open-discrete-2-h1.json")),
            ("translate", str(SCENARIOS / "identity-pack-tiny.json"), tiny, tiny,
             "--direction", "markov-two"),
            ("fuzz", "--seed", "1", "--count", "1"),
        )
        for command in commands:
            code, out, err = run(capsys, *command, "--budget", "-3", "--json")
            assert code == 1, command
            assert out == ""
            assert "--budget" in err
        # a zero budget is legal and exhausted at once
        code, _, _ = run(capsys, *commands[0], "--budget", "0", "--json")
        assert code == 3


class TestDuality:
    def test_dual_pair_holds(self, capsys):
        code, out, _ = run(
            capsys, "duality", str(SCENARIOS / "dual-pair-discrete-2-h2.json"), "--json"
        )
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_malformed_pair_file_is_an_error(self, capsys, tmp_path):
        for k, data in enumerate(([], "x", {"left": {}}, {})):
            path = tmp_path / f"pair-{k}.json"
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, "duality", str(path))
            assert code == 1, data
            assert out == ""
            assert err.startswith("error: bad ") and len(err.splitlines()) == 1, data


class TestTranslate:
    def test_identity_pack_full_two(self, capsys):
        code, out, _ = run(
            capsys, "translate", str(SCENARIOS / "identity-pack-tiny.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            "--direction", "full-two", "--json",
        )
        assert code == 0
        assert json.loads(out)["transferred"]["class"] == "full-two"

    def test_explicit_input_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "markov-two", str(SCENARIOS / "tiny-abstract.json"),
            "--json",
        )
        strategy = json.loads(out)["strategy"]
        assert strategy is not None
        path = tmp_path / "markov.json"
        path.write_text(json.dumps(strategy))
        code, out, _ = run(
            capsys, "translate", str(SCENARIOS / "identity-pack-tiny.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            str(SCENARIOS / "tiny-abstract.json"),
            "--direction", "markov-two", "--input", str(path), "--json",
        )
        assert code == 0
        assert json.loads(out)["transferred"]["class"] == "markov-two"


    def test_wrong_strategy_class_is_an_error(self, capsys, tmp_path):
        # Two wins the tiny game, so `solve` prints a StateTwo, which the
        # One pullback does not take
        tiny = str(SCENARIOS / "tiny-abstract.json")
        _, out, _ = run(capsys, "solve", tiny, "--json")
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(json.loads(out)["witness"]))
        code, out, err = run(
            capsys, "translate", str(SCENARIOS / "identity-pack-tiny.json"), tiny, tiny,
            "--direction", "full-one-pullback", "--input", str(path), "--json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


    def test_axioms_fail_in_every_direction(self, capsys, tmp_path):
        # a pack that breaks legality is refused before any input is looked
        # for, so a direction with no winning input also exits 2; round 0
        # pulls target move 0 back to source move 7, which the one-move
        # source round does not have, or to no source move at all
        tiny = str(SCENARIOS / "tiny-abstract.json")
        for t_one_0 in ([[0, 7]], []):
            pack = tmp_path / "pack.json"
            pack.write_text(json.dumps({"t_one": [t_one_0, [[0, 7]]], "t_two": [[], []]}))
            for direction in ("markov-two", "full-two", "full-one-pullback",
                              "pre-one-pullback"):
                code, out, err = run(capsys, "translate", str(pack), tiny, tiny,
                                     "--direction", direction)
                assert code == 2, direction
                assert out == ""
                assert err == ("translation axioms fail:"
                               " pack violates legality at (0, 0, None)\n"), direction

    def test_malformed_input_is_reported_before_the_axioms(self, capsys, tmp_path):
        # the --input file is decoded before the pack's axioms are checked:
        # a malformed file is a usage error even beside a pack that fails
        tiny = str(SCENARIOS / "tiny-abstract.json")
        pack = tmp_path / "pack.json"
        pack.write_text(json.dumps({"t_one": [[], []], "t_two": [[], []]}))
        bad = tmp_path / "input.json"
        for text in ("{", json.dumps({"class": "no-such-class"})):
            bad.write_text(text)
            code, out, err = run(capsys, "translate", str(pack), tiny, tiny,
                                 "--direction", "markov-two", "--input", str(bad))
            assert code == 1, text
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1, text
        # a well-formed input leaves the pack's failure to be reported
        bad.write_text(json.dumps({"class": "markov-two", "kind": "single", "table": []}))
        code, out, err = run(capsys, "translate", str(pack), tiny, tiny,
                             "--direction", "markov-two", "--input", str(bad))
        assert code == 2 and err.startswith("translation axioms fail: ")


class TestCofinality:
    def test_pairs_over_singletons(self, capsys):
        code, out, _ = run(
            capsys, "cofinality",
            str(SCENARIOS / "order-pair-pairs-over-singletons.json"), "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["cofinality"] == "2"
        assert data["lifted_over_counter"] == "OMEGA"


class TestFuzzCommand:
    def test_small_clean_run(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--seed", "5", "--count", "3",
            "--suite", "ground", "--suite", "tukey", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_violations"] == 0

    def test_reproducible_bytes(self, capsys):
        _, out1, _ = run(capsys, "fuzz", "--seed", "42", "--count", "5",
                         "--suite", "determinacy", "--json")
        _, out2, _ = run(capsys, "fuzz", "--seed", "42", "--count", "5",
                         "--suite", "determinacy", "--json")
        assert out1 == out2

    def test_repeated_suite_runs_once(self, capsys):
        args = ("fuzz", "--seed", "1", "--count", "2", "--json")
        _, once, _ = run(capsys, *args, "--suite", "ground")
        code, twice, _ = run(capsys, *args, "--suite", "ground", "--suite", "ground")
        assert code == 0
        assert json.loads(twice)["suites"] == ["ground"]
        assert twice == once

    def test_invalid_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fuzz", "--seed", "1", "--count", "0")
        assert code == 1

    def test_retired_suite_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "1",
                             "--suite", "open-question-gamma-two")
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and "open-question-gamma-two" in err

    def test_exhausted_budget_exits_3(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "0", "--count", "2",
                           "--budget", "0", "--json")
        assert code == 3
        data = json.loads(out)
        assert data["total_violations"] == 0 and data["total_budget_exceeded"] > 0

    def test_violations_exit_2(self, capsys, monkeypatch):
        expected: list = []
        _force_tukey(monkeypatch, expected)
        code, out, _ = run(capsys, "fuzz", "--seed", "0", "--count", "2",
                           "--suite", "tukey", "--json")
        assert code == 2
        assert json.loads(out)["total_violations"] == len(expected) > 0


class TestCorpusCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == 0
        assert "point-open-discrete-2-h2" in out

    def test_run_all_pass(self, capsys):
        code, out, _ = run(capsys, "corpus", "run")
        assert code == 0
        assert "FAIL" not in out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_non_integer_budget_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "synth", "pre-one", str(SCENARIOS / "point-open-discrete-2-h1.json"),
            "--budget", "x",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "--budget" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "does-not-exist.json")
        assert code == 1

    def test_bad_scenario_payload(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "solve", str(path))[0] == 1

    def test_wrongly_typed_fields_are_errors(self, capsys, tmp_path):
        base = json.loads((SCENARIOS / "point-open-discrete-2-h1.json").read_text())
        window = dict(base, flavor="point-open-window", params={"w": "a"})
        tiny = json.loads((SCENARIOS / "tiny-abstract.json").read_text())

        def abstract(**fields):
            game = dict(tiny["params"]["game"], **fields)
            return dict(tiny, params={"game": game})

        def covers(full=3, members=(1, 2)):
            return {"type": "covers-family", "full": full, "members": list(members)}

        scenarios = (
            dict(base, space=dict(base["space"], size="2")),
            dict(base, horizon="1"),
            window,
            abstract(target={"type": "not", "inner": covers(full="3")}),
            abstract(target={"type": "not", "inner": covers(members=("1", 2))}),
            abstract(target=dict(covers(), type="window-cover", w="1")),
            abstract(target=dict(covers(), type="multi-cover", m="1")),
            abstract(target={"type": "every-subsequence", "inner": covers(), "m": "1"}),
            abstract(target={"type": "explicit-set", "winning": [["0"], [0, 1]]}),
            abstract(moves=[[["0", 1]], [[0, 1]]]),
            abstract(horizon="2"),
            # a scenario horizon other than its game's
            dict(tiny, horizon=7),
            # a width or multiplicity below 1 names no game
            dict(base, flavor="point-open-window", params={"w": 0}),
            dict(base, flavor="point-open-window", params={"w": -2}),
            dict(base, flavor="rothberger-lambda", params={"m": 0}),
            # nor does a negative one in a target (0 stays legal there)
            abstract(target={"type": "every-subsequence", "inner": covers(), "m": -1}),
            abstract(target=dict(covers(), type="window-cover", w=-1)),
            abstract(target=dict(covers(), type="multi-cover", m=-1)),
            dict(base, name=[1]),
            # a boolean is no ground item, even where it would act as 0 or 1
            dict(base, families=dict(base["families"], a=[[True], [0]])),
            dict(base, space=dict(base["space"], subbasis=[[0], [True]])),
            # nor is a negative integer
            dict(base, families=dict(base["families"], a=[[-1], [0]])),
            # params is an object, not an array of pairs that dict() would take
            dict(base, flavor="point-open-window", params=[["w", 2]]),
        )
        commands = []
        for k, data in enumerate(scenarios):
            path = tmp_path / f"scenario-{k}.json"
            path.write_text(json.dumps(data))
            commands.append(("solve", str(path)))

        def companion(name, data):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            return str(path)

        commands.append(("verify", str(SCENARIOS / "point-open-discrete-2-h1.json"),
                         companion("strategy.json", {"class": "pre-one", "indices": "ab"})))
        markov = [{"move": 0, "round": r, "item": True} for r in (0, 1)]
        full_two = [{"history": [False] * n, "item": 0} for n in (1, 2)]
        full_one = [{"history": h, "move": 0} for h in ([], [False], [True])]
        strategies = (
            {"class": "markov-two", "table": markov},
            {"class": "full-two", "table": full_two},
            {"class": "full-one", "table": full_one},
        ) + tuple(
            # a key on two rows: the record contradicts itself
            {"class": cls, "table": rows} for cls, rows in REPEATED_ROWS.items()
        )
        for k, data in enumerate(strategies):
            commands.append(("verify", str(SCENARIOS / "tiny-abstract.json"),
                             companion(f"strategy-{k}.json", data)))
        pack = json.loads((SCENARIOS / "identity-pack-tiny.json").read_text())
        packs = (
            dict(pack, t_one=[[["0", 0]], [[0, 0]]]),
            dict(pack, t_two=[[[0, 0, False], [1, 0, True]], pack["t_two"][1]]),
            dict(pack, t_one=[[[0, 0], [0, 1]], [[0, 0]]]),
            dict(pack, t_two=[[[0, 0, 0], [0, 0, 1]], pack["t_two"][1]]),
        )
        tiny_path = str(SCENARIOS / "tiny-abstract.json")
        for k, data in enumerate(packs):
            commands.append(("translate", companion(f"pack-{k}.json", data),
                             tiny_path, tiny_path, "--direction", "full-two"))
        explicit = {"type": "explicit", "size": 1, "leq_pairs": [[0, 0]],
                    "a": [0], "b": [0]}
        pairs = (
            dict(explicit, size=True),
            dict(explicit, leq_pairs=[[False, False]]),
            dict(explicit, a=[False]),
            {"type": "inclusion", "a": [[True]], "b": [[1]]},
            dict(explicit, size=-3, leq_pairs=[], a=[], b=[]),
            # order pairs on points outside the carrier
            dict(explicit, leq_pairs=[[0, 0], [7, 9], [-1, 3]]),
            # a subfamily index outside the carrier
            dict(explicit, size=2, leq_pairs=[[0, 0], [1, 1]], a=[5]),
        )
        for k, data in enumerate(pairs):
            commands.append(("cofinality", companion(f"pair-{k}.json", data)))
        for command in commands:
            code, out, err = run(capsys, *command)
            assert code == 1, command
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1, command
        # the last command is the pair with an index outside the carrier
        assert "bad order-pair record: subfamily index outside the carrier" in err


def test_cached_parser_answers_like_a_fresh_process(capsys):
    # one process reuses the parser: a usage error, two commands and the
    # same usage error again each print and exit as a fresh interpreter does
    calls = [
        ("fuzz", "--seed", "1"),
        ("fuzz", "--seed", "3", "--count", "2", "--json"),
        ("corpus", "list", "--json"),
        ("fuzz", "--seed", "1"),
    ]
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "selgames", *argv],
                               capture_output=True, text=True, env=env)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert _build_parser() is _build_parser()


# sha256 of two canonical outputs: the byte-identity rule, checked; a
# change that moves either must say why its bytes moved
SEED_42_FUZZ_SHA256 = "6ad005c738d66483af41afb940aeedeec8b8999a765d7b1bcaeb311647ee52b4"
CORPUS_RUN_SHA256 = "fc9fef24601f56d5d5d4cb04ed0123a08fc01be5dfa39ce12308bec48d19f4ea"


def test_pinned_output_bytes(capsys):
    # the seed-42 report is the stdout of `fuzz --seed 42 --count 100 --json`
    report = canonical_dumps(fuzz(42, 100).to_json())
    assert hashlib.sha256(report.encode()).hexdigest() == SEED_42_FUZZ_SHA256
    code, out, _ = run(capsys, "corpus", "run", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_RUN_SHA256


# sha256 of the `translate --json` stdout of the identity pack on the tiny
# game in all four directions, then of `full-two` with the `solve`
# witness as `--input`, concatenated in that order
TRANSLATE_SHA256 = "cfffff6b23320b3b39945acb4ab1098dbf1c34e60e764458ffaf43b86b2a3249"


def test_pinned_translate_bytes(capsys, tmp_path):
    pack = str(SCENARIOS / "identity-pack-tiny.json")
    tiny = str(SCENARIOS / "tiny-abstract.json")
    _, out, _ = run(capsys, "solve", tiny, "--json")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(json.loads(out)["witness"]))
    runs = [
        ("--direction", direction)
        for direction in ("markov-two", "full-two", "full-one-pullback", "pre-one-pullback")
    ]
    runs.append(("--direction", "full-two", "--input", str(witness)))
    outs = []
    for extra in runs:
        code, out, _ = run(capsys, "translate", pack, tiny, tiny, *extra, "--json")
        assert code == 0, extra
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == TRANSLATE_SHA256


# sha256 of the `translate --json` stdout of the identity pack on a tiny
# game One wins, in `full-one-pullback` and `pre-one-pullback`, then of
# `full-one-pullback` with the `solve` witness as `--input`, concatenated
# in that order: every output is a transferred strategy
PULLBACK_SHA256 = "de657434fa66795443ca7e35b908ab86d81dcda81890bc10f88cceaaf0172062"


def test_pinned_pullback_bytes(capsys, tmp_path):
    pack = str(SCENARIOS / "identity-pack-one-wins.json")
    tiny = str(SCENARIOS / "tiny-abstract-one-wins.json")
    _, out, _ = run(capsys, "solve", tiny, "--json")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(json.loads(out)["witness"]))
    runs = [
        ("--direction", "full-one-pullback"),
        ("--direction", "pre-one-pullback"),
        ("--direction", "full-one-pullback", "--input", str(witness)),
    ]
    outs = []
    for extra in runs:
        code, out, _ = run(capsys, "translate", pack, tiny, tiny, *extra, "--json")
        assert code == 0, extra
        assert json.loads(out)["transferred"] is not None, extra
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == PULLBACK_SHA256


def test_readme_synopsis_lists_every_option():
    # each command's line in the README's command-line synopsis names every
    # long option its subparser takes
    readme = (SCENARIOS.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = {line.split()[1]: line for line in block.splitlines() if line.strip()}
    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(lines) == set(commands.choices)
    for name, sub in commands.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert option in re.findall(r"--[a-z-]+", lines[name]), (name, option)
