"""The benchmark's traced run wraps library functions by name, and its
recorded answers (fuzz-mix sha256 values, the winners and strategy
existence of the two solver workloads) are what the library answers."""

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

from selgames.cli import main
from selgames.scenarios import build_game, scenario_from_json
from selgames.solver import Search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _recorded() -> dict:
    return json.loads((PERFBENCH / "expectations.json").read_text(encoding="utf-8"))


def test_traced_functions_resolve():
    # perfbench/tracing.py is read and run in a fresh namespace, so no
    # bytecode cache is written beside it; `--trace 1` calls getattr on
    # each (module, function) pair, and a renamed one would fail there
    namespace: dict = {}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    assert namespace["TRACED"]
    for name, (module, function, _) in namespace["TRACED"].items():
        found = getattr(importlib.import_module(f"selgames.{module}"), function, None)
        assert callable(found), name


def test_fuzz_bytes_match_the_recorded_sha256():
    # 16 of the 256 recorded fuzz-mix seeds, spread over 0..255: a drift in
    # the fuzz report's bytes fails here before the benchmark sees it
    fuzz_mix = _recorded()["fuzz-mix"]
    for seed in range(0, 256, 17):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fuzz", "--seed", str(seed), "--count", str(fuzz_mix["count"]),
                         "--json"])
        assert code == 0, seed
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == fuzz_mix["sha256"][seed], seed


def test_witness_heavy_answers_match_the_recorded_ones():
    # point-open discrete d4 h5 under each relabelling of its items, keyed
    # "p0,p1,p2,p3" for item i renamed p_i: winner, script, Markov table
    spec = _recorded()["witness-heavy"]
    size, horizon = spec["size"], spec["horizon"]
    assert len(spec["requests"]) == 24
    for key, expected in spec["requests"].items():
        singles = [[int(p)] for p in key.split(",")]
        sc = scenario_from_json({
            "name": f"point-open-discrete-{size}-h{horizon}",
            "space": {"size": size, "subbasis": sorted(singles)},
            "families": {"a": singles, "b": singles},
            "horizon": horizon,
            "flavor": "point-open-o",
            "params": {},
        })
        searches = Search(build_game(sc))
        got = {
            "winner": searches.winner().value,
            "pre": searches.find_predetermined_one() is not None,
            "markov": searches.find_markov_two() is not None,
        }
        assert got == expected, key


def test_search_heavy_answers_match_the_recorded_ones():
    # the 25 recorded point-open-window draws, two of them won by Two:
    # winner, script existence, and a witness that verifies
    pool = _recorded()["search-heavy"]["pool"]
    assert len(pool) == 25
    for entry in pool:
        searches = Search(build_game(scenario_from_json(entry["scenario"])))
        det = searches.solve()
        got = {
            "winner": det.winner.value,
            "pre": searches.find_predetermined_one() is not None,
        }
        assert got == entry["expected"], entry["scenario"]["name"]
        assert searches.verify(det.witness).valid, entry["scenario"]["name"]
