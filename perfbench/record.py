"""Record the expected outcome of every request the benchmark can make.

    python3 perfbench/record.py            # rewrites perfbench/expectations.json

Run it only at a commit whose answers are trusted; the benchmark checks
every request against these records, so a later change that alters a
winner, the existence of a script or Markov table, or one byte of a
fuzz report shows up as a failed request.  Every witness and script
recorded here is verified before it is written down.

Recorded per workload:

- witness-heavy: for each relabelling of the items, the winner and
  whether a winning script and a winning Markov table exist.
- search-heavy: the pool of point-open-window scenarios, drawn once from
  ``POOL_SEED``, each with its winner and whether a script exists.
- fuzz-mix: the sha256 of ``selgames fuzz --seed s --count C --json``
  stdout for every seed s below the table size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from selgames import cli, scenarios, solver  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20191005

SIZES = {
    "full": {
        "witness-heavy": {"size": 4, "horizon": 5},
        "search-heavy": {"pool": 25, "shapes": [[3, 5], [3, 6], [4, 5]],
                         "windows": [2, 3], "members": [3, 6]},
        "fuzz-mix": {"count": 20, "seeds": 256},
    },
    # For the self-test: the same code paths in well under a second.
    "tiny": {
        "witness-heavy": {"size": 2, "horizon": 2},
        "search-heavy": {"pool": 4, "shapes": [[3, 2], [3, 3]],
                         "windows": [2], "members": [3, 4]},
        "fuzz-mix": {"count": 1, "seeds": 4},
    },
}


def _verified(game, strategy) -> bool:
    return strategy is None or solver.verify(game, strategy).valid


def _outcome(game, markov: bool) -> dict:
    det = solver.solve(game)
    pre = solver.find_predetermined_one(game)
    out = {"winner": det.winner.value, "pre": pre is not None}
    checked = [det.witness, pre]
    if markov:
        table = solver.find_markov_two(game)
        out["markov"] = table is not None
        checked.append(table)
    if not all(_verified(game, s) for s in checked):
        raise SystemExit(f"a recorded strategy does not verify: {game}")
    return out


def record_witness_heavy(size: int, horizon: int) -> dict:
    base = workloads.discrete_point_open(size, horizon)
    requests = {}
    for perm in itertools.permutations(range(size)):
        game = scenarios.build_game(workloads.relabel(base, perm))
        requests[",".join(map(str, perm))] = _outcome(game, markov=True)
    return {"size": size, "horizon": horizon, "requests": requests}


def draw_window_scenario(rng: random.Random, shapes, windows, members) -> scenarios.Scenario:
    """A point-open-window game on a discrete space: 3-6 random nonempty
    proper subsets as family a, the singletons as family b."""
    size, horizon = rng.choice(shapes)
    full = (1 << size) - 1
    fam_a = rng.sample(range(1, full), rng.randint(*members))
    singles = [[i] for i in range(size)]
    return scenarios.scenario_from_json({
        "name": f"window-draw-{size}-h{horizon}",
        "space": {"size": size, "subbasis": singles},
        "families": {"a": [[i for i in range(size) if m >> i & 1] for m in fam_a],
                     "b": singles},
        "horizon": horizon,
        "flavor": "point-open-window",
        "params": {"w": rng.choice(windows)},
    })


def record_search_heavy(pool: int, shapes, windows, members) -> dict:
    rng = random.Random(POOL_SEED)
    entries = []
    for _ in range(pool):
        sc = draw_window_scenario(rng, shapes, windows, members)
        entries.append({"scenario": scenarios.scenario_to_json(sc),
                        "expected": _outcome(scenarios.build_game(sc), markov=False)})
    return {"pool_seed": POOL_SEED, "pool": entries}


def record_fuzz_mix(count: int, seeds: int) -> dict:
    digests = []
    for s in range(seeds):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fuzz", "--seed", str(s), "--count", str(count), "--json"])
        if code != 0:
            raise SystemExit(f"fuzz seed {s} exits {code}; not a clean request")
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    return {"count": count, "sha256": digests}


def record(size: str = "full") -> dict:
    s = SIZES[size]
    return {
        "recorded_at": run.git_commit(),
        "witness-heavy": record_witness_heavy(**s["witness-heavy"]),
        "search-heavy": record_search_heavy(**s["search-heavy"]),
        "fuzz-mix": record_fuzz_mix(**s["fuzz-mix"]),
    }


def main() -> int:
    data = record()
    with open(HERE / "expectations.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
