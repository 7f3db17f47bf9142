"""The benchmark's workloads: inputs from a seed, one request, its checks.

A workload is prepared once per process (``prepare``: build every game
the run can ask for) and then serves requests one at a time, a closed
loop with one client.  ``passes`` yields the requests of one pass over
the prepared inputs; the loop in ``worker.py`` runs whole passes until
its time is up and ``worker.MIN_PASSES`` are done, so every run sees the
same mix of inputs.

A request's timed part returns the bytes of canonical JSON it produced.
Its checks run untimed afterwards and compare the answers with the
outcomes recorded in ``expectations.json`` (see ``record.py``) and
verify every witness and script.  Each check that fails, and each
exception a request raises, becomes a ``Failure`` naming the layer it
came from.

Library functions are always looked up through their module
(``solver.solve``), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass

from selgames import cli, scenarios, serialize, solver
from selgames.errors import BudgetExceeded

DEFAULT_SEED = 42


@dataclass
class Failure:
    request: int
    layer: str
    reason: str
    budget: bool = False  # the failure is a BudgetExceeded


class Step:
    """Which layer a request is in, so an exception can be charged to it."""

    def __init__(self) -> None:
        self.layer = "bench"


def _dump(strategy, kind) -> str:
    return serialize.canonical_dumps(serialize.strategy_to_json(strategy, kind))


def relabel(sc: scenarios.Scenario, perm) -> scenarios.Scenario:
    """The same scenario with ground item i renamed perm[i].

    Renaming points is a symmetry of a discrete space, so winners and the
    existence of scripts and Markov tables do not change.
    """

    def move(mask: int) -> int:
        return sum(1 << perm[i] for i in range(sc.space_size) if mask >> i & 1)

    return scenarios.Scenario(
        name=sc.name,
        space_size=sc.space_size,
        subbasis=tuple(sorted(move(m) for m in sc.subbasis)),
        fam_a=tuple(move(m) for m in sc.fam_a),
        fam_b=tuple(move(m) for m in sc.fam_b),
        horizon=sc.horizon,
        flavor=sc.flavor,
        params=dict(sc.params),
    )


def discrete_point_open(size: int, horizon: int) -> scenarios.Scenario:
    singles = [[i] for i in range(size)]
    return scenarios.scenario_from_json({
        "name": f"point-open-discrete-{size}-h{horizon}",
        "space": {"size": size, "subbasis": singles},
        "families": {"a": singles, "b": singles},
        "horizon": horizon,
        "flavor": "point-open-o",
        "params": {},
    })


class Verified:
    """Strategies already verified on each prepared input, by canonical JSON.

    Verification is exhaustive and deterministic, so a strategy equal to
    one that verified on the same input verifies again; only new ones are
    checked, which keeps the untimed part of a request short.  Keeping the
    text rather than the strategy keeps the benchmark's own heap small.
    """

    def __init__(self) -> None:
        self.seen: dict = {}

    def valid(self, key, game, strategy, text=None) -> bool:
        text = text or _dump(strategy, game.kind)
        known = self.seen.setdefault(key, set())
        if text in known:
            return True
        if solver.verify(game, strategy).valid:
            known.add(text)
            return True
        return False


_ANSWER_LAYER = {
    "winner": "solver.solve",
    "pre": "solver.find_predetermined_one",
    "markov": "solver.find_markov_two",
}


def _check_outcome(step, verified, key, expected, winner, pre, markov, game):
    """(layer, reason) for each answer that differs from the recorded one
    and each synthesized strategy that does not verify."""
    got = {"winner": winner, "pre": pre is not None}
    if "markov" in expected:
        got["markov"] = markov is not None
    bad = [(_ANSWER_LAYER[k], f"{k} {got[k]!r}, recorded {expected[k]!r}")
           for k in sorted(got) if got[k] != expected[k]]
    for label, strategy in (("script", pre), ("Markov table", markov)):
        if strategy is not None:
            step.layer = "solver.verify"
            if not verified.valid(key, game, strategy):
                bad.append(("solver.verify", f"{label} does not verify"))
    return bad


class WitnessHeavy:
    name = "witness-heavy"
    # Point-open discrete d4, h5, items relabelled per request.  Memo
    # states are few (246) but the history-table witness has 2,801 rows
    # and verifying it plays 16,807 plays, so witness extraction,
    # verification and JSON dominate and determination is a few percent.
    # Also runs find_markov_two, which builds and discards a witness.
    why = ("point-open discrete d4 h5: few memo states, a 2,801-row witness"
           " and 16,807 verified plays, so extraction, verify and JSON dominate")

    def prepare(self, seed: int, spec: dict):
        base = discrete_point_open(spec["size"], spec["horizon"])
        self.expected = spec["requests"]
        self.verified = Verified()
        self.rng = random.Random(f"{seed}/{self.name}")
        self.inputs = []
        for perm in itertools.permutations(range(spec["size"])):
            key = ",".join(map(str, perm))
            self.inputs.append((key, scenarios.build_game(relabel(base, perm))))

    def passes(self):
        while True:
            yield [self.rng.choice(self.inputs)]

    def run(self, req, step):
        _, game = req
        step.layer = "solver.solve"
        det = solver.solve(game)
        step.layer = "serialize.dump"
        text = _dump(det.witness, game.kind)
        step.layer = "serialize.parse"
        witness = serialize.strategy_from_json(json.loads(text))
        step.layer = "solver.verify"
        report = solver.verify(game, witness)
        step.layer = "solver.find_predetermined_one"
        pre = solver.find_predetermined_one(game)
        step.layer = "solver.find_markov_two"
        markov = solver.find_markov_two(game)
        return len(text.encode()), (det.winner.value, report.valid, pre, markov)

    def check(self, req, answer, step):
        """(layer, reason[, budget]) for each failed check."""
        key, game = req
        winner, witness_valid, pre, markov = answer
        bad = [] if witness_valid else [("solver.verify", "round-tripped witness does not verify")]
        return bad + _check_outcome(step, self.verified, key, self.expected[key],
                                    winner, pre, markov, game)


class SearchHeavy:
    name = "search-heavy"
    # Seeded draws of point-open-window games (d3 h5-h6 or d4 h5, w in
    # {2,3}, 3-6 random proper subsets as family a).  A window target is
    # neither order-insensitive nor set-determined, so the memo is keyed on
    # full histories: determination and script search dominate, witnesses
    # stay small, and per-request cost spans three orders of magnitude.
    # The 25 draws are recorded with their outcomes; the seed relabels the
    # items of each and shuffles every pass.  An odd pool served in whole
    # passes puts the median inside one draw's samples, and the worker's
    # minimum of eleven passes puts the tail inside the heaviest draw's, so
    # neither jumps between draws from run to run.
    why = ("point-open-window draws: memo keyed on full histories, so"
           " determination and script search dominate and witnesses are small")

    def prepare(self, seed: int, spec: dict):
        self.rng = random.Random(f"{seed}/{self.name}")
        self.verified = Verified()
        self.inputs = []
        for i, entry in enumerate(spec["pool"]):
            sc = scenarios.scenario_from_json(entry["scenario"])
            perm = list(range(sc.space_size))
            self.rng.shuffle(perm)
            self.inputs.append((i, entry["expected"], scenarios.build_game(relabel(sc, perm))))

    def passes(self):
        while True:
            order = list(self.inputs)
            self.rng.shuffle(order)
            yield order

    def run(self, req, step):
        game = req[-1]
        step.layer = "solver.solve"
        det = solver.solve(game)
        step.layer = "serialize.dump"
        text = _dump(det.witness, game.kind)
        step.layer = "solver.find_predetermined_one"
        pre = solver.find_predetermined_one(game)
        return len(text.encode()), (det, text, pre)

    def check(self, req, answer, step):
        key, expected, game = req
        det, text, pre = answer
        step.layer = "solver.verify"
        bad = ([] if self.verified.valid(key, game, det.witness, text)
               else [("solver.verify", "witness does not verify")])
        return bad + _check_outcome(step, self.verified, key, expected,
                                    det.winner.value, pre, None, game)


class FuzzMix:
    name = "fuzz-mix"
    # `selgames fuzz --json` in process over the gated suites for
    # consecutive seeds: thousands of tiny instances, so the fixed cost of
    # every call (make_game hint sampling, build_topology, min_covers,
    # orders, duality, transforms, rejection loops) dominates.  The only
    # workload that covers cli, orders, duality and transforms.
    why = ("in-process fuzz --json over the gated suites: thousands of tiny"
           " instances, so per-call fixed costs dominate")

    def prepare(self, seed: int, spec: dict):
        self.expected = spec["sha256"]
        self.count = spec["count"]
        self.next = random.Random(f"{seed}/{self.name}").randrange(len(self.expected))

    def passes(self):
        while True:
            s = self.next % len(self.expected)
            self.next += 1
            yield [(s, ["fuzz", "--seed", str(s), "--count", str(self.count), "--json"])]

    def run(self, req, step):
        step.layer = "cli.main"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(req[1])
        out = buf.getvalue().encode()
        return len(out), (code, out)

    def check(self, req, answer, step):
        code, out = answer
        bad = []
        if code != 0:
            # Charge the failure to the suites the report blames, and keep
            # budget exhaustion apart from violations.
            try:
                results = json.loads(out)["results"]
            except (ValueError, KeyError):
                results = {}
            for suite, r in sorted(results.items()):
                if r["budget_exceeded"]:
                    bad.append((f"fuzzing.{suite}",
                                f"{r['budget_exceeded']} BudgetExceeded", True))
                if r["violations"]:
                    bad.append((f"fuzzing.{suite}", f"{len(r['violations'])} violations"))
            bad = bad or [("cli.main", f"exit code {code}")]
        if hashlib.sha256(out).hexdigest() != self.expected[req[0]]:
            bad.append(("cli.main", f"stdout of seed {req[0]} differs from the recorded sha256"))
        return bad


WORKLOADS = {w.name: w for w in (WitnessHeavy, SearchHeavy, FuzzMix)}


def _failure(request_id: int, layer: str, exc: Exception) -> Failure:
    return Failure(request_id, layer, f"{type(exc).__name__}: {exc}",
                   isinstance(exc, BudgetExceeded))


def timed(workload, req, request_id: int, step: Step, clock):
    """The timed part of one request: (seconds, output bytes, answer, failures).

    It ends with a full garbage collection, so the cycles a request leaves
    behind are reclaimed on its own clock rather than on a later request's,
    and every request starts from the same heap.
    """
    start = clock()
    try:
        nbytes, answer = workload.run(req, step)
        step.layer = "bench.gc"
        gc.collect()
    except Exception as exc:  # any exception fails the request; keep serving
        return clock() - start, 0, None, [_failure(request_id, step.layer, exc)]
    return clock() - start, nbytes, answer, []


def checked(workload, req, answer, request_id: int, step: Step) -> list:
    """The untimed checks of one request's answer: its failures."""
    try:
        bad = workload.check(req, answer, step)
    except Exception as exc:  # a check that raises is a failed check
        return [_failure(request_id, step.layer, exc)]
    return [Failure(request_id, *item) for item in bad]
