"""Command-line front end.

Exit codes: 0 clean, 1 usage error, 2 violations or failed verification,
3 search budget exhausted.  ``--json`` switches every command to the
canonical machine-readable form used by the fuzz reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .duality import check_duality
from .errors import (
    AxiomsFail,
    BudgetExceeded,
    InvalidCount,
    SelGamesError,
)
from .fuzzing import GATED_SUITES, fuzz
from .orders import lift_omega_cof, relative_cofinality
from .scenarios import (
    CORPUS_EXPECTATIONS,
    build_game,
    corpus,
    load_scenario,
    scenario_from_json,
)
from .serialize import (
    _item_to_json,
    canonical_dumps,
    decoding,
    load_json,
    pack_from_json,
    rel_pair_from_json,
    strategy_from_json,
    strategy_to_json,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    MAX_EXHIBITS,
    Search,
    find_markov_two,
    find_predetermined_one,
    solve,
    verify,
)
from .transforms import Direction, apply_translation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(payload: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        sys.stdout.write(canonical_dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_solve(args) -> int:
    sc = load_scenario(args.scenario)
    game = build_game(sc, horizon=args.horizon)
    det = solve(game)
    payload = {
        "scenario": sc.name,
        "winner": det.winner.value,
        "nodes_explored": det.nodes_explored,
        "memo_hits": det.memo_hits,
        "witness": strategy_to_json(det.witness, game.kind),
    }
    _emit(
        payload,
        args.json,
        [
            f"{sc.name}: winner {det.winner.value}"
            f" ({det.nodes_explored} nodes, {det.memo_hits} memo hits)"
        ],
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    sc = load_scenario(args.scenario)
    game = build_game(sc, horizon=args.horizon)
    if args.kind == "pre-one":
        strategy = find_predetermined_one(game, node_budget=args.budget)
    else:
        strategy = find_markov_two(game, node_budget=args.budget)
    if strategy is None:
        _emit({"scenario": sc.name, "strategy": None}, args.json,
              [f"{sc.name}: no winning {args.kind} strategy"])
        return EXIT_OK
    payload = {
        "scenario": sc.name,
        "strategy": strategy_to_json(strategy, game.kind),
    }
    _emit(payload, args.json, [f"{sc.name}: {args.kind} strategy found",
                               canonical_dumps(payload["strategy"]).rstrip()])
    return EXIT_OK


def _cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    game = build_game(sc, horizon=args.horizon)
    strategy = strategy_from_json(load_json(args.strategy))
    report = verify(game, strategy, max_exhibits=args.max_exhibits)
    payload = {
        "scenario": sc.name,
        "valid": report.valid,
        "side": report.side.value,
        "plays_checked": report.plays_checked,
        "counter_plays": [
            {
                "one_moves": list(rec.one_moves),
                "two_selections": [_item_to_json(x) for x in rec.two_selections],
            }
            for rec in report.counter_plays
        ],
    }
    lines = [
        f"{sc.name}: strategy {'valid' if report.valid else 'INVALID'}"
        f" ({report.plays_checked} plays checked)"
    ]
    for rec in report.counter_plays:
        lines.append(f"  counter-play: moves {rec.one_moves} -> {rec.two_selections}")
    _emit(payload, args.json, lines)
    return EXIT_OK if report.valid else EXIT_VIOLATIONS


def _cmd_duality(args) -> int:
    data = load_json(args.pair)
    with decoding("pair"):
        left = scenario_from_json(data["left"])
        right = scenario_from_json(data["right"])
    g_left = build_game(left, horizon=args.horizon)
    g_right = build_game(right, horizon=args.horizon)
    report = check_duality(g_left, g_right)
    payload = {
        "left": left.name,
        "right": right.name,
        "clauses": report.clauses,
        "facts": report.facts,
        "all_hold": report.all_hold,
    }
    _emit(
        payload,
        args.json,
        [
            f"{left.name} vs {right.name}: "
            + ("dual (all clauses hold)" if report.all_hold else "duality FAILS"),
        ],
    )
    return EXIT_OK if report.all_hold else EXIT_VIOLATIONS


def _cmd_translate(args) -> int:
    pack = pack_from_json(load_json(args.pack))
    src = build_game(load_scenario(args.src))
    dst = build_game(load_scenario(args.dst))
    direction = Direction(args.direction)
    strategy = strategy_from_json(load_json(args.input)) if args.input else None
    out = apply_translation(pack, src, dst, direction, strategy, args.budget)
    if out is None:
        _emit({"transferred": None, "reason": "no winning input strategy"},
              args.json, ["nothing to transfer: no winning input strategy"])
        return EXIT_OK
    # the axioms hold only between single-kind games
    payload = {"direction": direction.value, "transferred": strategy_to_json(out)}
    _emit(payload, args.json,
          [f"transferred {direction.value} strategy verifies as winning"])
    return EXIT_OK


def _cmd_cofinality(args) -> int:
    pair = rel_pair_from_json(load_json(args.pair))
    value = relative_cofinality(pair)
    lifted = lift_omega_cof(value, b_empty=not pair.sub_b)
    payload = {"cofinality": repr(value), "lifted_over_counter": repr(lifted)}
    _emit(payload, args.json,
          [f"relative cofinality: {value!r}",
           f"lifted over an unbounded counter: {lifted!r}"])
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    report = fuzz(
        seed=args.seed,
        count=args.count,
        suites=tuple(args.suite) if args.suite else None,
        node_budget=args.budget,
    )
    payload = report.to_json()
    lines = [
        f"seed {report.seed}, {report.count} instances per suite",
    ]
    for name, r in report.results.items():
        lines.append(
            f"  {name}: {r.instances} instances, {len(r.violations)} violations,"
            f" {r.budget_exceeded} budget-exceeded, {len(r.findings)} findings"
        )
    lines.append(
        f"total: {report.total_violations} violations,"
        f" {report.total_budget_exceeded} budget-exceeded"
    )
    _emit(payload, args.json, lines)
    if report.total_violations:
        return EXIT_VIOLATIONS
    if report.total_budget_exceeded:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_corpus(args) -> int:
    scenarios = corpus()
    if args.action == "list":
        payload = {"scenarios": [sc.name for sc in scenarios]}
        _emit(payload, args.json, [sc.name for sc in scenarios])
        return EXIT_OK
    failures = []
    lines = []
    for sc in scenarios:
        game = build_game(sc)
        searches = Search(game)
        det = searches.solve()
        pre = searches.find_predetermined_one()
        markov = searches.find_markov_two()
        expected = CORPUS_EXPECTATIONS[sc.name]
        got = (det.winner.value, pre is not None, markov is not None)
        ok = got == expected and searches.verify(det.witness).valid
        lines.append(f"{'PASS' if ok else 'FAIL'} {sc.name}: winner {got[0]},"
                     f" pre {got[1]}, markov {got[2]}")
        if not ok:
            failures.append({"scenario": sc.name, "expected": list(expected),
                             "got": list(got)})
    payload = {"checked": len(scenarios), "failures": failures}
    _emit(payload, args.json, lines)
    return EXIT_VIOLATIONS if failures else EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parsing never mutates it, so every
    call of ``main`` reuses it."""
    parser = _Parser(prog="selgames",
                     description="finite selection-game laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="determine the winner of a scenario")
    p.add_argument("scenario")
    p.add_argument("--horizon", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("synth", help="synthesize a limited-information strategy")
    p.add_argument("kind", choices=["pre-one", "markov-two"])
    p.add_argument("scenario")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_NODE_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="verify a strategy file against a scenario")
    p.add_argument("scenario")
    p.add_argument("strategy")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--max-exhibits", type=_non_negative_int, default=MAX_EXHIBITS)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("duality", help="check the duality clauses for a scenario pair")
    p.add_argument("pair")
    p.add_argument("--horizon", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("translate", help="transfer a strategy along a pack")
    p.add_argument("pack")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--direction", required=True,
                   choices=[d.value for d in Direction])
    p.add_argument("--input", default=None, help="strategy file; synthesized if omitted")
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_NODE_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("cofinality", help="relative cofinality of an order pair")
    p.add_argument("pair")
    common(p)
    p.set_defaults(func=_cmd_cofinality)

    p = sub.add_parser("fuzz", help="run seeded property suites")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--suite", action="append", choices=list(GATED_SUITES))
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_NODE_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("corpus", help="list or run the canned scenarios")
    p.add_argument("action", choices=["list", "run"])
    common(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AxiomsFail as exc:
        print(f"translation axioms fail: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except InvalidCount as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SelGamesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
