"""Per-layer tracing for the traced run.

``install`` wraps the public functions named in ``TRACED`` and every
entry of ``fuzzing.SUITES``, rebinding each name in every ``selgames``
module that holds it, so calls made inside the library are traced as
well as the benchmark's own.  Each call records a span: name, start,
end, parent span, request id, the exception it raised (if any) and a
few counts read off its result.  Spans stay in memory; ``write_spans``
saves them when the run ends and ``layer_metrics`` reduces them to the
per-layer numbers.

The timed run never imports this module, so it measures the package
unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, function, counts read off the result)
TRACED = {
    "scenarios.build_game": ("scenarios", "build_game", None),
    "ground.build_topology": ("ground", "build_topology", None),
    "ground.min_covers": ("ground", "min_covers", None),
    "game.make_game": ("game", "make_game", None),
    "game.play": ("game", "play", None),
    "solver.solve": ("solver", "solve", lambda d: {
        "nodes": d.nodes_explored, "memo_hits": d.memo_hits,
        "witness_rows": len(d.witness.table)}),
    "solver.verify": ("solver", "verify", lambda r: {"plays": r.plays_checked}),
    "solver.find_predetermined_one": ("solver", "find_predetermined_one", None),
    "solver.find_markov_two": ("solver", "find_markov_two", None),
    "serialize.strategy_to_json": ("serialize", "strategy_to_json", None),
    "serialize.canonical_dumps": ("serialize", "canonical_dumps",
                                  lambda s: {"bytes": len(s.encode())}),
    "serialize.strategy_from_json": ("serialize", "strategy_from_json", None),
    "duality.check_duality": ("duality", "check_duality", None),
    "orders.relative_cofinality": ("orders", "relative_cofinality", None),
    "orders.check_tukey_map": ("orders", "check_tukey_map", None),
    "orders.brute_tukey_oracle": ("orders", "brute_tukey_oracle", None),
    "transforms.apply_translation": ("transforms", "apply_translation", None),
    "transforms.check_translation_axioms": ("transforms", "check_translation_axioms", None),
    "cli.main": ("cli", "main", None),
}


def _suite_counts(result) -> dict:
    return {"instances": result.instances, "attempts": result.attempts,
            "budget_exceeded": result.budget_exceeded}


class Tracer:
    """Span recorder.  ``request`` is the id spans are charged to: "setup"
    before the first request, the request's index during its timed part,
    and None while its answers are checked (those calls are not recorded)."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, request, error, counts]
        self.stack: list = []
        self.request = "setup"

    def wrap(self, name, fn, counts=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else None,
                    self.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[6] = counts(result)
            return result

        return functools.wraps(fn)(traced)


def _rebind(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "selgames" or modname.startswith("selgames."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install() -> Tracer:
    """Import selgames and wrap every traced function; return the tracer."""
    from selgames import fuzzing

    tracer = Tracer()
    modules = {m: importlib.import_module(f"selgames.{m}") for m, _, _ in TRACED.values()}
    for name, (modname, fn, counts) in TRACED.items():
        original = getattr(modules[modname], fn)
        _rebind(original, tracer.wrap(name, original, counts))
    for suite, original in list(fuzzing.SUITES.items()):
        wrapper = tracer.wrap(f"fuzzing.{suite}", original, _suite_counts)
        _rebind(original, wrapper)
        fuzzing.SUITES[suite] = wrapper
    return tracer


def write_spans(tracer: Tracer, path) -> None:
    keys = ("name", "start", "end", "parent", "request", "error", "counts")
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per span name and phase ("setup" or "requests"): calls, inclusive
    and self seconds, exceptions raised, BudgetExceeded raised, and the
    summed result counts.  Self time is a span minus its direct children."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    out: dict = {}
    for i, (name, start, end, _parent, request, error, counts) in enumerate(spans):
        phase = "setup" if request == "setup" else "requests"
        agg = out.setdefault(name, {}).setdefault(phase, {
            "calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
            "budget_exceeded": 0, "counts": {}})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        if error is not None:
            agg["errors"] += 1
            agg["budget_exceeded"] += error == "BudgetExceeded"
        for key, value in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out


def child_seconds(tracer: Tracer, parent_name: str, child_name: str) -> float:
    """Seconds spent in ``child_name`` spans directly under ``parent_name``,
    outside the setup phase."""
    spans = tracer.spans
    return sum(
        end - start
        for name, start, end, parent, request, _e, _c in spans
        if name == child_name and parent is not None
        and spans[parent][0] == parent_name and request != "setup"
    )


def layer_metrics(tracer: Tracer, summary: dict, requests: int, suites) -> dict:
    """The per-layer metrics, name -> (value, unit).

    A time or count is what one setup spends plus what one request spends
    on average, so layers used only while building games still show.
    Ratios are taken over every call in the run.
    ``summary`` is ``summarize(tracer)``.
    """
    n = max(requests, 1)

    def per_run(name, field="s", key=None):
        value = 0.0
        for phase, agg in summary.get(name, {}).items():
            x = agg["counts"].get(key, 0) if key else agg[field]
            value += x if phase == "setup" else x / n
        return value

    def raw(name, key):
        return sum(agg["counts"].get(key, 0) for agg in summary.get(name, {}).values())

    def ms(*names):
        return (sum(per_run(name) for name in names) * 1000, "ms")

    def count(name, field="calls", key=None):
        return (per_run(name, field, key), "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m = {
        "solver.solve.ms": ms("solver.solve"),
        "solver.solve.calls": count("solver.solve"),
        "solver.solve.nodes": count("solver.solve", key="nodes"),
        "solver.solve.memo_hits": count("solver.solve", key="memo_hits"),
        "solver.solve.witness_rows": count("solver.solve", key="witness_rows"),
        "solver.solve.rows_per_node": ratio(raw("solver.solve", "witness_rows"),
                                            raw("solver.solve", "nodes")),
        "solver.verify.ms": ms("solver.verify"),
        "solver.verify.plays": count("solver.verify", key="plays"),
        "solver.find_predetermined_one.ms": ms("solver.find_predetermined_one"),
        "solver.find_predetermined_one.calls": count("solver.find_predetermined_one"),
        "solver.find_markov_two.ms": ms("solver.find_markov_two"),
        "solver.find_markov_two.solve_ms": (
            child_seconds(tracer, "solver.find_markov_two", "solver.solve") * 1000 / n, "ms"),
        "solver.find_markov_two.budget_exceeded": count(
            "solver.find_markov_two", field="budget_exceeded"),
        "serialize.dump.ms": ms("serialize.strategy_to_json", "serialize.canonical_dumps"),
        "serialize.dump.kb": (per_run("serialize.canonical_dumps", key="bytes") / 1024, "KB"),
        "serialize.parse.ms": ms("serialize.strategy_from_json"),
        "scenarios.build_game.ms": ms("scenarios.build_game"),
        "ground.build_topology.ms": ms("ground.build_topology"),
        "ground.build_topology.calls": count("ground.build_topology"),
        "ground.min_covers.ms": ms("ground.min_covers"),
        "ground.min_covers.calls": count("ground.min_covers"),
        "game.make_game.ms": ms("game.make_game"),
        "game.make_game.calls": count("game.make_game"),
        "game.play.ms": ms("game.play"),
        "game.play.calls": count("game.play"),
        "duality.check_duality.ms": ms("duality.check_duality"),
        "duality.check_duality.calls": count("duality.check_duality"),
        "orders.relative_cofinality.ms": ms("orders.relative_cofinality"),
        "orders.tukey.ms": ms("orders.check_tukey_map", "orders.brute_tukey_oracle"),
        "transforms.apply_translation.ms": ms("transforms.apply_translation"),
        "transforms.check_translation_axioms.ms": ms("transforms.check_translation_axioms"),
        "cli.main.ms": ms("cli.main"),
    }
    for suite in suites:
        name = f"fuzzing.{suite}"
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.accept_ratio"] = ratio(raw(name, "instances"), raw(name, "attempts"))
    return m
