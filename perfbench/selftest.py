"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Records tiny expectations (``record.record("tiny")``) under
``perfbench/out/selftest/`` and checks that:

- a timed run of every workload passes and reports every ``end_to_end``
  metric of BENCHMARK.json, in its text report and on the JSON line, and
  the wall times and fail ratio in its text report;
- a traced run reports every metric of ``tracing.layer_metrics`` and every
  ``per_layer`` metric of BENCHMARK.json in its text report, and the
  latter on the JSON line;
- a tampered expectation on each workload is counted as a failed request,
  listed by workload, and makes the command exit 1;
- a request that raises BudgetExceeded, or a fuzz report that counts one,
  fails, charged to its layer and marked as a budget failure;
- without the package sources the command exits nonzero and prints no
  result.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "selftest"

import record  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from selgames.errors import BudgetExceeded  # noqa: E402
from selgames.fuzzing import GATED_SUITES  # noqa: E402

# End-to-end metrics the report prints besides those BENCHMARK.json bounds.
REPORTED_ONLY = ("op_p50_ms", "op_tail_ms", "fail_ratio")


def bench(*args, cwd=ROOT, expectations=None):
    """Run run.py; (exit code, report lines, parsed JSON line or None)."""
    cmd = [sys.executable, "perfbench/run.py", *args]
    if expectations:
        cmd += ["--expectations", str(expectations)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def reported(lines, workload) -> set:
    """Metric names printed in the report section of one workload."""
    names, inside = set(), False
    for line in lines:
        if not line.startswith(" "):
            inside = line.startswith(workload + ":")
        elif inside and line.startswith("  ") and not line.startswith("   "):
            names.add(line.split()[0])
    return names


def main() -> int:
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAILED: {what}")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    good = WORK / "expectations.json"
    good.write_text(json.dumps(record.record("tiny")))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    layers = set(tracing.layer_metrics(tracing.Tracer(), {}, 0, GATED_SUITES))

    code, lines, result = bench("--seconds", "0.5", expectations=good)
    expect(code == 0 and result and result["correct"] and result["failed"] == 0,
           f"timed run is clean (exit {code})")
    for w in workloads.WORKLOADS:
        missing = (end_to_end | set(REPORTED_ONLY)) - reported(lines, w)
        expect(not missing, f"{w}: end-to-end metrics reported, missing {sorted(missing)}")
        for name in end_to_end:
            expect(result and f"{w}.{name}" in result["metrics"], f"{w}: {name} on the JSON line")

    code, lines, result = bench("--seconds", "1", "--trace", "1", expectations=good)
    expect(code == 0 and result and result["correct"], f"traced run is clean (exit {code})")
    for w in workloads.WORKLOADS:
        missing = (per_layer | layers) - reported(lines, w)
        expect(not missing, f"{w}: per-layer metrics reported, missing {sorted(missing)}")
        for name in per_layer:
            expect(result and f"{w}.{name}" in result["metrics"], f"{w}: {name} on the JSON line")

    data = json.loads(good.read_text())
    for entry in data["witness-heavy"]["requests"].values():
        entry["winner"] = "two" if entry["winner"] == "one" else "one"
    data["search-heavy"]["pool"][0]["expected"]["pre"] ^= True
    data["fuzz-mix"]["sha256"][0] = "0" * 64
    tampered = WORK / "tampered.json"
    tampered.write_text(json.dumps(data))
    for w in workloads.WORKLOADS:
        code, lines, result = bench("--workload", w, "--seconds", "0.5", expectations=tampered)
        expect(code == 1 and result and not result["correct"] and result["failed"] >= 1,
               f"{w}: tampered expectation counted as a failure (exit {code})")
        expect(any(line.startswith(f"FAIL {w} request ") for line in lines),
               f"{w}: failure listed by workload and request id")

    class OutOfBudget:
        def run(self, req, step):
            step.layer = "solver.find_markov_two"
            raise BudgetExceeded("node budget exhausted")

    *_, fails = workloads.timed(OutOfBudget(), None, 7, workloads.Step(), time.perf_counter)
    expect([(f.request, f.layer, f.budget) for f in fails]
           == [(7, "solver.find_markov_two", True)], "BudgetExceeded fails the request")

    fuzz = workloads.FuzzMix()
    fuzz.prepare(0, {"sha256": ["0" * 64], "count": 1})
    report = {"results": {"gamma": {"budget_exceeded": 2, "violations": []}}}
    bad = fuzz.check((0, []), (3, json.dumps(report).encode()), workloads.Step())
    expect(("fuzzing.gamma", "2 BudgetExceeded", True) in bad,
           "a fuzz run out of budget fails, charged to its suite")

    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, result = bench("--workload", "fuzz-mix", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, f"without sources: exit {code}, no result")

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
