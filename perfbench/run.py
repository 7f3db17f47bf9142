"""Layered benchmark for selgames.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Runs each workload as a closed loop with one client: one request at a
time, in one single-threaded process, with the package imported from
``src/`` of this checkout.  Every answer is checked against the outcomes
that ``record.py`` wrote to ``expectations.json`` and every witness and
script is verified.  The report names each metric with its unit and
sample count; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every request passed, 1 when any failed (each failure is listed by
workload, request id and layer) and 2 when the benchmark could not run.

``--trace 0`` (the timed run) reports the end-to-end metrics:

- setup_s: fresh-process time from interpreter start to the first request
  being ready (import, input generation, building every game); the median
  over ``SETUP_PROBES`` fresh processes and the timed process itself.  The
  probes run before and after the timed process, so a slow spell of the
  machine does not set them all.
- op_p50_ms: median wall time of one request.
- op_tail_ms: the highest percentile of request wall time with at least
  ten samples beyond it, i.e. the eleventh-slowest request.
- op_p50_ref, op_tail_ref: the same two statistics of each request's wall
  time divided by the time of a fixed reference loop run just before it
  (``worker.reference_seconds``; its median is printed as reference_ms).
  Unit "ref": one run of that loop.  On a shared host whose speed
  drifts by a third within minutes these hold where the wall times do
  not, so they are the bounded latency metrics.
- peak_rss_mb: peak resident memory of the timed process.
- output_kb: canonical JSON produced per request.
- fail_ratio: failed requests / attempted (printed; the JSON carries it
  as ``failed`` and ``attempted``, since a ratio that is 0 when all is
  well cannot serve as a bounded metric).

The JSON line of a timed run carries the ``end_to_end`` metrics of
BENCHMARK.json.  The wall times op_p50_ms and op_tail_ms are reported but
not listed there: on a shared machine their run-to-run spread exceeds any
useful bound, while the same requests measured relative to the reference
loop hold.

``--trace 1`` (the traced run) runs the workload for half the time
untraced and half with every public layer function wrapped
(``tracing.py``), and reports per-layer metrics plus the tracing overhead,
traced minus untraced op_p50_ms (taken relative to the reference loop, since
the two halves run at different moments).  Its JSON line carries the
``per_layer`` metrics of BENCHMARK.json.  Every workload reports the same
names there, so a layer time is listed only if every workload spends some
of it (a layer one workload never calls would read 0 ms on every run);
the per-layer counts and ratios are all listed.  Its spans are written to
``perfbench/out/<workload>-spans.jsonl`` and every per-layer metric to
``perfbench/out/<workload>-layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9  # setup-only processes, half before and half after the timed one
WORKER_GRACE_S = 90  # beyond --seconds: a last pass, the checks, the exit

class BenchError(Exception):
    """The benchmark itself could not run (not a failed request)."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(workload: str, seed: int, expectations: str, *extra: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its JSON result plus setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--expectations", expectations, *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(samples) -> tuple:
    """(value, percentile, samples beyond): the eleventh-largest sample."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def timed_run(workload, seed, seconds, expectations) -> dict:
    def setup_probes(k):
        return [spawn(workload, seed, expectations, "--setup-only",
                      timeout=WORKER_GRACE_S)["setup_s"] for _ in range(k)]

    setup_probes(1)  # warm-up: lets the first run in a checkout compile
    setups = setup_probes(SETUP_PROBES // 2)
    res = spawn(workload, seed, expectations, "--seconds", str(seconds),
                timeout=seconds + WORKER_GRACE_S)
    setups += [res["setup_s"]] + setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    samples = res["samples_s"]
    relative = [t / r for t, r in zip(samples, res["reference_s"])]
    n = f"n={len(samples)}"
    value, pct, beyond = tail(samples)
    rel_value, rel_pct, _ = tail(relative)
    res["metrics"] = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
        "op_p50_ref": (statistics.median(relative), "ref", n),
        "op_tail_ref": (rel_value, "ref", f"p{rel_pct:.1f}, {beyond} samples beyond, {n}"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "1 process"),
        "output_kb": (sum(res["bytes"]) / len(samples) / 1024, "KB", n),
        "op_p50_ms": (statistics.median(samples) * 1000, "ms", n),
        "op_tail_ms": (value * 1000, "ms", f"p{pct:.1f}, {beyond} samples beyond, {n}"),
        "reference_ms": (statistics.median(res["reference_s"]) * 1000, "ms", n),
    }
    return res


def traced_run(workload, seed, seconds, expectations) -> dict:
    half = str(seconds / 2)
    plain = spawn(workload, seed, expectations, "--seconds", half,
                  timeout=seconds + WORKER_GRACE_S)
    OUT.mkdir(exist_ok=True)
    res = spawn(workload, seed, expectations, "--seconds", half, "--trace",
                "--spans", str(OUT / f"{workload}-spans.jsonl"),
                timeout=seconds + WORKER_GRACE_S)
    def p50_ref(r):
        return statistics.median(t / ref for t, ref in zip(r["samples_s"], r["reference_s"]))

    # The two processes run at different moments, so their raw p50s differ
    # by the machine's drift as well; compare them relative to the
    # reference loop and express the difference in ms at its median speed.
    ref_ms = statistics.median(plain["reference_s"] + res["reference_s"]) * 1000
    overhead = (p50_ref(res) - p50_ref(plain)) * ref_ms
    untraced = statistics.median(plain["samples_s"]) * 1000
    traced = statistics.median(res["samples_s"]) * 1000
    for f in res["failures"]:
        f["request"] += len(plain["samples_s"])  # ids follow the untraced requests
    res["failures"] += plain["failures"]
    res["failed"] += plain["failed"]
    res["passes"] += plain["passes"]
    res["traced_requests"] = len(res["samples_s"])
    res["samples_s"] = plain["samples_s"] + res["samples_s"]
    layers = {k: (v, unit, "") for k, (v, unit) in res["layers"].items()}
    layers["trace.overhead_ms"] = (
        overhead, "ms",
        f"traced - untraced p50, relative to a {ref_ms:.3f} ms reference"
        f" (raw p50 {traced:.3f} - {untraced:.3f}),"
        f" n={res['traced_requests']}/{len(plain['samples_s'])}")
    res["metrics"] = layers
    with open(OUT / f"{workload}-layers.json", "w", encoding="utf-8") as fh:
        json.dump({"layers": layers, "summary": res["summary"]}, fh, indent=1, sort_keys=True)
    return res


def report(workload, why, res, trace) -> None:
    """Print the report for one workload."""
    failures, failed = res["failures"], res["failed"]
    n = len(res["samples_s"])
    print(f"{workload}: {why}")
    print(f"  requests {n} in {res['passes']} passes (closed loop, 1 client, 1 thread),"
          f" failed {failed}")
    for name, (value, unit, note) in res["metrics"].items():
        print(f"  {name:<44} {value:14.6f} {unit:<6} {note}")
    print(f"  {'fail_ratio':<44} {failed / max(n, 1):14.6f} ratio  "
          f"{failed} failed / {n} attempted")
    by_layer: dict = {}
    for f in failures:
        counts = by_layer.setdefault(f["layer"], [0, 0])
        counts[0] += 1
        counts[1] += f["budget"]
    for layer, (count, budget) in sorted(by_layer.items()):
        print(f"  failures in {layer}: {count} ({budget} BudgetExceeded)")
    if trace:
        print("  per-layer spans (setup total | mean per request):"
              " calls, inclusive ms, self ms, raised, BudgetExceeded")
        for name, phases in sorted(res["summary"].items()):
            cells = []
            for phase in ("setup", "requests"):
                a = phases.get(phase)
                if a is None:
                    cells.append("-")
                    continue
                d = 1 if phase == "setup" else max(res["traced_requests"], 1)
                cells.append(f"{a['calls'] / d:.2f} {a['s'] * 1000 / d:.3f}"
                             f" {a['self_s'] * 1000 / d:.3f} {a['errors']} {a['budget_exceeded']}")
            print(f"    {name:<42} {cells[0]:<36} | {cells[1]}")
    for f in failures:
        flag = " (BudgetExceeded)" if f["budget"] else ""
        print(f"FAIL {workload} request {f['request']} [{f['layer']}]{flag}: {f['reason']}")


def main(argv=None) -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description="selgames layered benchmark")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expectations", default=str(HERE / "expectations.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED

    print(f"selgames benchmark: python {platform.python_version()},"
          f" nproc {len(os.sched_getaffinity(0))}, commit {git_commit()}, seed {args.seed},"
          f" seconds {args.seconds:g}, trace {args.trace}")
    listed = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    attempted, failed, metrics = 0, 0, {}
    try:
        for name in names:
            res = (traced_run if args.trace else timed_run)(
                name, args.seed, args.seconds, args.expectations)
            report(name, workloads.WORKLOADS[name].why, res, args.trace)
            failed += res["failed"]
            attempted += len(res["samples_s"])
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit, _note) in res["metrics"].items():
                if key in listed:
                    metrics[prefix + key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
