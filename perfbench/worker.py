"""One benchmark process: set a workload up, then serve requests.

``run.py`` starts this file in a fresh interpreter, so that setup time
counts from interpreter start.  It prints one JSON line: the monotonic
clock reading when the first request was ready and, unless ``--setup-only``
is given, the request samples, the reference time taken before each
request, failures and peak RSS.  With ``--trace``
the library is wrapped by ``tracing.install`` before setup and the line
also carries the per-layer metrics; the spans go to ``--spans``.

Requests run in whole passes over the prepared inputs (see
``workloads.py``) until ``--seconds`` have gone by and at least
``MIN_PASSES`` passes are done, so every input has more samples than the
ten that ``op_tail`` leaves beyond it, however slow the program runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 11


def reference_seconds() -> float:
    """Time of one fixed pure-Python loop, the best of three.

    Timed just before each request, it tracks how fast the host runs
    Python at that moment; on a shared 2-core host that speed was seen to
    drift by a third within minutes, so the bounded latency metrics are
    taken relative to it.  The loop allocates nothing the collector tracks.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--expectations", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    import selgames

    if not Path(selgames.__file__).resolve().is_relative_to(SRC):
        print(f"selgames imported from {selgames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(args.expectations, encoding="utf-8") as fh:
        spec = json.load(fh)[args.workload]
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, spec)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    clock = time.perf_counter
    step = workloads.Step()
    samples, refs, sizes, failures, failed = [], [], [], [], 0
    passes, done = workload.passes(), 0
    deadline = clock() + args.seconds
    while clock() < deadline or done < MIN_PASSES:
        done += 1
        for req in next(passes):
            i = len(samples)
            refs.append(reference_seconds())
            if tracer:
                tracer.request = i
            elapsed, nbytes, answer, fails = workloads.timed(workload, req, i, step, clock)
            if tracer:
                tracer.request = None
            if not fails:
                fails = workloads.checked(workload, req, answer, i, step)
            samples.append(elapsed)
            sizes.append(nbytes)
            failures += fails
            failed += bool(fails)

    result = {
        "ready": ready,
        "passes": done,
        "samples_s": samples,
        "reference_s": refs,
        "bytes": sizes,
        "failures": [vars(f) for f in failures],
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from selgames.fuzzing import GATED_SUITES

        summary = tracing.summarize(tracer)
        result["summary"] = summary
        result["layers"] = tracing.layer_metrics(tracer, summary, len(samples), GATED_SUITES)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
