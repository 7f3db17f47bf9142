"""The benchmark's traced run wraps library functions by name, and its
fuzz-mix answers are the sha256 values it recorded."""

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

from selgames.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
    recorded = json.loads((PERFBENCH / "expectations.json").read_text(encoding="utf-8"))
    fuzz_mix = recorded["fuzz-mix"]
    for seed in range(0, 256, 17):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fuzz", "--seed", str(seed), "--count", str(fuzz_mix["count"]),
                         "--json"])
        assert code == 0, seed
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == fuzz_mix["sha256"][seed], seed
