"""The benchmark's traced run wraps library functions by name."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
