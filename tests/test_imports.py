"""Every name a library module imports is used in that module, and every
import sits at module level.

The package's ``__init__`` is exempt from the first rule: its imports are
the public names it re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "selgames"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def nested_imports(source: str) -> list[int]:
    """The lines of the imports made inside a function body."""
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_library_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Optional, Union\n"
        "def f(x: Optional[int]) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Union (line 3)", "system (line 2)"]


def test_library_modules_import_at_module_level():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {p.name: nested_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_a_nested_import_is_found():
    source = (
        "import os\n"
        "def f():\n"
        "    from json import dumps\n"
        "    def g():\n"
        "        import sys\n"
        "    return dumps\n"
    )
    assert nested_imports(source) == [3, 5]
