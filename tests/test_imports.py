"""Every name a library module imports is used in that module, every
import sits at module level, every private module-level name is used
somewhere in the package, and every public function, class and method
has a caller outside the tests.

The package's ``__init__`` is exempt from the first rule: its imports are
the public names it re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selgames"

# public names no caller outside the tests reaches yet, each kept for the
# ROADMAP item that will call it
AWAITING_CALLERS = {
    "ground: all_topologies": "items 2 and 7: the oracle and the census",
    "ground: nonempty_opens_family": "item 7: the census",
    "serialize: pack_to_json": "item 7: the census",
}


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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level names starting with a single underscore that no
    module refers to outside their own definition, as ``module: name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}  # (module, name) -> the lines of its definition
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = range(node.lineno, node.end_lineno + 1)
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            used.update(
                key for key, lines in defined.items()
                if key[1] == name and not (key[0] == module and node.lineno in lines)
            )
    return sorted(f"{module}: {name}" for module, name in defined.keys() - used)


def _bindings(tree: ast.AST, modules: set[str], exported: dict) -> tuple[dict, dict]:
    """What the imports of ``tree`` bind: each local name bound to a
    package module's function or class, as ``{local: (module, name)}``, and
    each bound to a package module, as ``{local: module}``.  It reads
    ``from .m import x``, ``from selgames.m import x``, and ``from . import
    x`` or ``from selgames import x``, where ``x`` is a module or a name
    the package ``exported`` from one."""
    names, mods = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module or ""
        elif node.level == 0 and node.module and node.module.split(".")[0] == "selgames":
            source = node.module.removeprefix("selgames").removeprefix(".")
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source in modules:
                names[local] = (source, alias.name)
            elif source == "" and alias.name in modules:
                mods[local] = alias.name
            elif source == "" and alias.name in exported:
                names[local] = exported[alias.name]
    return names, mods


def _traced(tree: ast.AST) -> set[tuple[str, str]]:
    """The ``(module, function)`` pairs quoted in a ``TRACED`` table of
    ``span -> (module, function, counts)``, which are looked up by getattr."""
    return {
        (entry.elts[0].value, entry.elts[1].value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        for entry in node.value.values
        if isinstance(entry, ast.Tuple) and isinstance(entry.elts[1], ast.Constant)
    }


def unreferenced_public_names(sources: dict[str, str], callers: list[str]) -> list[str]:
    """The public module-level functions and classes of the package's
    ``sources``, and the public methods of its classes, that nothing refers
    to, as ``module: name`` or ``module: Class.method``.  A function or class
    is referred to by a load of a name its import binds, by an attribute
    of its module, or by a load in its own module outside its definition;
    a method by an attribute of its name.  The referring code is the
    package outside ``__init__`` and the ``callers`` (the demos and the
    benchmark, whose ``TRACED`` table counts too)."""
    trees = {module.removesuffix(".py"): ast.parse(source) for module, source in sources.items()}
    defined = {}  # (module, name as written) -> (name, the lines of its definition)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item, written in [(node, node.name)] + [
                (m, f"{node.name}.{m.name}") for m in members
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]:
                if not item.name.startswith("_"):
                    lines = range(item.lineno, item.end_lineno + 1)
                    defined[module, written] = (item.name, lines)
    modules = set(trees) - {"__init__"}
    exported, _ = _bindings(trees["__init__"], modules, {})
    used = set()  # (module, name) of functions and classes
    attributes = []  # (module or None for a caller, attribute name, line)
    for module, tree in [*trees.items(), *((None, ast.parse(c)) for c in callers)]:
        if module == "__init__":
            continue
        names, mods = _bindings(tree, modules, exported)
        used |= _traced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    used.add(names[node.id])
                key = (module, node.id)
                if key in defined and node.lineno not in defined[key][1]:
                    used.add(key)
            elif isinstance(node, ast.Attribute):
                attributes.append((module, node.attr, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in mods:
                    used.add((mods[node.value.id], node.attr))
    unused = set()
    for key, (name, lines) in defined.items():
        module, written = key
        if "." not in written:
            if key not in used:
                unused.add(key)
        elif not any(attr == name and not (where == module and line in lines)
                     for where, attr, line in attributes):
            unused.add(key)
    return sorted(f"{module}: {written}" for module, written in unused)


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


def test_every_private_name_is_used():
    # a helper whose last caller is deleted goes with it; a planted helper
    # that only calls itself, and one only named in its own body, are found
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) > 10
    assert unreferenced_private_names(modules) == []
    planted = dict(modules, **{"planted.py": (
        "def _loop(n):\n"
        "    return _loop(n - 1) if n else 0\n"
        "_TABLE = {'self': '_TABLE'}\n"
        "def used():\n"
        "    return _kept()\n"
        "def _kept():\n"
        "    return 1\n"
    )})
    assert unreferenced_private_names(planted) == ["planted.py: _TABLE", "planted.py: _loop"]


def test_every_public_name_has_a_caller():
    # a public name only the tests call moves to tests/brute.py or goes; a
    # planted function nothing calls, a method only its own body calls, and
    # a function named like a method that is called, are found, while a
    # function a demo calls, and the class and method that function calls,
    # are not
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    callers = [
        p.read_text(encoding="utf-8")
        for folder in ("demos", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))
    ]
    assert len(modules) > 10 and len(callers) > 5
    assert unreferenced_public_names(modules, callers) == sorted(AWAITING_CALLERS)
    planted = dict(modules, **{"planted.py": (
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else 0\n"
        "def called():\n"
        "    return Box().shown()\n"
        "class Box:\n"
        "    def shown(self):\n"
        "        return 1\n"
        "    def looping(self):\n"
        "        return self.looping()\n"
        "def shown():\n"
        "    return 2\n"
    )})
    demo = "from selgames.planted import called\nprint(called())\n"
    assert unreferenced_public_names(planted, [*callers, demo]) == sorted(
        [*AWAITING_CALLERS, "planted: Box.looping", "planted: orphan", "planted: shown"])
