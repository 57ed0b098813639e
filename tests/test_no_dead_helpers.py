"""Every private helper in the package is used by the package itself, and
every name a module imports is read there.

A private (``_name``) module-level function, class or constant, or a
private method of a module-level class, that nothing in ``src/padelab``
refers to outside its own definition is dead code: tests alone do not keep
it alive. So is an import that its module never reads, unless the module
re-exports it (``__init__.py``, or a name in ``__all__``) or
``KEPT_IMPORTS`` gives the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padelab"
# "module:name" of each import no run reads, with the reason it stays
KEPT_IMPORTS = {
    "pade.py:solve_linear": "perfbench/tracer.py patches pade.solve_linear by name",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """(name, node) of each private module-level function, class and
    constant (a name a module-level assignment binds), and of each private
    method of a module-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and _private(node.name):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if _private(name.id):
                    yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and _private(item.name):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, line) of every name and attribute read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _dead(trees) -> list:
    """``module:line label`` of each private definition in ``trees`` (module
    name to parse tree) that no module refers to outside its own lines."""
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for label, node in _definitions(tree):
            name = label.rsplit(".", 1)[-1]
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(ref == name and not (other == module and line in inside)
                       for other, pairs in refs.items() for ref, line in pairs)
            if not used:
                dead.append(f"{module}:{node.lineno} {label}")
    return dead


def _unread_imports(trees, kept=KEPT_IMPORTS) -> list:
    """``module:line name`` of each name a module of ``trees`` (module name
    to parse tree) imports and never reads: ``__init__.py``, the names in a
    module's ``__all__`` and those ``kept`` aside."""
    unread = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read | exported and f"{module}:{name}" not in kept:
                    unread.append(f"{module}:{node.lineno} {name}")
    return unread


def test_every_private_helper_is_referenced_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    dead = _dead(trees)
    assert not dead, "private helpers nothing in the package calls: " + ", ".join(dead)


def test_a_helper_only_its_own_body_calls_is_dead():
    lonely = ast.parse(
        "def _lonely(n):\n"
        "    return _lonely(n - 1) if n else 0\n"
        "def _used():\n"
        "    pass\n"
        "class A:\n"
        "    def _method(self):\n"
        "        pass\n"
        "    def __init__(self):\n"
        "        _used()\n"
        # a constant that is bound, or rebound, and never read is dead too
        "_LEFTOVER = 1\n"
        "_PART, _WHOLE = 2, 3\n"
        "_SHARED: int = _WHOLE\n"
        "def public():\n"
        "    global _LEFTOVER\n"
        "    _LEFTOVER = 4\n"
        "    return _SHARED\n"
    )
    other = ast.parse("from m import A\nA()._method\n")
    assert _dead({"m.py": lonely}) == ["m.py:1 _lonely", "m.py:6 A._method",
                                       "m.py:10 _LEFTOVER", "m.py:11 _PART"]
    assert _dead({"m.py": lonely, "n.py": other}) == ["m.py:1 _lonely", "m.py:10 _LEFTOVER",
                                                      "m.py:11 _PART"]


def test_every_import_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unread = _unread_imports(trees)
    assert not unread, "imports their module never reads: " + ", ".join(unread)
    # each kept import is still there, and still unread
    kept = {f"{entry.split(':')[0]}:{entry.split(' ')[1]}"
            for entry in _unread_imports(trees, kept={})}
    assert kept == set(KEPT_IMPORTS)


def test_an_import_nothing_reads_is_dead():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "from m import x, y as z\n"
        "from n import (w,\n"
        "               v)\n"
        "__all__ = ['x']\n"
        "def f():\n"
        "    return a.c, v\n"
    )
    assert _unread_imports({"m.py": tree}) == ["m.py:2 os", "m.py:4 z", "m.py:5 w"]
    # a package's __init__ imports to re-export
    assert _unread_imports({"__init__.py": tree}) == []
