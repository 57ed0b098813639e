"""Every private helper in the package is used by the package itself.

A private (``_name``) module-level function, class or constant, or a
private method of a module-level class, that nothing in ``src/padelab``
refers to outside its own definition is dead code: tests alone do not keep
it alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padelab"


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
