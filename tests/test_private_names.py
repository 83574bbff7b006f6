"""Every module-level private name of the package is used in the package.

A helper that only the tests still call is dead code: this test parses
``src/simomac/*.py`` with ``ast`` and fails on a module-level private name
(a ``_name`` defined by def, class or assignment) that no other top-level
statement of the package references.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "simomac"


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}


def _referenced(stmt):
    """The names a top-level statement reads or imports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unused_private_names(sources):
    """(module, name) of each module-level private name of ``sources``
    (module name -> source text) that no other top-level statement uses."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    refs = [_referenced(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        for name in sorted(_defined(stmt)):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(refs) if j != i):
                unused.append((module, name))
    return unused


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert _unused_private_names(sources) == []


def test_catches_a_helper_only_tests_call():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _left(x):\n    return _left(x - 1)\n\n\n"
             "def api():\n    return _used()\n",
        "b": "from .a import api\n_TABLE = {}\n_SEEN = 0\n\n\ndef run():\n    return _SEEN\n",
    }
    assert _unused_private_names(sources) == [("a", "_left"), ("b", "_TABLE")]
