"""Source hygiene: every name a module of the package imports is used, and
every private name the package defines is read somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdbsim"
# ``__init__`` imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order. A name
    counts as read where it appears as a name, also inside a string
    annotation such as ``"GateRecord | None"``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names (one leading underscore) that ``sources`` define
    as a function, method, class or module-level name and never read, as a
    name or an attribute, in definition order."""
    defined, read = [], set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom .gates import GateSpec, x\n"
              "def f(g: \"GateSpec | None\") -> float:\n    return np.pi\n")
    assert unused_imports(source) == ["math", "x"]


def test_every_private_name_is_read():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_the_check_sees_unread_and_read_private_names():
    first = ("_A, _B = 1, 2\n_C: int = 3\nPUBLIC = _A\n"
             "class _Kept:\n    def _gone(self):\n        self._C = 0\n"
             "    def __init__(self):\n        pass\n")
    second = "from .first import _Kept\ndef _unused():\n    return _Kept()._helper\n"
    third = "def _helper():\n    return 0\n"
    assert unread_private_names([first, second, third]) == ["_B", "_C", "_gone", "_unused"]
