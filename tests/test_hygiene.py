"""Static hygiene of the package: no stale imports, no orphaned private code.

A module-level import whose name is never used in its module, or a private
top-level function or class that nothing in its module refers to, is left
over from code that was removed; the check reads the source with `ast`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "semisobolev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def stale_names(source: str) -> list:
    """Unused module-level imports and unreferenced private top-level defs."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    stale.append(f"line {node.lineno}: import {name}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
            if (name.startswith("_") and not name.startswith("__")
                    and name not in used):
                stale.append(f"line {node.lineno}: private {name}")
    return stale


def test_the_check_finds_each_kind():
    src = ("from __future__ import annotations\n"
           "import math\nimport scipy.sparse as sp\nfrom os import path, sep\n"
           "def _orphan():\n    return sp\n"
           "def _used():\n    return sep\n"
           "class _Gone:\n    pass\n"
           "def public():\n    return _used()\n")
    assert stale_names(src) == ["line 2: import math", "line 4: import path",
                                "line 5: private _orphan",
                                "line 9: private _Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_names(path):
    assert stale_names(path.read_text()) == []
