"""Static hygiene of the package: no stale imports, no orphaned private code.

A module-level import whose name is never used in its module, a private
top-level function or class that nothing in its module refers to, or a
private module-level constant that nothing in its module reads, is left
over from code that was removed; the check reads the source with `ast`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "semisobolev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def stale_names(source: str) -> list:
    """Unused module-level imports, unreferenced private top-level defs and
    private module-level constants that are never read."""
    tree = ast.parse(source)
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    used = {n.id for n in names}
    loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
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
            if _private(node.name) and node.name not in used:
                stale.append(f"line {node.lineno}: private {node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Name) and _private(t.id)
                        and t.id not in loaded):
                    stale.append(f"line {node.lineno}: constant {t.id}")
    return stale


def test_the_check_finds_each_kind():
    src = ("from __future__ import annotations\n"
           "import math\nimport scipy.sparse as sp\nfrom os import path, sep\n"
           "_READ = 1\n_NEVER: int = 2\n_ONLY_STORED = 3\n__all__ = []\n"
           "def _orphan():\n    return sp\n"
           "def _used():\n    return sep\n"
           "class _Gone:\n    pass\n"
           "def public():\n    _ONLY_STORED = 4\n    return _used() + _READ\n")
    assert stale_names(src) == ["line 2: import math", "line 4: import path",
                                "line 6: constant _NEVER",
                                "line 7: constant _ONLY_STORED",
                                "line 9: private _orphan",
                                "line 13: private _Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_names(path):
    assert stale_names(path.read_text()) == []
