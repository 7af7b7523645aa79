"""Static hygiene of the package: no stale imports, no orphaned code.

A module-level import whose name is never used in its module, a private
top-level function or class that nothing in its module refers to, or a
private module-level constant that nothing in its module reads, is left
over from code that was removed.  A public function, class or method
that nothing in the package names either only feeds a test of itself or
is an oracle tool kept for the tests (`ORACLES`).  A dataclass field
that nothing reads is a report value no caller wants (`UNREAD_FIELDS`
lists the planned exceptions).  Every CLI subcommand is run by some test.
The checks read the source with `ast`, except three: importing the CLI
loads no scipy module that only the half-line model and the de Gennes
constant use, nor scipy.fft; it does load scipy.sparse.linalg, which
SuperLU needs; and a `model1d` run loads neither the ODE integrator nor
the optimizer, which only its oracle and the de Gennes constant use.
"""

import argparse
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from semisobolev import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semisobolev"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(p for p in (ROOT / "tests").glob("*.py")
               if p.name != "test_hygiene.py")
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Public names with no caller in the package, kept because tests use them
# to check an exact identity or bound; each maps to the words its
# docstring uses to name that identity.
ORACLES = {
    "random_field": "identities",
    "kinetic_energy": "diamagnetic inequality",
    "gauge_transform": "gauge covariance",
    "shifted_spec": "gauge shift",
    "symmetric_gauge": "symmetric gauge",
    "integrate_trajectory": "ode oracle",
    "de_gennes_constant": "critical point",
    "quotient_gradient": "directional derivative",
    "soliton_ode_residual": "residual",
}


# Dataclass fields that nothing reads yet, each with its planned reader.
UNREAD_FIELDS: dict = {}


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


def _public(name: str) -> bool:
    return not name.startswith("_")


def referenced_names(sources) -> set:
    """Every Name id, Attribute attr and import alias in the sources."""
    refs = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
    return refs


def unreferenced_public(modules: dict) -> list:
    """Public top-level functions and classes, and public methods of public
    classes, that no source in `modules` (name -> source) refers to."""
    refs = referenced_names(modules.values())
    found = []
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            if node.name not in refs:
                found.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{mod}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and _public(m.name) and m.name not in refs]
    return found


def test_the_reference_check_finds_each_kind():
    modules = {
        "a": ("import os\nfrom b import used_fn\n"
              "def orphan():\n    return os.sep\n"
              "def _private_orphan():\n    pass\n"
              "class Kept:\n    def called(self):\n        pass\n"
              "    def never(self):\n        pass\n"
              "    def __post_init__(self):\n        pass\n"
              "    def _helper(self):\n        pass\n"
              "class Lost:\n    def also_lost(self):\n        pass\n"
              "x = Kept()\nx.called()\n"),
        "b": "def used_fn():\n    pass\n",
    }
    assert unreferenced_public(modules) == ["a.orphan", "a.Kept.never",
                                            "a.Lost", "a.Lost.also_lost"]


def test_public_names_have_callers_or_are_oracles():
    modules = {p.stem: p.read_text() for p in SOURCES}
    found = {name.split(".")[-1] for name in unreferenced_public(modules)}
    assert found == set(ORACLES)


@pytest.fixture(scope="module")
def test_refs():
    return referenced_names(p.read_text() for p in TESTS)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_is_documented_and_tested(name, test_refs):
    objs = [getattr(importlib.import_module(f"semisobolev.{p.stem}"), name, None)
            for p in MODULES]
    (obj,) = [o for o in objs if o is not None]
    assert ORACLES[name] in " ".join((obj.__doc__ or "").lower().split())
    assert name in test_refs


def untested_subcommands(parser: argparse.ArgumentParser, test_source: str) -> list:
    """Subcommands of `parser` that are the first argv item of no
    `cli.main([...])` call in `test_source`."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    run = set()
    for node in ast.walk(ast.parse(test_source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "main"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "cli"
                and node.args and isinstance(node.args[0], ast.List)
                and node.args[0].elts
                and isinstance(node.args[0].elts[0], ast.Constant)):
            run.add(node.args[0].elts[0].value)
    return [name for name in sub.choices if name not in run]


def test_the_subcommand_check_finds_an_untested_one():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for name in ("run", "plot", "report"):
        sub.add_parser(name)
    source = ("def test_a():\n    cli.main(['run', '--x', '1'])\n"
              "def test_b():\n    other.main(['plot'])\n"
              "    cli.main(argv)\n    cli.main(['--seed', '1', 'report'])\n")
    assert untested_subcommands(parser, source) == ["plot", "report"]


def test_every_subcommand_has_a_cli_test():
    source = (ROOT / "tests" / "test_cli.py").read_text()
    assert untested_subcommands(cli.build_parser(), source) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_fields(sources, readers) -> list:
    """Fields of the @dataclass classes in `sources` whose name is the
    attribute of no `ast.Attribute` load in `readers`.

    Names are matched, not objects: a field passes when any object's
    attribute of the same name is read somewhere.  So an unread field named
    like a common attribute (`v`, `gamma`, `x`) goes unseen.
    """
    loads = {n.attr for source in readers for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{node.name}.{f.target.id}" for f in node.body
                          if isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)
                          and f.target.id not in loads]
    return found


def test_the_field_check_finds_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass Report:\n    read: int\n    stored: int\n"
              "    kept: int = 0\n"
              "@dataclass(frozen=True)\nclass Sample:\n    x: float\n"
              "class Plain:\n    loose: int\n"
              "def use(r, s):\n    r.stored = s.x\n    return r.read\n")
    reader = "def other(o):\n    return o.kept\n"
    assert unread_fields([source], [source, reader]) == ["Report.stored"]


def test_dataclass_fields_are_read():
    readers = [p.read_text() for p in SOURCES + TESTS + PERFBENCH]
    unread = unread_fields([p.read_text() for p in SOURCES], readers)
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def _loaded_after(code: str, modules) -> list:
    """Which of `modules` a fresh interpreter has loaded after `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code += f"\nprint(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_cli_import_loads_no_ode_or_optimizer():
    # scipy.optimize and scipy.integrate add about half to the import time;
    # model1d.integrate_trajectory loads scipy.integrate, the model1d
    # closed forms load scipy.special, and geometry.de_gennes_constant
    # loads scipy.special and scipy.optimize, all at their call sites; the
    # Fourier preconditioner uses numpy.fft, since scipy.fft adds about 0.1 s
    assert _loaded_after("import sys, semisobolev.cli",
                         ("scipy.optimize", "scipy.integrate",
                          "scipy.special", "scipy.fft")) == []


def test_cli_import_loads_sparse_linalg():
    # SuperLU's subpackage is imported with the package, so its import
    # time is set-up and not part of the first factorization
    assert _loaded_after("import sys, semisobolev.cli",
                         ("scipy.sparse.linalg",)) == ["scipy.sparse.linalg"]


def test_model1d_run_loads_no_ode_or_optimizer(tmp_path):
    # the closed forms need scipy.special only
    code = ("import sys\nfrom semisobolev import cli\n"
            f"assert cli.main(['model1d', '--p', '4', '--sweep=-0.9:0.9:81', "
            f"'--out', {str(tmp_path / 'm.csv')!r}]) == 0")
    assert _loaded_after(code, ("scipy.optimize", "scipy.integrate",
                                "scipy.special")) == ["scipy.special"]
