"""Static hygiene of the package: no stale imports, no orphaned code.

A module-level import whose name is never used in its module, a private
top-level function or class that nothing in its module refers to, or a
private module-level constant that nothing in its module reads, is left
over from code that was removed.  A public function, class or method
that nothing in the package names either only feeds a test of itself or
is an oracle tool kept for the tests (`ORACLES`).  A dataclass field
that nothing in the package or the benchmark reads is a report value no
caller wants, unless `TEST_READ_FIELDS` names the kept behaviour that a
test shows with it.  Every `MinimizeOptions` field is set by some call
in the package, so no option exists for the tests alone.  Every CLI
subcommand is run by some test.  Only `minimize.py` names
`minimize_quotient`: every other module solves through `solve_lattice`.
Only `models.py` names `_cache`, the one memo of the results of lattice
solves, or `_unconverged`, its miss count, and no function but the
closed-form oracle `de_gennes_constant` carries a functools memo.  Only
`asymptotics.sweep` names `_rung`, the one runner of the sweep's rungs,
which `large_domain` reuses; and only `asymptotics.rung_row` builds a
`SweepRow`, the one row of every h-ladder, the waveguide sweep's too.
No `cli._cmd_*` function catches a package error: `cli.main` names the
flags behind every refusal from one table.  The checks read the source with `ast`, except seven: importing the
package loads no scipy module, since every importer names its submodule;
importing the CLI loads no scipy module that only the oracles use, nor
scipy.fft, nor scipy.interpolate, since the nested solves prolong with
numpy; it does load scipy.sparse.linalg, which SuperLU needs; a
`model1d` run, and a `concentration` run on an interval at p = 4, whose
boundary constants are half-line closed forms, load none of the oracles'
scipy modules (these six read one interpreter's module table); and the
benchmark's probe, which rebinds module globals, sees every solve of a
straight-strip reference, and one reference span in a waveguide sweep,
its rungs outside it.
"""

import argparse
import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from semisobolev import cli, errors
from semisobolev.minimize import MinimizeOptions

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


# Dataclass fields that only tests read, each with the kept behaviour the
# test shows; a class name stands for every field of the class.
TEST_READ_FIELDS = {
    "TranslationReport.c_energy":
        "find_translation calibrates C'' on the field that it scans",
    "PhaseTrajectory":
        "the ODE oracle's sampled orbit, checked against the closed forms",
}


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


def lines_naming(source: str, name: str) -> list:
    """Lines where `name` is a Name, an attribute or an imported name."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.ImportFrom)
                   and any(a.name == name for a in node.names)})


def test_the_naming_check_finds_each_kind():
    source = ("from .minimize import minimize_quotient as mq\n"
              "from . import minimize\n"
              "res = minimize.minimize_quotient(form, 4.0)\n"
              "res = mq(form, 4.0)\n"
              "solve = minimize_quotient\n"
              "text = 'minimize_quotient'\n")
    assert lines_naming(source, "minimize_quotient") == [1, 3, 5]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "minimize.py"],
                         ids=lambda p: p.name)
def test_only_minimize_names_minimize_quotient(path):
    # the coarse lattice and the warm-start rule live in one place
    assert lines_naming(path.read_text(), "minimize_quotient") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "models.py"],
                         ids=lambda p: p.name)
def test_only_models_names_the_memo(path):
    # model constants and straight references share one memo and one
    # miss count; a second store would bypass both
    assert lines_naming(path.read_text(), "_cache") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "models.py"],
                         ids=lambda p: p.name)
def test_only_models_reads_the_miss_count(path):
    # a caller asks `models.solved` whether its call missed; a snapshot of
    # the count taken by hand is a second copy of that rule
    assert lines_naming(path.read_text(), "_unconverged") == []


def _functions_at(source: str, lines) -> list:
    """The top-level function around each of `lines`, or None for a line
    outside every function."""
    spans = [(n.lineno, n.end_lineno, n.name) for n in ast.parse(source).body
             if isinstance(n, ast.FunctionDef)]
    return [next((f for a, b, f in spans if a <= ln <= b), None)
            for ln in lines]


def functions_naming(source: str, name: str) -> list:
    """The top-level function around each line of `lines_naming`."""
    return _functions_at(source, lines_naming(source, name))


def functions_calling(source: str, name: str) -> list:
    """The top-level function around each line that calls `name`, as a
    Name or as an attribute."""
    return _functions_at(source, sorted(
        {node.lineno for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Call)
         and (isinstance(node.func, ast.Name) and node.func.id == name
              or isinstance(node.func, ast.Attribute)
              and node.func.attr == name)}))


def test_the_function_check_finds_each_kind():
    source = ("def a():\n    return _rung(1)\n"
              "def b():\n    f = mod._rung\n    return f\n"
              "x = _rung(2)\n"
              "def _rung(k):\n    return k\n")
    assert functions_naming(source, "_rung") == ["a", "b", None]


def test_only_the_sweep_runs_rungs():
    # `_rung` is the one runner of the sweep's rungs: `large_domain`
    # returns the sweep's rows and starts no rungs of its own
    found = [(path.stem, func) for path in MODULES
             for func in functions_naming(path.read_text(), "_rung")]
    assert found == [("asymptotics", "sweep")]


def test_the_call_check_finds_each_kind():
    source = ("def a():\n    return SweepRow(h=1)\n"
              "def b():\n    make = mod.SweepRow\n"
              "    return make(h=2), mod.SweepRow(h=3)\n"
              "row = SweepRow(h=4)\n"
              "def c(rows: list[SweepRow]):\n    return rows\n")
    assert functions_calling(source, "SweepRow") == ["a", "b", None]


def test_only_rung_row_builds_ladder_rows():
    # every h-ladder (sweep, large-domain, waveguide) reports through the
    # one `rung_row`, so a column added there reaches all three
    found = [(path.stem, func) for path in MODULES
             for func in functions_calling(path.read_text(), "SweepRow")]
    assert found == [("asymptotics", "rung_row")]


def error_handlers(source: str, names: set) -> list:
    """(function, line) of each `except` clause, in a top-level `_cmd_*`
    function, whose class or tuple of classes names one of `names`."""
    found = []
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef)
                and func.name.startswith("_cmd_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {n.id if isinstance(n, ast.Name) else n.attr
                          for n in ast.walk(node.type)
                          if isinstance(n, (ast.Name, ast.Attribute))}
                if caught & names:
                    found.append((func.name, node.lineno))
    return found


def test_the_handler_check_finds_each_kind():
    source = ("def _cmd_a(args):\n    try:\n        run()\n"
              "    except (ValueError, LatticeOutOfRange):\n        pass\n"
              "def _cmd_b(args):\n    try:\n        run()\n"
              "    except errors.NoSolution as exc:\n        raise Other(exc)\n"
              "def _cmd_c(args):\n    try:\n        run()\n"
              "    except ValueError:\n        pass\n"
              "def _parse(s):\n    try:\n        run()\n"
              "    except NoSolution:\n        pass\n")
    assert error_handlers(source, {"LatticeOutOfRange", "NoSolution"}) == [
        ("_cmd_a", 4), ("_cmd_b", 9)]


def test_no_subcommand_catches_a_package_error():
    # `cli.main` maps each error class to the flags behind it; a handler
    # in one subcommand would be a second copy of that rule
    names = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.SemisobolevError)}
    assert error_handlers((PACKAGE / "cli.py").read_text(), names) == []


def functools_memos(source: str) -> list:
    """(line, decorated function or None) for each line that names
    `cache` or `lru_cache`."""
    tree = ast.parse(source)
    decorated = {d.lineno: node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 for d in node.decorator_list}
    return [(ln, decorated.get(ln)) for name in ("cache", "lru_cache")
            for ln in lines_naming(source, name)]


def test_the_memo_check_finds_each_kind():
    source = ("import functools\nfrom functools import lru_cache\n"
              "@functools.cache\ndef a():\n    pass\n"
              "@lru_cache(maxsize=4)\ndef b():\n    pass\n"
              "c = functools.cache(len)\n_cache = {}\n")
    assert sorted(functools_memos(source)) == [
        (2, None), (3, "a"), (6, "b"), (9, None)]


def test_only_the_de_gennes_oracle_carries_a_functools_memo():
    found = [(path.name, func) for path in MODULES
             for _, func in functools_memos(path.read_text())]
    assert found == [("geometry.py", "de_gennes_constant")]


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
    sources = [p.read_text() for p in SOURCES]
    readers = sources + [p.read_text() for p in PERFBENCH]
    test_only = {name.split(".")[0] if name.split(".")[0] in TEST_READ_FIELDS
                 else name for name in unread_fields(sources, readers)}
    assert sorted(test_only) == sorted(TEST_READ_FIELDS)
    tests = [p.read_text() for p in TESTS]
    assert unread_fields(sources, readers + tests) == []


def test_every_minimize_option_is_set_in_the_package():
    calls = [node for p in SOURCES for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "MinimizeOptions"]
    passed = {kw.arg for call in calls for kw in call.keywords}
    assert [f.name for f in dataclasses.fields(MinimizeOptions)
            if f.name not in passed] == []


def _run(code: str):
    """The literal a fresh interpreter prints last after `import sys; code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


# scipy.optimize and scipy.integrate add about half to the import time;
# model1d.integrate_trajectory, the ODE oracle, loads scipy.integrate, and
# geometry.de_gennes_constant loads scipy.special and scipy.optimize, both
# at their call sites
ORACLE_MODULES = ("scipy.optimize", "scipy.integrate", "scipy.special")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The scipy modules one fresh interpreter has loaded after a bare
    `import semisobolev` (`package`), then after importing the CLI
    (`import`), then after a `model1d` run, then after an interval
    `concentration` run at p = 4.  A snapshot includes the steps before
    it, so a module that one step loads shows in every later one."""
    work = tmp_path_factory.mktemp("loaded")
    cfg = work / "interval.cfg"
    cfg.write_text("domain = interval\nbounds = -1 1\nbc = robin robin\n"
                   "V = 1.0\ngamma = -0.3\n")
    runs = {"model1d": ["model1d", "--p", "4", "--sweep=-0.9:0.9:81",
                        "--out", str(work / "m.csv")],
            "concentration": ["concentration", "--config", str(cfg),
                              "--p", "4", "--out", str(work / "c.csv")]}
    return _run(
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import semisobolev\n"
        "loaded = {'package': scipy_modules()}\n"
        "from semisobolev import cli\n"
        "loaded['import'] = scipy_modules()\n"
        f"for name, argv in {runs!r}.items():\n"
        "    assert cli.main(argv) == 0, name\n"
        "    loaded[name] = scipy_modules()\n"
        "print(loaded)")


def _among(modules, names) -> list:
    return [m for m in names if m in modules]


def test_package_import_loads_no_scipy(loaded):
    # the package root re-exports no submodule: the CLI and the benchmark
    # probe name the submodules they use
    assert loaded["package"] == []


def test_cli_import_loads_no_ode_or_optimizer(loaded):
    # the Fourier preconditioner uses numpy.fft, since scipy.fft adds
    # about 0.1 s
    assert _among(loaded["import"], ORACLE_MODULES + ("scipy.fft",)) == []


def test_cli_import_loads_no_interpolate(loaded):
    # the nested solves prolong with numpy alone; scipy.interpolate would
    # add to every subcommand's set-up time
    assert _among(loaded["import"], ("scipy.interpolate",)) == []


def test_cli_import_loads_sparse_linalg(loaded):
    # SuperLU's subpackage is imported with the package, so its import
    # time is set-up and not part of the first factorization
    assert _among(loaded["import"], ("scipy.sparse.linalg",)) == [
        "scipy.sparse.linalg"]


def test_model1d_run_loads_no_ode_or_optimizer(loaded):
    # the closed forms take their incomplete beta function from model1d
    assert _among(loaded["model1d"], ORACLE_MODULES) == []


def test_interval_concentration_loads_no_special_functions(loaded):
    # every d = 1 boundary constant is a model1d closed form
    assert _among(loaded["concentration"], ORACLE_MODULES) == []


def test_the_benchmark_probe_sees_every_solve():
    # perfbench/probe.py wraps functions by rebinding module globals; a
    # solve that bypassed the global `minimize.minimize_quotient` would
    # leave the workload checks no solve to check.  At p = 4 the reference
    # is one solve, on the strip and the coarse strip
    code = (f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import time\nimport semisobolev.cli\n"
            "from semisobolev import waveguide\n"
            "from probe import Tracer, install\n"
            "tracer = Tracer(time.perf_counter())\n"
            "install(tracer, trace=True)\n"
            "waveguide.straight_reference(4.0)\n"
            "spans = tracer.spans\n"
            "print([(s[1], None if s[4] is None else spans[s[4]][1])"
            " for s in spans])")
    spans = _run(code)
    solves = [parent for name, parent in spans
              if name == "minimize.minimize_quotient"]
    assert solves == ["waveguide.straight_reference"]
    assert [name for name, _ in spans].count("waveguide.assemble") == 2


def test_the_benchmark_probe_sees_one_reference_per_sweep():
    # a sweep calls `straight_reference` through its module global, so the
    # probe records its value; the rungs then read the stored minimizer
    # from the memo, and their solves sit under the sweep, not the reference
    code = (f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import time\nimport semisobolev.cli\n"
            "from semisobolev import models, waveguide\n"
            "from probe import Tracer, install\n"
            "tracer = Tracer(time.perf_counter())\n"
            "install(tracer, trace=True)\n"
            "waveguide.waveguide_sweep(waveguide.constant_profile(1.0), 4.0,"
            " [0.5, 0.25])\n"
            "spans = tracer.spans\n"
            "def names(s):\n"
            "    out = []\n"
            "    while s[4] is not None:\n"
            "        s = spans[s[4]]\n"
            "        out.append(s[1])\n"
            "    return out\n"
            "print((models.stored(('strip', 4.0)).lam,"
            " [(s[1], names(s), s[5]) for s in spans if s[1] in"
            " ('waveguide.straight_reference', 'minimize.minimize_quotient')]))")
    lam, spans = _run(code)
    refs = [info for name, _, info in spans
            if name == "waveguide.straight_reference"]
    assert refs == [{"value": lam}]
    rungs = [anc for name, anc, _ in spans
             if name == "minimize.minimize_quotient"
             and "waveguide.straight_reference" not in anc]
    assert rungs == [["waveguide.waveguide_sweep"]] * 2
