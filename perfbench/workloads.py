"""The benchmark workloads: CLI arguments, input files and output checks.

An output value is one CSV row the user receives.  A value fails when the
CLI exits nonzero, when its row says it did not converge, when a
`minimize_quotient` call behind it returned converged=False, or when it
misses its check.  Only a missed check or a missing output makes the
invocation incorrect; the other failures are counted in `failed`.

Checks compare against an oracle where one exists and against values
pinned at this benchmark's first commit (one BLAS thread) otherwise.
Lattice values use TOL_LATTICE: a mesh-level change of the method (a
shift of about 1e-3) passes, while the wrong basin of each workload (an
interior instead of a boundary state, the whole plane instead of the half
plane, a state away from the widest part of the waveguide) is at least 20%
away and is rejected.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

TOL_LATTICE = 5e-3      # relative, lattice values and their pinned figures
TOL_ODE = 1e-9          # relative, DOP853 at rtol 1e-12 against closed forms

# Townes mass N_c = ||Q||_2^2 of the 2D ground state -Q'' - Q'/r + Q = Q^3
# (Weinstein, CMP 87, 1983); the p = 4 whole-plane constant is
# (2 N_c)^{1/2} and the Neumann half-plane one 2^{-1/2} times that.
TOWNES_MASS = 11.700896524559647
NEUMANN_HALF_PLANE = math.sqrt(2.0 * TOWNES_MASS) / math.sqrt(2.0)
# de Gennes constant: p = 2 half-plane ground energy at unit field.
THETA0 = 0.5901061249


class Outcome:
    """What one invocation left behind: exit code, output files and spans."""

    def __init__(self, rc, work: str, spans: list):
        self.rc = rc
        self.work = work
        self.spans = spans
        self._by_id = {s[0]: s for s in spans}

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[1] == name]

    def ancestor_spans(self, span) -> list:
        out, parent = [], span[4]
        while parent is not None:
            out.append(self._by_id[parent])
            parent = out[-1][4]
        return out

    def solves(self, under: str, not_under: tuple = ()) -> list:
        """Infos of minimize_quotient calls nested in `under`, outside `not_under`."""
        out = []
        for s in self.named("minimize.minimize_quotient"):
            anc = {a[1] for a in self.ancestor_spans(s)}
            if s[5] and under in anc and not anc.intersection(not_under):
                out.append(s[5])
        return out


@dataclass
class Verdict:
    """Per-output failure reasons plus the figures worth printing."""

    ops: int
    reasons: list = field(init=False)       # one set of reasons per output
    wrong: bool = False          # an output missed its check or is missing
    notes: list = field(default_factory=list)

    def __post_init__(self):
        self.reasons = [set() for _ in range(self.ops)]

    def fail(self, rows, reason: str, wrong: bool = False) -> None:
        for i in rows:
            self.reasons[i].add(reason)
        if wrong and rows:
            self.wrong = True
            self.notes.append(f"CHECK MISSED: {reason}")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reasons if r)

    def compare(self, rows, label: str, value: float, ref: float, tol: float,
                ref_name: str = "pinned") -> None:
        gap = value / ref - 1.0
        self.notes.append(f"{label} = {value:.10g}  {ref_name} {ref:.10g}  "
                          f"gap {gap:+.3e}  (tol {tol:.0e})")
        if not abs(gap) <= tol:
            self.fail(rows, f"{label} off its {ref_name} value", wrong=True)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple             # after the global --seed; {work} is the scratch dir
    ops: int                # output values the user receives
    check: Callable         # (Workload, Outcome) -> Verdict
    cost_s: float           # one invocation at the reference speed, roughly


def _csv_rows(path: str) -> list | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _start(w: Workload, out: Outcome, rows) -> tuple:
    """Verdict with the exit-code failure applied; False when rows are missing."""
    v = Verdict(w.ops)
    every = range(w.ops)
    if out.rc != 0:
        v.fail(every, f"exit code {out.rc}")
    if rows is None or len(rows) != w.ops:
        got = "no output" if rows is None else f"{len(rows)} rows"
        v.fail(every, f"expected {w.ops} rows, got {got}", wrong=True)
        return v, False
    return v, True


def _unconverged(v: Verdict, rows, infos, what: str) -> None:
    bad = sum(1 for i in infos if not i["converged"])
    if bad:
        v.fail(rows, f"{bad} unconverged minimize call(s) behind {what}")


# ---------------------------------------------------------------------------
# box-concentration
# ---------------------------------------------------------------------------

LANDAU = 2.0                      # p = 2 whole plane: Tr+ B + V, exact
BOX_BOUNDARY = 1.63843291582      # p = 2 half plane, B = 1, V = 1, gamma = 0


def check_box(w: Workload, out: Outcome) -> Verdict:
    rows = _csv_rows(os.path.join(out.work, "box.csv"))
    v, ok = _start(w, out, rows)
    if not ok:
        return v
    interior = [i for i, r in enumerate(rows) if r["kind"] == "interior"]
    boundary = [i for i, r in enumerate(rows) if r["kind"] == "boundary"]
    if (len(interior), len(boundary)) != (25, 16):
        v.fail(range(w.ops), "expected 25 interior and 16 boundary samples",
               wrong=True)
    for idx, ref, tol, kind, ref_name in (
            (interior, LANDAU, 1e-12, "interior", "Landau"),
            (boundary, BOX_BOUNDARY, TOL_LATTICE, "boundary", "pinned")):
        bad = [i for i in idx if abs(float(rows[i]["lambda"]) / ref - 1.0) > tol]
        if bad:
            v.fail(bad, f"{kind} lambda off its {ref_name} value", wrong=True)
        if idx:
            worst = max((float(rows[i]["lambda"]) for i in idx),
                        key=lambda x: abs(x / ref - 1.0))
            v.compare([], f"{kind} lambda", worst, ref, tol, ref_name=ref_name)
    if boundary:
        gap = float(rows[boundary[0]]["lambda"]) / (THETA0 + 1.0) - 1.0
        v.notes.append(f"boundary lambda vs de Gennes Theta0 + V = "
                       f"{THETA0 + 1.0:.10g}: gap {gap:+.3e} (recorded: mesh error)")
    _unconverged(v, boundary, out.solves("models.boundary_constant"),
                 "boundary rows")
    return v


# ---------------------------------------------------------------------------
# neumann-ladder
# ---------------------------------------------------------------------------

NEU_REFERENCE = 3.41836739154      # grid half-plane constant behind the ratios
NEU_LAMBDA = {2.0: 2.87198929934, 3.0: 3.0792107549}


def check_neumann(w: Workload, out: Outcome) -> Verdict:
    rows = _csv_rows(os.path.join(out.work, "neu.csv"))
    v, ok = _start(w, out, rows)
    if not ok:
        return v
    every = range(w.ops)
    ref = float(rows[0]["lambda_neumann"]) / float(rows[0]["ratio"])
    v.compare(every, "reference", ref, NEU_REFERENCE, TOL_LATTICE)
    v.compare(every, "reference", ref, NEUMANN_HALF_PLANE, TOL_LATTICE,
              ref_name="Townes oracle")
    ratios = []
    for i, r in enumerate(rows):
        R = float(r["R"])
        v.compare([i], f"lambda_neumann(R={R:g})", float(r["lambda_neumann"]),
                  NEU_LAMBDA.get(R, math.nan), TOL_LATTICE)
        ratios.append(float(r["ratio"]))
    if not all(a < b < 1.0 for a, b in zip(ratios, ratios[1:])):
        v.fail(every, f"ratios {ratios} do not rise towards 1", wrong=True)
    _unconverged(v, every, out.solves("models.boundary_constant"), "reference")
    rungs = out.solves("asymptotics.large_domain",
                       not_under=("models.boundary_constant",))
    for i, info in enumerate(rungs[: w.ops]):
        _unconverged(v, [i], [info], f"rung R={rows[i]['R']}")
    return v


# ---------------------------------------------------------------------------
# waveguide-ladder
# ---------------------------------------------------------------------------

WG_REFERENCE = 5.12075466334       # straight strip lambda^Dir(Sigma, 4)
WG_LAMBDA = {0.2: 1.53823455346, 0.1: 1.08168376276}


def check_waveguide(w: Workload, out: Outcome) -> Verdict:
    rows = _csv_rows(os.path.join(out.work, "wg.csv"))
    v, ok = _start(w, out, rows)
    if not ok:
        return v
    every = range(w.ops)
    refs = [s[5]["value"] for s in out.named("waveguide.straight_reference")
            if s[5]]
    if refs:
        v.compare(every, "straight reference", refs[0], WG_REFERENCE, TOL_LATTICE)
    else:
        v.fail(every, "no straight reference seen", wrong=True)
    for i, r in enumerate(rows):
        h, ratio = float(r["h"]), float(r["ratio"])
        v.compare([i], f"lambda_reduced(h={h:g})", float(r["lambda_reduced"]),
                  WG_LAMBDA.get(h, math.nan), TOL_LATTICE)
        # the ratio tends to 1 inside the (1 - C sqrt(h), 1 + C h) bracket
        if not 1.0 - math.sqrt(h) < ratio < 1.0 + h:
            v.fail([i], f"ratio {ratio} outside its h-bracket", wrong=True)
        if r["converged"] != "1":
            v.fail([i], "row says converged=0")
    _unconverged(v, every, out.solves("waveguide.straight_reference"),
                 "reference")
    rungs = out.solves("waveguide.waveguide_sweep",
                       not_under=("waveguide.straight_reference",))
    for i, info in enumerate(rungs[: w.ops]):
        _unconverged(v, [i], [info], f"rung h={rows[i]['h']}")
    return v


# ---------------------------------------------------------------------------
# model1d-sweep
# ---------------------------------------------------------------------------

def model1d_closed_form(c: float) -> tuple:
    """p = 4 half-line orbit: the whole-line soliton sqrt(2) sech shifted by
    artanh(c), so lambda_c = 2 (2/3 + c - c^3/3)^{1/2}, u0 = (2 (1 - c^2))^{1/2}
    and T_c = artanh(c) for c > 0.  At c = 0, lambda = 2^{-1/2} soliton_line(4)."""
    lam = 2.0 * math.sqrt(2.0 / 3.0 + c - c ** 3 / 3.0)
    return lam, math.sqrt(2.0 * (1.0 - c * c)), (math.atanh(c) if c > 0 else 0.0)


def check_model1d(w: Workload, out: Outcome) -> Verdict:
    path = os.path.join(out.work, "model1d.json")
    rows = None
    if os.path.exists(path):
        with open(path) as f:
            rows = json.load(f)["rows"]
    v, ok = _start(w, out, rows)
    if not ok:
        return v
    csv_rows = _csv_rows(os.path.join(out.work, "model1d.csv"))
    if csv_rows is None or len(csv_rows) != w.ops:
        v.fail(range(w.ops), "CSV and JSON row counts differ", wrong=True)
    worst = {"lambda_c": 0.0, "u0": 0.0, "T_escape": 0.0}
    for i, r in enumerate(rows):
        exact = model1d_closed_form(r["c"])
        for key, ref in zip(("lambda_c", "u0", "T_escape"), exact):
            err = abs(r[key] - ref) / max(1.0, abs(ref))
            worst[key] = max(worst[key], err)
            if err > TOL_ODE:
                v.fail([i], f"{key} off the closed form", wrong=True)
        if i and not r["lambda_c"] > rows[i - 1]["lambda_c"]:
            v.fail([i], "lambda_c not increasing in c", wrong=True)
    for key, err in worst.items():
        v.notes.append(f"max relative error of {key} vs closed form: {err:.2e} "
                       f"(tol {TOL_ODE:.0e})")
    zero = min(rows, key=lambda r: abs(r["c"]))
    ref0 = math.sqrt(8.0 / 3.0)
    v.notes.append(f"c={zero['c']:.3g} row vs 2^(-1/2) soliton_line(4) = "
                   f"{ref0:.15g}: gap {zero['lambda_c'] / ref0 - 1.0:+.2e}")
    return v


def model1d_workload(n: int) -> Workload:
    # `--sweep=` with "=": argparse rejects the space-separated form
    # `--sweep -0.9:0.9:81` because the value starts with "-" (a CLI defect).
    return Workload(
        name="model1d-sweep",
        argv=("model1d", "--p", "4", f"--sweep=-0.9:0.9:{n}",
              "--out", "{work}/model1d.csv", "--json", "{work}/model1d.json"),
        ops=n, check=check_model1d, cost_s=0.7 + 0.08 * n)


# Config paths are relative to the checkout root, the invocation's cwd.
WORKLOADS = {w.name: w for w in (
    # p = 2: at p = 4 the three 57k-node model-constant solves cost ~45 s per
    # invocation, more than the benchmark's time budget can repeat.
    Workload(
        name="box-concentration",
        argv=("concentration", "--config", "perfbench/inputs/box.cfg",
              "--p", "2", "--out", "{work}/box.csv"),
        ops=41, check=check_box, cost_s=2.5),
    # The R = 3 rung returns converged=False while the CLI exits 0.
    Workload(
        name="neumann-ladder",
        argv=("large-domain", "--config", "perfbench/inputs/neu.cfg",
              "--p", "4", "--R-list", "2,3", "--out", "{work}/neu.csv"),
        ops=2, check=check_neumann, cost_s=20.0),
    # Exits 2: the h = 0.1 rung and both straight_reference solves are
    # unconverged (the references are accepted all the same).
    Workload(
        name="waveguide-ladder",
        argv=("waveguide", "--profile", "gaussian:0.5,0,1", "--p", "4",
              "--h-list", "0.2,0.1", "--out", "{work}/wg.csv"),
        ops=2, check=check_waveguide, cost_s=24.0),
    model1d_workload(81),
)}
