"""Command-line entry point.

Subcommands: model1d, solve, concentration, sweep, large-domain,
partition-check, waveguide.  Tables go to CSV with the resolved
configuration as `# key = value` header comments; structured results go
to JSON with a "config" block.  Writes are atomic (temp file + rename).
Exit codes: 0 success, 1 validation error, 2 solver non-convergence.

A refusal exits 1 and names the flags on its command line that set what
it refuses, from one table in `main` (and each subcommand's lattice flags).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys

import numpy as np

from . import asymptotics, geometry, model1d, models, partition, waveguide
from ._util import atomic_write
from .config import ConfigError, load_geometry
from .discretize import (_MAX_NODES, assemble, build_grid, gaussian_bump,
                         wavefunction_rows)
from .errors import (AssumptionViolated, InvalidExponent, InvalidProfile,
                     InvalidScales, LatticeOutOfRange, NoSolution,
                     SemisobolevError, ToleranceNotMet)
from .minimize import MinimizeOptions, solve_lattice


# no option name here starts with a digit, so such a token is a value
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a prefix of a flag is refused, so every refusal names flags in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse default exits 2; the contract is 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes only plain negative numbers for values, so
        # "--sweep -0.9:0.9:7" or "--c -1e-3" would read as two options;
        # glue the value on: "--sweep=-0.9:0.9:7"
        glued = []
        for tok in sys.argv[1:] if args is None else args:
            if (glued and glued[-1].startswith("--") and "=" not in glued[-1]
                    and _NEGATIVE_VALUE.match(tok)):
                glued[-1] += "=" + tok
            else:
                glued.append(tok)
        return super().parse_known_args(glued, namespace)


def _csv_text(config: dict, header: list, rows: list) -> str:
    buf = io.StringIO()
    for k in sorted(config):
        buf.write(f"# {k} = {config[k]}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:    # floats to 12 significant digits
        buf.write(",".join(f"{x:.12g}" if isinstance(x, float) else str(x)
                           for x in row) + "\n")
    return buf.getvalue()


def _json_text(config: dict, payload: dict) -> str:
    return json.dumps({"config": config, **payload}, indent=2, sort_keys=True)


def _geometry_config(args, resolved: dict, **settings) -> dict:
    """The config block of a run on a geometry file: the file, p, the
    seed, the subcommand's `settings` and every resolved geometry key."""
    return {"config_file": args.config, "p": args.p, "seed": args.seed,
            **settings, **{f"geometry.{k}": v for k, v in resolved.items()}}


def _write_rows(args, config: dict, header: list, rows: list, summary: str,
                payload: dict | None = None) -> int:
    """Write the rows, whose last column is `converged`, as CSV (and
    `payload` with their "unconverged" count as JSON when --json is
    given), print `summary` with that count; exit 2 when it is not 0."""
    _emit(args.out, _csv_text(config, header, rows))
    bad = sum(1 for row in rows if not row[-1])
    if payload is not None and args.json:
        atomic_write(args.json, _json_text(config,
                                           {**payload, "unconverged": bad}))
    print(summary + (f", {bad} unconverged" if bad else ""))
    return 2 if bad else 0


def _positive(flag: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{flag}: expected a finite number > 0, got {value}")
    return value


def _count(flag: str, n: int) -> int:
    """1 <= n <= _MAX_NODES: each sample or point costs memory like a node."""
    if not 1 <= n <= _MAX_NODES:
        raise ConfigError(f"{flag}: expected 1 to {_MAX_NODES}, got {n}")
    return n


def _semiclassical(flag: str, h: float) -> float:
    """h > 0 whose square, the scale of the kinetic coefficients, is a
    finite nonzero float; past that the form's set-up overflows."""
    if not (h > 0.0 and 0.0 < h * h < math.inf):
        raise ConfigError(f"{flag}: h = {h} is out of range: expected h > 0 "
                          f"with 0 < h^2 < inf in floating point")
    return h


def _parse_h_list(flag: str, s: str, check=_positive) -> list:
    try:
        values = [float(x) for x in s.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: expected at least one value")
    return [check(flag, x) for x in values]


def _parse_profile(s: str) -> waveguide.WidthProfile:
    kind, _, rest = s.partition(":")
    try:
        if kind == "constant":
            return waveguide.constant_profile(float(rest or 1.0))
        if kind == "gaussian":
            amp, s0, w = (float(x) for x in rest.split(","))
            return waveguide.gaussian_profile(amp=amp, center=s0, width=w)
        if kind == "cosine":
            if rest:
                raise ValueError("cosine takes no parameters")
            return waveguide.cosine_profile()
        if kind == "table":
            data = np.loadtxt(rest, delimiter=",", ndmin=2)
            return waveguide.table_profile(data[:, 0], data[:, 1])
    except (ValueError, IndexError, OSError, InvalidProfile) as exc:
        raise ConfigError(f"--profile: bad {kind} profile {rest!r}: {exc}") from exc
    raise ConfigError(f"--profile: unknown kind {kind!r}")


def _cmd_model1d(args) -> int:
    p = args.p
    if args.sweep:
        try:
            lo, hi, n = args.sweep.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise ConfigError(f"--sweep: expected lo:hi:n ({exc})") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"--sweep: expected finite lo and hi, "
                              f"got {args.sweep}")
        cs = np.linspace(lo, hi, _count("--sweep", n))
    elif args.c is not None:
        if not math.isfinite(args.c):
            raise ConfigError(f"--c: expected a finite number, got {args.c}")
        cs = [args.c]
    else:
        raise ConfigError("model1d: pass --c or --sweep")
    points = model1d.lambda_c_points(cs, p)
    rows = [(pt.c, pt.lam, pt.u0, pt.t_escape) for pt in points]
    header = ["c", "lambda_c", "u0", "T_escape"]
    config = {"p": p, "sweep": args.sweep or f"{args.c}", "seed": args.seed}
    _emit(args.out, _csv_text(config, header, rows))
    if args.json:
        payload = {"rows": [dict(zip(header, r)) for r in rows]}
        atomic_write(args.json, _json_text(config, payload))
    print(f"model1d: {len(rows)} rows, p={p}, "
          f"lambda range [{min(r[1] for r in rows):.6g}, "
          f"{max(r[1] for r in rows):.6g}]")
    return 0


def _cmd_solve(args) -> int:
    """Minimize the quotient; exits 2 when it misses the gradient tolerance.

    el_residual is |L psi - lambda |psi|^{p-2} psi| for L = M^{-1} K and
    the L^p-normalized minimizer.  At p = 2 it is the Krylov-Bogoliubov
    radius: an eigenvalue of the discrete operator lies in
    lambda +- el_residual.
    """
    spec, resolved = load_geometry(args.config)
    _semiclassical("--h", args.h)
    _positive("--grad-tol", args.grad_tol)
    if args.spacing is not None:
        _positive("--spacing", args.spacing)
    spacing = args.spacing or asymptotics.default_mesh_rule(args.h)
    opts = MinimizeOptions(seed=args.seed, grad_tol=args.grad_tol)
    res = solve_lattice(lambda s: assemble(spec, args.h, build_grid(spec, s)),
                        spacing, args.p, opts)
    config = _geometry_config(args, resolved, h=args.h, spacing=spacing,
                              grad_tol=args.grad_tol)
    payload = {
        "lambda": res.lam,
        "normalized_ratio": res.lam / args.h ** asymptotics.h_power(spec.dim, args.p),
        "el_residual": res.el_residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "restart_values": res.restart_values,
        "restart_exits": res.restart_exits,
        "restart_iterations": res.restart_iterations,
        "coarse_values": res.coarse_values,
        "coarse_exits": res.coarse_exits,
        "coarse_iterations": res.coarse_iterations,
        "nodes": res.psi.grid.n_nodes,
        "free_nodes": res.psi.grid.n_free,
    }
    atomic_write(args.out, _json_text(config, payload))
    if args.psi_csv:
        hdr = ["x", "y", "re", "im", "abs"] if spec.dim == 2 else \
            ["x", "re", "im", "abs"]
        _emit(args.psi_csv, _csv_text(config, hdr, list(wavefunction_rows(res.psi))))
    print(f"solve: lambda={res.lam:.8g} residual={res.el_residual:.2e} "
          f"iters={res.iterations} -> {args.out}")
    return 0 if res.converged else 2


def _cmd_concentration(args) -> int:
    """Exits 2 when a sample is unconverged, after writing every row."""
    _count("--n-interior", args.n_interior)
    _count("--n-boundary", args.n_boundary)
    spec, resolved = load_geometry(args.config)
    pts = asymptotics.default_sample_points(spec, args.n_interior, args.n_boundary)
    cmap = models.concentration_map(spec, pts, args.p)
    rows = [(s.x[0], (s.x[1] if len(s.x) > 1 else 0.0), s.kind, s.value,
             int(s.converged)) for s in cmap.samples]
    payload = {"inf": cmap.inf_value, "argmin": [list(s.x) for s in cmap.argmin],
               "delta": cmap.delta}
    return _write_rows(
        args, _geometry_config(args, resolved),
        ["x", "y", "kind", "lambda", "converged"], rows,
        f"concentration: {len(rows)} samples, inf={cmap.inf_value:.8g}, "
        f"|M|={len(cmap.argmin)}", payload)


def _cmd_sweep(args) -> int:
    """Exits 2 when a rung or the target is unconverged, after writing
    every row."""
    spec, resolved = load_geometry(args.config)
    h_list = _parse_h_list("--h-list", args.h_list, _semiclassical)
    rows = asymptotics.sweep(spec, args.p, h_list)
    table = [(r.h, r.lam, r.ratio, r.target, r.gap, r.center[0],
              (r.center[1] if len(r.center) > 1 else 0.0), r.mass_outside,
              r.spacing, int(r.converged)) for r in rows]
    hdr = ["h", "lambda", "ratio", "target", "gap", "center_x", "center_y",
           "mass_outside", "spacing", "converged"]
    return _write_rows(args, _geometry_config(args, resolved,
                                              h_list=args.h_list), hdr, table,
                       f"sweep: {len(rows)} rows, final gap={rows[-1].gap:+.4%}")


def _cmd_large_domain(args) -> int:
    """The sweep rows at h = R^-2, relabelled: lambda_neumann is their
    ratio, and ratio their ratio / target.  Exits 2 when a rung or the
    target is unconverged, after writing every row."""
    spec, resolved = load_geometry(args.config)
    R_list = _parse_h_list("--R-list", args.R_list)
    for R in R_list:
        _semiclassical("--R-list", 1.0 / R / R)     # h = R^-2
    rows = asymptotics.large_domain(spec, args.p, R_list)
    hdr = ["R", "h", "lambda_semiclassical", "lambda_neumann", "ratio",
           "converged"]
    table = [(R, r.h, r.lam, r.ratio, r.ratio / r.target, int(r.converged))
             for R, r in zip(R_list, rows)]
    return _write_rows(
        args, _geometry_config(args, resolved, R_list=args.R_list), hdr, table,
        f"large-domain: {len(rows)} rows, last ratio={table[-1][4]:.6g}")


def _cmd_partition_check(args) -> int:
    _semiclassical("--h", args.h)
    _positive("--spacing", args.spacing)
    _count("--samples", args.samples)
    spec = (load_geometry(args.config)[0] if args.config else
            geometry.GeometrySpec(domain=geometry.plane(3.0), V=1.0, gamma=0.0))
    fam = partition.build_partition(args.alpha, args.rho, args.h, spec.dim)
    grid = build_grid(spec, args.spacing)
    form = assemble(spec, args.h, grid)
    rng = np.random.default_rng(args.seed)
    psi = gaussian_bump(grid, np.zeros(spec.dim), 0.8)
    psi.values = psi.values * (1.0 + 0.3 * rng.standard_normal(grid.n_nodes))
    pts = grid.points
    sum_sq_err = float(np.abs(fam.overlap(pts) - 1.0).max())
    grad_bound = float(fam.grad_sq_sum(pts).max() * args.h ** (2 * args.alpha))
    cell_mass = fam.cell_grad_mass() / (args.h ** (fam.dim * args.rho)
                                        * args.h ** (-args.alpha - args.rho))
    ims_defect = partition.ims_identity_defect(form, psi, fam)
    report = partition.find_translation(form, psi, args.alpha, args.rho,
                                        args.p, n_samples=args.samples,
                                        seed=args.seed)
    config = {"alpha": args.alpha, "rho": args.rho, "h": args.h, "p": args.p,
              "samples": args.samples, "seed": args.seed,
              "spacing": args.spacing}
    payload = {
        "sum_sq_error": sum_sq_err,
        "grad_bound_constant": grad_bound,
        "cell_grad_mass_constant": cell_mass,
        "ims_identity_defect": ims_defect,
        "acceptance_fraction": report.fraction,
        "accepted": report.accepted,
        "tau": list(report.tau),
        "rescaled": report.rescaled,
    }
    atomic_write(args.out, _json_text(config, payload))
    print(f"partition-check: sum_sq_err={sum_sq_err:.2e} "
          f"fraction={report.fraction:.3f} -> {args.out}")
    return 0


def _cmd_waveguide(args) -> int:
    """The waveguide sweep's rows, relabelled: lambda_reduced is their
    lambda, ratio their ratio / target, spacing_s their spacing.  Exits 2
    when a rung or the reference is unconverged, after writing every row."""
    prof = _parse_profile(args.profile)
    h_list = _parse_h_list("--h-list", args.h_list, _semiclassical)
    rows = waveguide.waveguide_sweep(prof, args.p, h_list)
    config = {"profile": args.profile, "p": args.p, "h_list": args.h_list,
              "seed": args.seed}
    hdr = ["h", "lambda_reduced", "ratio", "mass_outside", "spacing_s",
           "converged"]
    table = [(r.h, r.lam, r.ratio / r.target, r.mass_outside, r.spacing,
              int(r.converged)) for r in rows]
    return _write_rows(args, config, hdr, table,
                       f"waveguide: {len(rows)} rows, "
                       f"last ratio={table[-1][2]:.6f}")


def _emit(path: str | None, text: str) -> None:
    if path:
        atomic_write(path, text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="semisobolev",
                 description="Sobolev constants of electro-magnetic Robin "
                             "Laplacians at desk scale")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds `solve` and `partition-check` only; the other "
                         "subcommands fix their solver seeds and just write "
                         "this value in their config header")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("model1d", help="half-line Robin model curves",
                       description="lambda_c, u0 and T_escape of the half-line "
                                   "Robin model (R_+, Id, 1, 0, c) in closed "
                                   "form: the whole-line soliton shifted by "
                                   "artanh(c)")
    m.add_argument("--p", type=float, required=True, help="exponent, 2 < p < inf")
    m.add_argument("--c", type=float, help="Robin slope, |c| < 1")
    m.add_argument("--sweep", help="c_min:c_max:n")
    m.add_argument("--out", help="CSV path (stdout when omitted)")
    m.add_argument("--json", help="optional JSON path")
    m.set_defaults(func=_cmd_model1d, lattice_flags=())

    s = sub.add_parser("solve", help="minimize the quotient on a geometry",
                       description=_cmd_solve.__doc__)
    s.add_argument("--config", required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--out", required=True, help="JSON result path")
    s.add_argument("--psi-csv", help="optional minimizer dump")
    s.add_argument("--spacing", type=float)
    s.add_argument("--grad-tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_solve, lattice_flags=("--config", "--h", "--spacing"))

    c = sub.add_parser("concentration", help="sample the concentration function")
    c.add_argument("--config", required=True)
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--n-interior", type=int, default=25)
    c.add_argument("--n-boundary", type=int, default=16)
    c.add_argument("--out", help="CSV path (stdout when omitted)")
    c.add_argument("--json", help="optional JSON path")
    c.set_defaults(func=_cmd_concentration, lattice_flags=("--config",))

    w = sub.add_parser("sweep", help="semiclassical h-sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--p", type=float, required=True)
    w.add_argument("--h-list", required=True)
    w.add_argument("--out", required=True, help="CSV path")
    w.set_defaults(func=_cmd_sweep, lattice_flags=("--config", "--h-list"))

    ld = sub.add_parser("large-domain", help="Neumann constants of dilated "
                        "domains: the sweep at h = R^-2, each rung started "
                        "from one bump per Robin face and tied value of the "
                        "argmin set and one random field")
    ld.add_argument("--config", required=True)
    ld.add_argument("--p", type=float, required=True)
    ld.add_argument("--R-list", required=True)
    ld.add_argument("--out", help="CSV path (stdout when omitted)")
    ld.set_defaults(func=_cmd_large_domain, lattice_flags=("--config", "--R-list"))

    pc = sub.add_parser("partition-check", help="two-scale partition report")
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--rho", type=float, required=True)
    pc.add_argument("--h", type=float, required=True)
    pc.add_argument("--p", type=float, default=4.0)
    pc.add_argument("--samples", type=int, default=200)
    pc.add_argument("--spacing", type=float, default=0.05)
    pc.add_argument("--config", help="optional geometry (default: 2D box)")
    pc.add_argument("--out", required=True, help="JSON report path")
    pc.set_defaults(func=_cmd_partition_check,
                    lattice_flags=("--config", "--h", "--spacing"))

    wg = sub.add_parser("waveguide", help="shrinking-waveguide sweep")
    wg.add_argument("--profile", required=True,
                    help="constant:v | gaussian:A,s0,w (A >= 0, w > 0) | cosine "
                         "| table:file.csv (rows s,a with s increasing)")
    wg.add_argument("--p", type=float, required=True)
    wg.add_argument("--h-list", required=True)
    wg.add_argument("--out", help="CSV path (stdout when omitted)")
    # a rung's strip lattice: spacing h a_max / 14, length 8 widths
    wg.set_defaults(func=_cmd_waveguide, lattice_flags=("--h-list", "--profile"))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SemisobolevError as exc:
        # the flags that set what each class refuses; ConfigError names its own
        flags = {LatticeOutOfRange: args.lattice_flags,
                 InvalidExponent: ("--p",),
                 InvalidScales: ("--alpha", "--rho", "--h"),
                 NoSolution: ("--c", "--sweep"),
                 ToleranceNotMet: ("--config", "--p", "--c", "--sweep"),
                 AssumptionViolated: ("--config",)}.get(type(exc), ())
        given = {tok.split("=")[0] for tok in argv}
        named = "/".join(f for f in flags if f in given)
        print(f"error: {named + ': ' if named else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
