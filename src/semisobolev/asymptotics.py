"""Semiclassical sweep harnesses: h-scaling, localization, large domains.

For homogeneous geometry the zoom x = sqrt(h) y is exact and gives

    lambda(G, h, p) = h^{1 + d/2 - d/p} lambda(G, 1, p),

also exactly at the discrete level on matched rescaled grids.  For variable
geometry the sweep tabulates the normalized ratio lambda / h^{1+d/2-d/p}
against the infimum of the concentration function; the gap closes at an
algebraic rate bracketed between h^{1/6} and h^{1/2} |log h| factors whose
constants are non-constructive, so only magnitudes and trends are fitted.
Minimizer mass outside the dilated argmin set M_eps decays faster than any
power (stretched-exponentially in h), which is probed by the sign of the
slope of log mass against -h^{-rho}.

Large Neumann domains Omega_R reduce to the semiclassical problem through
the exact identity lambda^Neu(Omega_R, p) = R^{d+2-2d/p} lambda(Omega,
R^{-2}, p); the R -> infinity limit is the half-space reference constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model1d
from .discretize import assemble, build_grid, lp_norm
from .errors import DegenerateFit, EmptyComplement
from .geometry import GeometrySpec, check_exponent
from .minimize import MinimizeOptions, minimize_quotient
from .models import ConcentrationMap, boundary_constant, concentration_map


def h_power(d: int, p: float) -> float:
    """Exponent of the semiclassical prefactor h^{1 + d/2 - d/p}."""
    return 1.0 + d / 2.0 - d / p


def default_mesh_rule(h: float) -> float:
    """Spacing resolving the sqrt(h) localization scale with >= 15 points."""
    return min(0.02, math.sqrt(h) / 15.0)


def default_sample_points(spec: GeometrySpec, n_interior: int = 25,
                          n_boundary: int = 16) -> np.ndarray:
    """Interior lattice plus boundary ring used for the concentration map."""
    dom = spec.domain
    if dom.kind == "disk":
        R, (cx, cy) = dom.radius, dom.center
        pts = [(cx, cy)]
        for rr in np.linspace(0.25 * R, 0.85 * R, max(2, int(math.sqrt(n_interior)))):
            for th in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                pts.append((cx + rr * math.cos(th), cy + rr * math.sin(th)))
        for th in np.linspace(0.0, 2 * math.pi, n_boundary, endpoint=False):
            pts.append((cx + R * math.cos(th), cy + R * math.sin(th)))
        return np.array(pts)
    if dom.dim == 1:
        (lo, hi), = dom.bounds
        inner = np.linspace(lo, hi, n_interior + 2)[1:-1, None]
        ends = [[lo]] if dom.bc[0] == "robin" else []
        ends += [[hi]] if dom.bc[1] == "robin" else []
        return np.vstack([inner] + ([np.array(ends)] if ends else []))
    (x0, x1), (y0, y1) = dom.bounds
    k = max(3, int(math.sqrt(n_interior)))
    xs = np.linspace(x0, x1, k + 2)[1:-1]
    ys = np.linspace(y0, y1, k + 2)[1:-1]
    pts = [(x, y) for x in xs for y in ys]
    for axis, (lo, hi) in enumerate(dom.bounds):
        for side, val in ((0, lo), (1, hi)):
            if dom.bc[axis][side] == "robin":
                other = np.linspace(*dom.bounds[1 - axis], n_boundary // 4 + 2)[1:-1]
                for o in other:
                    pts.append((val, o) if axis == 0 else (o, val))
    return np.array(pts)


@dataclass
class SweepRow:
    h: float
    lam: float
    ratio: float            # lam / h^{1 + d/2 - d/p}
    target: float           # inf of the concentration function
    gap: float              # signed relative gap of ratio vs target
    center: tuple
    mass_outside: float
    spacing: float
    converged: bool = True
    psi: object = field(default=None, repr=False)


def sweep(spec: GeometrySpec, p: float, h_list, cmap: ConcentrationMap | None = None,
          eps: float = 0.2, mesh_rule=None, opts_factory=None,
          keep_fields: bool = True) -> list[SweepRow]:
    """Solve lambda(G, h, p) along decreasing h and compare with the target.

    The concentration map (built from default samples when not supplied)
    fixes the target inf_x lambda(G_x, 1, p), the candidate localization
    centers for initialization, and the set M_eps for the exterior mass.
    """
    check_exponent(p, spec.dim)
    h_list = list(h_list)
    if cmap is None:
        cmap = concentration_map(spec, default_sample_points(spec), p, eps=eps)
    mesh_rule = mesh_rule or default_mesh_rule
    centers = tuple(tuple(x) for x in cmap.argmin_points)
    rows = []
    for h in h_list:
        spacing = mesh_rule(h)
        grid = build_grid(spec, spacing)
        form = assemble(spec, h, grid)
        if opts_factory is not None:
            opts = opts_factory(h)
        else:
            opts = MinimizeOptions(grad_tol=1e-7, restarts=1, seed=7,
                                   bump_width=math.sqrt(h), centers=centers)
        res = minimize_quotient(form, p, opts)
        ratio = res.lam / h ** h_power(spec.dim, p)
        gap = ratio / cmap.inf_value - 1.0
        vals = np.abs(res.psi.values)
        center = tuple(float(c) for c in grid.points[int(np.argmax(vals))])
        outside = cmap.outside_m_eps(grid.points, eps)
        mass = lp_norm(grid.weight[outside], res.psi.values[outside], p)
        rows.append(SweepRow(h=h, lam=res.lam, ratio=ratio,
                             target=cmap.inf_value, gap=gap, center=center,
                             mass_outside=mass, spacing=spacing,
                             converged=res.converged,
                             psi=res.psi if keep_fields else None))
    return rows


def fit_correction(rows) -> tuple[float, float]:
    """Least-squares slope of log |gap| against log h, with r^2.

    Raises DegenerateFit when fewer than 4 rows carry gaps above solver
    tolerance; the paper only brackets the exponent, so callers should
    report rather than assert the value.
    """
    pts = [(r.h, abs(r.gap)) for r in rows if abs(r.gap) > 1e-12]
    if len(pts) < 4:
        raise DegenerateFit(f"only {len(pts)} usable rows with nonzero gaps")
    lh = np.log([a for a, _ in pts])
    lg = np.log([b for _, b in pts])
    A = np.stack([lh, np.ones_like(lh)], axis=1)
    coef, res_, *_ = np.linalg.lstsq(A, lg, rcond=None)
    ss_tot = float(((lg - lg.mean()) ** 2).sum())
    ss_res = float(res_[0]) if len(res_) else float(((A @ coef - lg) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


@dataclass
class LocalizationRow:
    h: float
    mass_outside: float
    decay_rate: float


@dataclass
class LocalizationReport:
    rows: list
    slope: float            # of log m(h) against -h^{-rho}; positive expected
    rho: float


def localization_report(rows, cmap: ConcentrationMap, eps: float,
                        rho: float = 0.3) -> LocalizationReport:
    """Exterior-mass decay table from sweep rows that kept their fields.

    Raises EmptyComplement when M_eps covers every grid node.  The
    per-minimizer decay rate is the slope of log |psi| against distance
    from the localization center (Agmon-type fit over the mid-range of
    radii).
    """
    if not 0.0 < rho < 0.5:
        raise ValueError("rho must lie in (0, 1/2)")
    out = []
    for r in rows:
        psi = r.psi
        if psi is None:
            raise ValueError("sweep was run with keep_fields=False")
        grid = psi.grid
        outside = cmap.outside_m_eps(grid.points, eps)
        if not np.any(outside):
            raise EmptyComplement("M_eps covers the whole grid")
        mass = r.mass_outside
        dist = np.linalg.norm(grid.points - np.asarray(r.center), axis=1)
        vals = np.abs(psi.values)
        sel = (vals > 1e-12) & (dist > 0.1 * dist.max()) & (dist < 0.7 * dist.max())
        if sel.sum() > 10:
            A = np.stack([dist[sel], np.ones(int(sel.sum()))], axis=1)
            coef, *_ = np.linalg.lstsq(A, np.log(vals[sel]), rcond=None)
            rate = -float(coef[0])
        else:
            rate = math.nan
        out.append(LocalizationRow(h=r.h, mass_outside=mass, decay_rate=rate))
    xs = np.array([-r.h ** (-rho) for r in out])
    ys = np.array([math.log(max(r.mass_outside, 1e-300)) for r in out])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return LocalizationReport(rows=out, slope=float(coef[0]), rho=rho)


@dataclass
class LargeDomainRow:
    R: float
    h: float
    lam_semiclassical: float
    lam_neumann: float
    ratio: float
    converged: bool = True


def boundary_centers(spec: GeometrySpec) -> tuple:
    """Candidate localization points on the Robin boundary plus the center."""
    dom = spec.domain
    if dom.kind == "disk":
        cx, cy = dom.center
        return ((cx + dom.radius, cy), (cx, cy))
    if dom.dim == 1:
        (lo, hi), = dom.bounds
        pts = [(lo,)] if dom.bc[0] == "robin" else []
        pts += [(hi,)] if dom.bc[1] == "robin" else []
        return tuple(pts) + ((0.5 * (lo + hi),),)
    (x0, x1), (y0, y1) = dom.bounds
    pts = [(x0, y0), (x1, y1), (0.5 * (x0 + x1), y0), (x0, 0.5 * (y0 + y1))]
    pts.append((0.5 * (x0 + x1), 0.5 * (y0 + y1)))
    return tuple(pts)


def large_domain(spec: GeometrySpec, p: float, R_list, mesh_rule=None,
                 reference: float | None = None) -> list[LargeDomainRow]:
    """lambda^Neu(Omega_R, p) via the exact reformulation h = R^{-2}.

    Requires the fixed data V = 1, A = 0, gamma = 0.  The reported ratio is
    against the half-space (d = 2) or half-line (d = 1) Neumann constant,
    which the ratio approaches from below as R grows (for smooth domains;
    corners attract more strongly and push the limit ratio below 1).
    """
    if spec.A is not None or (not callable(spec.V) and float(spec.V) != 1.0):
        raise ValueError("large-domain reduction assumes V = 1, A = 0, gamma = 0")
    d = spec.dim
    check_exponent(p, d)
    if reference is None:
        if d == 1:
            reference = model1d.lambda_c(0.0, p)
        else:
            reference = boundary_constant(0.0, 1.0, 0.0, p, dim=d)
    mesh_rule = mesh_rule or default_mesh_rule
    rows = []
    for R in R_list:
        h = R ** (-2.0)
        spacing = mesh_rule(h)
        grid = build_grid(spec, spacing)
        form = assemble(spec, h, grid)
        opts = MinimizeOptions(grad_tol=1e-7, restarts=1, seed=11,
                               bump_width=math.sqrt(h),
                               centers=boundary_centers(spec))
        res = minimize_quotient(form, p, opts)
        lam_neu = R ** (d + 2.0 - 2.0 * d / p) * res.lam
        rows.append(LargeDomainRow(R=R, h=h, lam_semiclassical=res.lam,
                                   lam_neumann=lam_neu,
                                   ratio=lam_neu / reference,
                                   converged=res.converged))
    return rows
