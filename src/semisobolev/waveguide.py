"""Shrinking planar waveguides: the reduced anisotropic strip problem.

A tube of half-height h a(s) over a curve, with Dirichlet walls, pulls
back (after the flattening change of variables and the substitution
phi = a^{1/p} psi) to the weighted strip form on Sigma = R x (-1, 1):

    Q_{a,h}(phi) = int h^2 a(s)^{1-2/p} |d_s phi|^2
                   + a(s)^{-1-2/p} |d_t phi|^2  ds dt,

whose quotient against |phi|_{L^p}^2 matches the physical Dirichlet
quotient up to two-sided (1 +- C h) factors.  For constant height the
rescale sigma = (s - s_max) / (h a_max) is exact and gives

    lambda_reduced = h^{1-2/p} a_max^{-4/p} lambda^Dir(Sigma, p),

which is also exact on matched lattices; variable profiles approach this
value as h -> 0 while the minimizer concentrates near the maxima of a.
The straight-strip constant lambda^Dir(Sigma, p) is computed once on a
sigma-grid with the same resolution so that leading mesh errors cancel in
the reported ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import geometry
from .discretize import (AssembledForm, Grid, build_grid, lp_norm,
                         DIRICHLET as _DIR, INTERIOR as _INT)
from .errors import InvalidProfile, NoConvergence
from .geometry import GeometrySpec
from .minimize import MinimizeOptions, minimize_quotient

_ref_cache: dict = {}


@dataclass
class WidthProfile:
    """Variable half-height a(s) in [a0, a1] with an attained maximum."""

    func: object
    a0: float
    a1: float
    s_max: float
    a_max: float
    width: float = 1.0      # truncation length scale of the bump
    label: str = ""

    def __post_init__(self):
        if self.a0 <= 0.0:
            raise InvalidProfile(f"profile must stay positive, a0 = {self.a0}")

    def __call__(self, s):
        return np.asarray(self.func(np.asarray(s, dtype=float)), dtype=float)


def constant_profile(value: float = 1.0) -> WidthProfile:
    return WidthProfile(func=lambda s: np.full_like(s, value, dtype=float),
                        a0=value, a1=value, s_max=0.0, a_max=value,
                        width=1.0, label=f"constant:{value}")


def gaussian_profile(amp: float = 0.5, center: float = 0.0,
                     width: float = 1.0, base: float = 1.0) -> WidthProfile:
    f = lambda s: base + amp * np.exp(-((s - center) / width) ** 2)
    return WidthProfile(func=f, a0=base, a1=base + amp, s_max=center,
                        a_max=base + amp, width=width,
                        label=f"gaussian:{amp},{center},{width}")


def cosine_profile(amp: float = 0.25, wavelength: float = 8.0,
                   base: float = 1.0) -> WidthProfile:
    f = lambda s: base + amp * np.cos(2.0 * math.pi * s / wavelength)
    return WidthProfile(func=f, a0=base - amp, a1=base + amp, s_max=0.0,
                        a_max=base + amp, width=wavelength / 2.0,
                        label="cosine")


def table_profile(s_vals, a_vals) -> WidthProfile:
    s_vals = np.asarray(s_vals, dtype=float)
    a_vals = np.asarray(a_vals, dtype=float)
    f = lambda s: np.interp(s, s_vals, a_vals)
    k = int(np.argmax(a_vals))
    return WidthProfile(func=f, a0=float(a_vals.min()), a1=float(a_vals.max()),
                        s_max=float(s_vals[k]), a_max=float(a_vals.max()),
                        width=float(max(s_vals.max() - s_vals.min(), 1.0) / 4.0),
                        label="table")


def _anisotropic_form(grid: Grid, mult: np.ndarray) -> AssembledForm:
    """Real form sum_e mult_e coeff_e |psi_b - psi_a|^2 on a Dirichlet grid."""
    kin = mult * grid.edge_coeff
    fa = grid.free_index[grid.edges[:, 0]]
    fb = grid.free_index[grid.edges[:, 1]]
    nf = grid.n_free
    both = (fa >= 0) & (fb >= 0)
    rows = [fa[both], fb[both]]
    cols = [fb[both], fa[both]]
    vals = [-kin[both], -kin[both]]
    for f in (fa, fb):
        m = f >= 0
        rows.append(f[m])
        cols.append(f[m])
        vals.append(kin[m])
    K = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nf, nf))
    spec = GeometrySpec(domain=grid.domain, V=0.0, A=None,
                        gamma=geometry.DIRICHLET)
    return AssembledForm(grid=grid, spec=spec, h=1.0, K=K.tocsr(),
                         weight=grid.weight[grid.free],
                         edge_phase=np.zeros(len(kin)), edge_kin=kin,
                         is_complex=False)


def assemble_waveguide_form(profile: WidthProfile, h: float, p: float,
                            s_halfwidth: float | None = None,
                            dsigma: float = 1.0 / 14.0,
                            nt: int = 41) -> AssembledForm:
    """Weighted strip form with coefficients frozen at edge midpoints.

    The s-spacing resolves the h a_max localization scale (dsigma per
    unit of the rescaled variable); truncation sits s_halfwidth (default
    8 bump widths) beyond the argmax, with Dirichlet caps.
    """
    if profile.a0 <= 0.0:
        raise InvalidProfile("a must be bounded below by a positive constant")
    s_halfwidth = 8.0 * profile.width if s_halfwidth is None else s_halfwidth
    ds = h * profile.a_max * dsigma
    dt = 2.0 / (nt - 1)
    dom = geometry.strip(profile.s_max - s_halfwidth, profile.s_max + s_halfwidth)
    spec = GeometrySpec(domain=dom, V=0.0, A=None, gamma=geometry.DIRICHLET)
    grid = build_grid(spec, (ds, dt))
    mids = 0.5 * (grid.points[grid.edges[:, 0], 0]
                  + grid.points[grid.edges[:, 1], 0])
    a_mid = profile(mids)
    mult = np.where(grid.edge_axis == 0,
                    h * h * a_mid ** (1.0 - 2.0 / p),
                    a_mid ** (-1.0 - 2.0 / p))
    return _anisotropic_form(grid, mult)


def straight_reference(p: float, dsigma: float = 1.0 / 14.0, nt: int = 41,
                       tol: float = 0.002, max_doublings: int = 4) -> float:
    """lambda^Dir(Sigma, p) on the unit strip, truncation grown to stability.

    At p = 2 this approaches the transverse Dirichlet threshold pi^2/4
    from above (essential spectrum bottom, not attained on the infinite
    strip); for p > 2 the minimizer is exponentially localized and the
    value stabilizes quickly under doubling of the truncation.
    """
    key = (p, dsigma, nt)
    if key in _ref_cache:
        return _ref_cache[key]
    prof = constant_profile(1.0)
    prev = None
    s_half = 12.0
    for _ in range(max_doublings + 1):
        form = assemble_waveguide_form(prof, 1.0, p, s_halfwidth=s_half,
                                       dsigma=dsigma, nt=nt)
        opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=3,
                               centers=((0.0, 0.0),), bump_width=1.0)
        lam = minimize_quotient(form, p, opts).lam
        if prev is not None and abs(lam - prev) <= tol * abs(prev):
            _ref_cache[key] = lam
            return lam
        prev = lam
        s_half *= 2.0
    raise NoConvergence("straight reference did not stabilize under doubling")


@dataclass
class WaveguideRow:
    h: float
    lam_reduced: float
    ratio: float
    mass_outside: float
    spacing_s: float
    converged: bool = True
    psi: object = field(default=None, repr=False)


def waveguide_sweep(profile: WidthProfile, p: float, h_list,
                    eps: float | None = None, dsigma: float = 1.0 / 14.0,
                    nt: int = 41, reference: float | None = None,
                    keep_fields: bool = False) -> list[WaveguideRow]:
    """Reduced-quotient sweep with ratios against the frozen-height value.

    ratio_h = lambda_reduced(h) / (h^{1-2/p} a_max^{-4/p} lambda^Dir(Sigma, p))
    tends to 1 from within the (1 - C sqrt(h), 1 + C h) bracket; the mass
    at distance > eps from the argmax of a decays stretched-exponentially.
    """
    ref = straight_reference(p, dsigma, nt) if reference is None else reference
    eps = profile.width if eps is None else eps
    rows = []
    for h in h_list:
        form = assemble_waveguide_form(profile, h, p, dsigma=dsigma, nt=nt)
        opts = MinimizeOptions(grad_tol=1e-8, restarts=1, seed=5,
                               centers=((profile.s_max, 0.0),),
                               bump_width=max(h * profile.a_max, 2e-2))
        res = minimize_quotient(form, p, opts)
        target = h ** (1.0 - 2.0 / p) * profile.a_max ** (-4.0 / p) * ref
        grid = form.grid
        s = grid.points[:, 0]
        outside = np.abs(s - profile.s_max) > eps
        mass = lp_norm(grid.weight[outside], res.psi.values[outside], p)
        rows.append(WaveguideRow(h=h, lam_reduced=res.lam,
                                 ratio=res.lam / target, mass_outside=mass,
                                 spacing_s=grid.spacing[0],
                                 converged=res.converged,
                                 psi=res.psi if keep_fields else None))
    return rows


# ---------------------------------------------------------------------------
# physical tube (straight axis) for the bracketing check
# ---------------------------------------------------------------------------

def _tube_grid(profile: WidthProfile, h: float, ds: float, dy: float,
               s_halfwidth: float) -> Grid:
    """Masked lattice for the set {|y| < h a(s)} with Dirichlet staircase."""
    s_lo = profile.s_max - s_halfwidth
    s_hi = profile.s_max + s_halfwidth
    ns = int(round((s_hi - s_lo) / ds)) + 1
    svals = np.linspace(s_lo, s_hi, ns)
    ds = svals[1] - svals[0]
    ymax = h * profile.a1
    ny_half = int(math.ceil(ymax / dy)) + 1
    yvals = dy * np.arange(-ny_half, ny_half + 1)
    ny = len(yvals)
    S, Y = np.meshgrid(svals, yvals, indexing="ij")
    pts = np.stack([S.ravel(), Y.ravel()], axis=-1)
    height = h * profile(pts[:, 0])
    inside = np.abs(pts[:, 1]) < height
    lat = np.arange(ns * ny).reshape(ns, ny)
    gidx = -np.ones(ns * ny, dtype=np.int64)
    gidx[inside] = np.arange(int(inside.sum()))
    n = int(inside.sum())
    kind = np.full(n, _INT, dtype=np.uint8)
    has_all = np.ones(n, dtype=bool)
    edges, eaxis, ecoeff, elen = [], [], [], []
    for axis, (di, dj, step) in enumerate(((1, 0, ds), (0, 1, dy))):
        a_l = lat[: ns - di, : ny - dj].ravel()
        b_l = lat[di:, dj:].ravel()
        ok = inside[a_l] & inside[b_l]
        a, b = gidx[a_l[ok]], gidx[b_l[ok]]
        edges.append(np.stack([a, b], axis=-1))
        eaxis.append(np.full(len(a), axis, dtype=np.uint8))
        trans = dy if axis == 0 else ds
        ecoeff.append(np.full(len(a), trans / step))
        elen.append(np.full(len(a), step))
        for la, lb in ((a_l, b_l), (b_l, a_l)):
            miss = inside[la] & ~inside[lb]
            has_all[gidx[la[miss]]] = False
    # staircase rim and the s-caps carry Dirichlet data
    first_last = (np.abs(pts[inside][:, 0] - s_lo) < ds / 2) | \
                 (np.abs(pts[inside][:, 0] - s_hi) < ds / 2)
    kind[~has_all | first_last] = _DIR
    dom = geometry.rectangle(((s_lo, s_hi), (-ymax, ymax)),
                             (("dirichlet", "dirichlet"),
                              ("dirichlet", "dirichlet")))
    return Grid(dim=2, spacing=(ds, dy), points=pts[inside], kind=kind,
                weight=np.full(n, ds * dy), surface_weight=np.zeros(n),
                edges=np.concatenate(edges), edge_axis=np.concatenate(eaxis),
                edge_coeff=np.concatenate(ecoeff),
                edge_len=np.concatenate(elen), domain=dom)


def physical_tube_quotient(profile: WidthProfile, h: float, p: float,
                           dsigma: float = 1.0 / 12.0, ny: int | None = None,
                           s_halfwidth: float | None = None) -> float:
    """Dirichlet quotient of the genuine (straight-axis) tube Sigma_h.

    The curved walls are approximated by a Dirichlet staircase, a
    first-order rim treatment; the transverse node count grows like 1/h
    (ny defaults to 12/h) so that the staircase bias stays inside the
    two-sided (1 +- C h) equivalence being checked.
    """
    s_halfwidth = 6.0 * profile.width if s_halfwidth is None else s_halfwidth
    if ny is None:
        ny = max(32, int(math.ceil(12.0 / h)))
    ds = h * profile.a_max * dsigma
    dy = 2.0 * h * profile.a_max / ny
    grid = _tube_grid(profile, h, ds, dy, s_halfwidth)
    mult = np.ones(len(grid.edges))
    form = _anisotropic_form(grid, mult)
    opts = MinimizeOptions(grad_tol=1e-8, restarts=1, seed=9,
                           centers=((profile.s_max, 0.0),),
                           bump_width=h * profile.a_max)
    return minimize_quotient(form, p, opts).lam
