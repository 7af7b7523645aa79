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
The straight-strip constant lambda^Dir(Sigma, p) is taken on a sigma-grid
with the same resolution so that leading mesh errors cancel in the
reported ratios, at p = 2 exactly: it is then that lattice's closed-form
infimum.  At p > 2 its minimizer, zoomed by the same rescale onto the
s-lattice of a rung, is the model minimizer the semiclassical picture
puts at the widest point, and it is each rung's one start.  A rung's row
is the `asymptotics.SweepRow` of every h-ladder: lambda_reduced, its
ratio to h^{1-2/p}, the target a_max^{-4/p} lambda^Dir(Sigma, p), and the
mass at distance > width from s_max, on the rung's strip lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, models
from .asymptotics import SweepRow, rung_row
from .discretize import (AssembledForm, WaveFunction, assemble, build_grid,
                         lp_norm)
from .errors import InvalidProfile
from .geometry import GeometrySpec
from .minimize import MinimizeOptions, solve_lattice

_DSIGMA = 1.0 / 14.0    # s-spacing per unit of the rescaled variable sigma
_NT = 41                # transverse nodes across t in [-1, 1]
_REF_HALFWIDTH = 12.0   # s-truncation of the straight-strip reference
_TAIL_S = 9.0           # where its tail starts: |s| > 3/4 _REF_HALFWIDTH
_TAIL = 1e-3            # the largest L^p mass of that tail


@dataclass
class WidthProfile:
    """Variable half-height a(s) >= a0 > 0 with an attained maximum."""

    func: object
    a0: float
    s_max: float
    a_max: float
    width: float = 1.0      # truncation length scale of the bump

    def __post_init__(self):
        numbers = (self.a0, self.s_max, self.a_max, self.width)
        if not all(map(math.isfinite, numbers)):
            raise InvalidProfile(f"profile numbers must be finite, got a0, "
                                 f"s_max, a_max, width = {numbers}")
        if self.a0 <= 0.0:
            raise InvalidProfile(f"profile must stay positive, a0 = {self.a0}")
        if self.width <= 0.0:
            raise InvalidProfile(f"profile width must be > 0, got {self.width}")

    def __call__(self, s):
        return np.asarray(self.func(np.asarray(s, dtype=float)), dtype=float)


def constant_profile(value: float = 1.0) -> WidthProfile:
    return WidthProfile(func=lambda s: np.full_like(s, value, dtype=float),
                        a0=value, s_max=0.0, a_max=value, width=1.0)


def gaussian_profile(amp: float = 0.5, center: float = 0.0,
                     width: float = 1.0) -> WidthProfile:
    """1 + amp exp(-((s - center) / width)^2); amp >= 0, since a dip has
    no attained maximum."""
    if not amp >= 0.0:
        raise InvalidProfile(f"gaussian amplitude must be >= 0, got {amp}")
    f = lambda s: 1.0 + amp * np.exp(-((s - center) / width) ** 2)
    return WidthProfile(func=f, a0=1.0, s_max=center, a_max=1.0 + amp,
                        width=width)


def cosine_profile() -> WidthProfile:
    f = lambda s: 1.0 + 0.25 * np.cos(2.0 * math.pi * s / 8.0)
    return WidthProfile(func=f, a0=0.75, s_max=0.0, a_max=1.25, width=4.0)


def table_profile(s_vals, a_vals) -> WidthProfile:
    """Piecewise-linear a(s) through at least 2 finite rows, s strictly
    increasing (np.interp reads s in that order)."""
    s_vals = np.asarray(s_vals, dtype=float)
    a_vals = np.asarray(a_vals, dtype=float)
    if not (len(s_vals) >= 2 and np.all(np.isfinite(s_vals))
            and np.all(np.isfinite(a_vals)) and np.all(np.diff(s_vals) > 0.0)):
        raise InvalidProfile("table needs at least 2 finite rows with s "
                             f"strictly increasing, got s = {s_vals}, "
                             f"a = {a_vals}")
    f = lambda s: np.interp(s, s_vals, a_vals)
    k = int(np.argmax(a_vals))
    return WidthProfile(func=f, a0=float(a_vals.min()),
                        s_max=float(s_vals[k]), a_max=float(a_vals.max()),
                        width=float(max(s_vals.max() - s_vals.min(), 1.0) / 4.0))


def assemble_waveguide_form(profile: WidthProfile, h: float, p: float,
                            s_halfwidth: float | None = None,
                            spacing: tuple | None = None) -> AssembledForm:
    """Weighted strip form with coefficients frozen at edge midpoints.

    The s-spacing resolves the h a_max localization scale (_DSIGMA per
    unit of the rescaled variable) and _NT nodes span t in [-1, 1], unless
    `spacing` gives (ds, dt); truncation sits s_halfwidth (default 8 bump
    widths) beyond the argmax, with Dirichlet caps.  The weights
    h^2 a^{1-2/p} (s-edges) and a^{-1-2/p} (t-edges) multiply the plain
    strip's edge coefficients, and the form is assembled at h = 1.
    """
    s_halfwidth = 8.0 * profile.width if s_halfwidth is None else s_halfwidth
    spacing = spacing or _spacing(profile, h)
    dom = geometry.strip(profile.s_max - s_halfwidth, profile.s_max + s_halfwidth)
    spec = GeometrySpec(domain=dom, V=0.0, A=None, gamma=0.0)
    grid = build_grid(spec, spacing)
    # a varies along s only: weigh each s-column once, at the midpoints
    # between columns (s-edges) and at its nodes (t-edges).  The box grid
    # lists the n_t s-edges leaving each column, column by column, then
    # the n_t - 1 t-edges within each column.
    n_t = grid.shape[1]
    s = grid.points[::n_t, 0]
    mult = np.concatenate((
        np.repeat(h * h * profile(0.5 * (s[:-1] + s[1:])) ** (1.0 - 2.0 / p),
                  n_t),
        np.repeat(profile(s) ** (-1.0 - 2.0 / p), n_t - 1)))
    return assemble(spec, 1.0, replace(grid, edge_coeff=grid.edge_coeff * mult))


def _spacing(profile: WidthProfile, h: float) -> tuple:
    """(ds, dt) of the strip lattice at h."""
    return h * profile.a_max * _DSIGMA, 2.0 / (_NT - 1)


def _solve(profile: WidthProfile, h: float, p: float, opts: MinimizeOptions,
           s_halfwidth: float | None = None,
           start: WaveFunction | None = None):
    """The minimizer of the strip form at h, nested in the strip at twice
    both spacings; a `start` (the zoomed straight-strip minimizer,
    `_zoomed`) is polished on the fine strip alone (`solve_lattice`)."""
    return solve_lattice(
        lambda s: assemble_waveguide_form(profile, h, p, s_halfwidth, s),
        _spacing(profile, h), p, opts, start)


def _transverse_ground() -> float:
    """(2/dt sin(pi dt / 4))^2, the lowest Dirichlet eigenvalue of the
    strip lattice's t-mesh."""
    dt = 2.0 / (_NT - 1)
    return (2.0 / dt * math.sin(0.25 * math.pi * dt)) ** 2


def straight_reference(p: float) -> float:
    """lambda^Dir(Sigma, p) on the unit strip, on the lattice of the rungs.

    At p = 2 it is the infimum of the strip lattice, not attained: the
    lowest transverse Dirichlet eigenvalue (2/dt sin(pi dt / 4))^2 of the
    rungs' t-mesh, which lies below pi^2/4 by that mesh's error, so the
    error cancels exactly in the ratios.  Nothing is solved or stored.
    For p > 2 the minimizer decays like exp(-pi |s| / 2) whatever p, so
    the truncation at s_halfwidth = _REF_HALFWIDTH fixes the value: one
    nested solve, its bump and random starts descending on the strip at
    twice both spacings first and only their distinct minima polished.
    The converged result, its minimizer with it (the start of every
    rung), is kept under ("strip", p) in `models.memo`, shared with the
    model constants.  An unconverged solve, or a minimizer whose L^p mass
    on the tail |s| > _TAIL_S exceeds _TAIL, is a miss, counted and not
    stored, and its value is returned.
    """
    if p == 2.0:
        return _transverse_ground()
    profile = constant_profile(1.0)

    def solve():
        opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=3,
                               centers=((0.0, 0.0),), bump_width=1.0)
        res = _solve(profile, 1.0, p, opts, _REF_HALFWIDTH)
        grid = res.psi.grid
        tail = np.abs(grid.points[:, 0]) > _TAIL_S
        if lp_norm(grid.weight[tail], res.psi.values[tail], p) > _TAIL:
            res.converged = False
        return res

    return models.memo(("strip", p), solve)


def _zoomed(psi: WaveFunction, profile: WidthProfile, h: float) -> WaveFunction:
    """The straight-strip minimizer psi(sigma, t) at s = s_max + h a_max
    sigma on the strip lattice at h, over |sigma| <= 2 _REF_HALFWIDTH
    (its tail is below 1e-16 of its peak there).  Past |sigma| = _TAIL_S,
    where its truncation's Dirichlet cap starts to bend it, the column k
    further out is the column there times r^k, the decay of the lattice's
    linear tail: r + 1/r = 2 + dsigma^2 `_transverse_ground()`."""
    reach = 2.0 * _REF_HALFWIDTH * h * profile.a_max
    grid = build_grid(GeometrySpec(domain=geometry.strip(
        profile.s_max - reach, profile.s_max + reach), V=0.0, A=None,
        gamma=0.0), _spacing(profile, h))
    k = np.arange(grid.shape[0]) - grid.shape[0] // 2     # columns from s_max
    m = round(_TAIL_S / _DSIGMA)
    b = 1.0 + 0.5 * _DSIGMA ** 2 * _transverse_ground()
    values = (psi.values.reshape(psi.grid.shape)[
        np.clip(k, -m, m) + psi.grid.shape[0] // 2]
        * (b - math.sqrt(b * b - 1.0)) ** np.maximum(np.abs(k) - m, 0)[:, None])
    return WaveFunction(grid, np.where(grid.free, values.ravel(), 0.0))


def waveguide_sweep(profile: WidthProfile, p: float, h_list) -> list[SweepRow]:
    """Reduced-quotient sweep: one `rung_row` per h, whose ratio
    lambda_reduced / h^{1-2/p} tends to the frozen-height target
    a_max^{-4/p} lambda^Dir(Sigma, p) within (1 - C sqrt(h), 1 + C h)
    factors, and whose mass at distance > profile.width from s_max, the
    argmax of a, decays stretched-exponentially.  A row is converged only
    if its rung and the reference are; a miss of the reference is counted,
    not stored, in the memo it shares with the model constants, and every
    row is still made.

    At p > 2 every rung starts from the stored reference minimizer, zoomed
    onto its lattice and continued past its truncation (`_zoomed`), which
    the fine strip polishes alone.  At p = 2, whose reference is a closed
    form, or when the reference missed, nothing is stored, and a rung
    takes `solve_lattice`'s own starts on the coarse strip first: the
    random field at p = 2, a bump at the argmax and a random field at
    p > 2.
    """
    ref, reference_ok = models.solved(straight_reference, p)
    model = models.stored(("strip", p))
    rows = []
    for h in h_list:
        opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=5,
                               centers=((profile.s_max, 0.0),),
                               bump_width=max(h * profile.a_max, 2e-2))
        res = _solve(profile, h, p, opts, start=None if model is None
                     else _zoomed(model.psi, profile, h))
        rows.append(rung_row(
            h, p, res, 1.0 - 2.0 / p, profile.a_max ** (-4.0 / p) * ref,
            reference_ok,
            lambda pts: np.abs(pts[:, 0] - profile.s_max) > profile.width))
    return rows
