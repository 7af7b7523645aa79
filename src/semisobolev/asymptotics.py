"""Semiclassical sweep harnesses: h-scaling and large domains.

For homogeneous geometry the zoom x = sqrt(h) y is exact and gives

    lambda(G, h, p) = h^{1 + d/2 - d/p} lambda(G, 1, p),

also exactly at the discrete level on matched rescaled grids.  For variable
geometry the sweep tabulates the normalized ratio lambda / h^{1+d/2-d/p}
against the infimum of the concentration function; the gap closes at an
algebraic rate bracketed between h^{1/6} and h^{1/2} |log h| factors whose
constants are non-constructive, so only magnitudes and trends are fitted.
Every h-ladder (the sweep, large domains, the waveguide sweep) reports one
`SweepRow` per rung, made by `rung_row`: lambda, its ratio to h^power
against the ladder's target and their gap, the argmax of |psi|, the L^p
mass off the concentration set (here the dilated argmin set M_eps, where
it decays stretched-exponentially in h), the lattice's spacing along axis
0, and whether the rung and the target converged.

Each rung starts from one random field and one Gaussian bump per class of
argmin samples: those on one Robin face (a disk rim, a box face (axis,
side), or the interior) whose model values tie within `minimize._TIE`.

Large Neumann domains Omega_R reduce to the semiclassical problem through
the exact identity lambda^Neu(Omega_R, p) = R^{d+2-2d/p} lambda(Omega,
R^{-2}, p), so the large-domain rows are the sweep rows at h = R^{-2}; the
R -> infinity limit is the half-space reference constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .discretize import assemble, build_grid, lp_norm
from .errors import ConfigError
from .geometry import GeometrySpec, check_exponent
from .minimize import _TIE, MinimizeOptions, MinimizerResult, solve_lattice
from .models import ConcentrationMap, concentration_map, robin_face

_SEED = 11      # seed of every rung's random start


def h_power(d: int, p: float) -> float:
    """Exponent of the semiclassical prefactor h^{1 + d/2 - d/p}."""
    return 1.0 + d / 2.0 - d / p


def default_mesh_rule(h: float) -> float:
    """Spacing resolving the sqrt(h) localization scale with >= 15 points."""
    return min(0.02, math.sqrt(h) / 15.0)


def default_sample_points(spec: GeometrySpec, n_interior: int = 25,
                          n_boundary: int = 16) -> np.ndarray:
    """Interior lattice plus samples on the Robin faces (n_boundary on a
    disk rim, max(1, n_boundary // 4) along each face of a rectangle, the
    end itself on an interval) for the concentration map."""
    dom = spec.domain
    if dom.kind == "disk":
        R, (cx, cy) = dom.radius, dom.center
        pts = [(cx, cy)]
        for rr in np.linspace(0.25 * R, 0.85 * R, max(2, int(math.sqrt(n_interior)))):
            for th in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                pts.append((cx + rr * math.cos(th), cy + rr * math.sin(th)))
        if dom.bc[0][0] == "robin":
            for th in np.linspace(0.0, 2 * math.pi, n_boundary, endpoint=False):
                pts.append((cx + R * math.cos(th), cy + R * math.sin(th)))
        return np.array(pts)

    def inner(bounds, k):
        return np.linspace(*bounds, k + 2)[1:-1]

    k = n_interior if dom.dim == 1 else max(3, int(math.sqrt(n_interior)))
    pts = list(itertools.product(*(inner(b, k) for b in dom.bounds)))
    per_face = max(1, n_boundary // 4)
    for axis, bcs in enumerate(dom.bc):
        across = [inner(b, per_face) for o, b in enumerate(dom.bounds) if o != axis]
        for val, bc in zip(dom.bounds[axis], bcs):
            if bc == "robin":
                pts += [x[:axis] + (val,) + x[axis:]
                        for x in itertools.product(*across)]
    return np.array(pts)


def rung_centers(spec: GeometrySpec, cmap: ConcentrationMap) -> tuple:
    """The first argmin sample of each class, in sample order: the argmin
    samples on one `robin_face` whose model values tie within _TIE."""
    kept = []           # (face, value, x) of each class
    for s in cmap.argmin:
        face = robin_face(spec.domain, s.x)
        if not any(f == face and abs(v - s.value) <= _TIE for f, v, _ in kept):
            kept.append((face, s.value, s.x))
    return tuple(x for *_, x in kept)


def _rung(spec: GeometrySpec, h: float, p: float,
          centers: tuple) -> MinimizerResult:
    """The minimizer at h on the grid of default_mesh_rule(h), started
    from a bump of width sqrt(h) at each center and from the random field
    of _SEED; `solve_lattice` descends every start first on the lattice of
    twice the spacing, and polishes only the distinct minima."""
    opts = MinimizeOptions(grad_tol=1e-7, restarts=1, seed=_SEED,
                           bump_width=math.sqrt(h), centers=centers)
    return solve_lattice(lambda s: assemble(spec, h, build_grid(spec, s)),
                         default_mesh_rule(h), p, opts)


@dataclass
class SweepRow:
    h: float
    lam: float
    ratio: float            # lam / h^power, power fixed by the ladder
    target: float           # the limit of ratio as h -> 0
    gap: float              # signed relative gap of ratio vs target
    center: tuple           # the node where |psi| is largest
    mass_outside: float     # L^p mass of psi off the concentration set
    spacing: float          # the rung lattice's spacing along axis 0
    converged: bool = True


def rung_row(h: float, p: float, res: MinimizerResult, power: float,
             target: float, target_ok: bool, outside) -> SweepRow:
    """The row of the rung at h: ratio = lam / h^power against `target`,
    the argmax of |psi|, the L^p mass on the nodes where
    `outside(points)`, and the lattice's own spacing along axis 0; it is
    converged only if the rung is and `target_ok`."""
    grid = res.psi.grid
    ratio = res.lam / h ** power
    center = grid.points[int(np.argmax(np.abs(res.psi.values)))]
    off = outside(grid.points)
    return SweepRow(h=h, lam=res.lam, ratio=ratio, target=target,
                    gap=ratio / target - 1.0, center=tuple(map(float, center)),
                    mass_outside=lp_norm(grid.weight[off], res.psi.values[off], p),
                    spacing=float(grid.spacing[0]),
                    converged=res.converged and target_ok)


def sweep(spec: GeometrySpec, p: float, h_list) -> list[SweepRow]:
    """Solve lambda(G, h, p) along decreasing h and compare with the target.

    The concentration map on the default samples fixes the target
    inf_x lambda(G_x, 1, p), the rung starts (one bump per `rung_centers`
    class, one random field), and the set M_eps for the exterior mass.  A
    row is converged only if its rung and every sample behind the target
    are.  `large_domain` returns these rows at h = R^{-2}.
    """
    check_exponent(p)
    cmap = concentration_map(spec, default_sample_points(spec), p)
    target_ok = all(s.converged for s in cmap.samples)
    centers = rung_centers(spec, cmap)
    return [rung_row(h, p, _rung(spec, h, p, centers), h_power(spec.dim, p),
                     cmap.inf_value, target_ok, cmap.outside_m_eps)
            for h in h_list]


def large_domain(spec: GeometrySpec, p: float, R_list) -> list[SweepRow]:
    """lambda^Neu(Omega_R, p) via the exact reformulation h = R^{-2}: the
    `sweep` rows at h = R^{-2}, each rung started from one bump per
    `rung_centers` class and one random field.

    Requires the fixed data V = 1, A = 0, gamma = 0, each a constant, on a
    domain whose every face is Robin; any other data raises ConfigError.
    Then `ratio` is lambda^Neu(Omega_R, p) and `target` the half-space
    (d = 2) or half-line (d = 1) Neumann constant, which ratio / target
    approaches from below as R grows (for smooth domains; corners attract
    more strongly and push the limit below 1).
    """
    if (spec.A is not None or spec.B is not None
            or callable(spec.V) or float(spec.V) != 1.0
            or callable(spec.gamma) or float(spec.gamma) != 0.0
            or any(f != "robin" for faces in spec.domain.bc for f in faces)):
        raise ConfigError("large-domain: the reduction assumes the constant "
                          "data V = 1, B = 0, gamma = 0 on Robin faces only")
    return sweep(spec, p, [R ** -2.0 for R in R_list])
