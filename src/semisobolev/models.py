"""Homogeneous-geometry model constants and the concentration function.

Freezing the electro-magnetic data at a point x gives a homogeneous model:
the whole space with (V(x), B(x)) for interior points, the half space with
additionally the Robin coefficient gamma(x) for boundary points.  The map
x -> lambda(model at x, 1, p) is the concentration function; minimizers of
the semiclassical problem localize near its argmin set M.  The field
enters the models only through b = |b(x)|, which is Tr+ B in the plane.

In d = 1 every constant is a `model1d` closed form: the whole-line soliton
inside, the shifted soliton lambda_c on the half-line.  In d = 2 every
whole-plane constant is one radial solve (`_radial_value`): in symmetric
gauge a real radial u has |(-i grad - A) u|^2 = u'^2 + (b r / 2)^2 u^2.
With no field that is exact, since Schwarz symmetrization keeps the L^p and
L^2 norms and does not raise the Dirichlet energy, and the Neumann half
plane is exactly 2^{2/p - 1} times it (even reflection doubles the energy
and the p-th power of the L^p norm alike).  With a field it is an upper
bound: a radial minimizer at p > 2 is not a theorem (Esteban and Lions,
1989, prove existence only), but it meets the 2-D lattice in every case
measured.  The half-plane constants are grid solves at h = 1 on truncated
planar lattices, capped at p > 2 by the interior constant, the field in
the Landau gauge A = (-b x2, 0).  That gauge is parallel to the boundary
and leaves the lattice invariant along x1, so the descent's preconditioner
is the exact Fourier solve of `discretize`; any other gauge is a lattice
gauge transform of it and gives the same constants.  Exact zoom scalings
collapse the parameter space before any grid work:

    lambda(b B1, v, g; p)  =  b^{1 - d/2 + d/p} lambda(B1, v/b, g/sqrt(b); p)

(and the same with v in place of b when the field vanishes), so each
distinct scaled key is solved once and cached.  At p = 2 the interior
constant is exactly Tr+ B + V and the field-free half-space constant
reduces to the closed-form half-line Robin eigenvalue, V - gamma^2 for
gamma < 0 and V otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, model1d
from .discretize import assemble, build_grid
from .errors import AssumptionViolated
from .geometry import GeometrySpec, check_exponent
from .minimize import MinimizeOptions, solve_lattice

_cache: dict = {}      # scaled model or strip key -> converged result
_unconverged = 0       # memo misses so far: solves not stored
_DELTA = 0.02          # relative tolerance of the argmin set M
_EPS = 0.2             # dilation radius of M_eps for the exterior mass
_BOUNDARY_TOL = 1e-8   # distance at which a sample counts as a boundary point
_RADIAL_STEPS = 100    # radial lattice cells per model length scale


def _check_field(b: float, dim: int) -> None:
    if b < 0.0 or (dim == 1 and b != 0.0):
        raise ValueError(f"b = Tr+ B must be >= 0, and 0 in dimension 1; "
                         f"got b={b} with dim={dim}")


def _scaling_exponent(d: int, p: float) -> float:
    return 1.0 - d / 2.0 + d / p


def memo(key: tuple, solve) -> float:
    """The lambda stored under `key`, else that of solve(); a converged
    result is stored as solve() returned it (`stored` reads it back), and
    a miss adds one to `_unconverged`, so the next call solves again."""
    if key in _cache:
        return _cache[key].lam
    res = solve()
    if res.converged:
        _cache[key] = res
    else:
        global _unconverged
        _unconverged += 1
    return res.lam


def stored(key: tuple):
    """The converged result `memo` holds under `key`, or None."""
    return _cache.get(key)


def solved(f, *args, **kwargs) -> tuple:
    """(f(*args, **kwargs), whether that call added no `memo` miss)."""
    misses = _unconverged
    value = f(*args, **kwargs)
    return value, _unconverged == misses


def _grid_value(key: tuple, form, spacing, centers: tuple = ()) -> float:
    """Memoized grid solve of the model that form(spacing) assembles at
    h = 1, as `solve_lattice` takes it; key = (kind, p, ...).

    The value goes through `memo`, the memo that the straight-strip
    reference of `waveguide` shares: an unconverged solve is a miss,
    counted and not stored, and a stored result drops its field, which
    nothing reads (a half-plane field with its grid is about 3 MB, and a
    map stores a key per distinct frozen (V, b, gamma)).  One random restart
    runs after the bump init; a random start that wanders into the
    interior-soliton valley stops as `outpaced` once it cannot come down
    to the bump's converged value.  Every start descends first on the
    same model at twice the spacing, and only the distinct coarse minima
    are polished on this lattice; `solve_lattice` decides that coarse
    lattice.
    """
    def solve():
        res = solve_lattice(form, spacing, key[1], MinimizeOptions(
            grad_tol=1e-7, restarts=1, centers=centers))
        res.psi = None
        return res

    return memo(key, solve)


def _scale(b: float, v: float) -> float:
    """Length scale of the model with field b and potential v at h = 1."""
    return 1.0 / math.sqrt(max(b + max(v, 0.0), 0.25))


def _radial_value(p: float, b: float, v: float) -> float:
    """Radial solve of the whole plane at h = 1, field b in {0, 1}.

    A field b enters as the potential (b r / 2)^2 of the symmetric gauge
    (an upper bound that matches the 2-D lattice where measured, not a
    theorem), on a half-line lattice with nodes r_j = j dr.  Each node
    weighs the area of its annulus, 2 pi r_j dr, and the centre node the
    disk pi dr^2 / 4; each edge carries the flux coefficient
    2 pi r_{j+1/2} / dr.  The centre has no surface weight, so it is a
    natural zero-flux end, and the node at r = L stays pinned.  This is a
    d = 1 form, solved on the SuperLU path.
    """
    scale = _scale(b, v)
    spec = GeometrySpec(domain=geometry.half_line(20.0 * scale),
                        V=lambda pts: v + (0.5 * b * pts[:, 0]) ** 2)

    def form(s):
        grid = build_grid(spec, s)
        r, dr = grid.points[:, 0], grid.spacing[0]
        weight = 2.0 * math.pi * dr * r
        weight[0] = math.pi * dr * dr / 4.0
        mid = 0.5 * (r[grid.edges[:, 0]] + r[grid.edges[:, 1]])
        return assemble(spec, 1.0, replace(
            grid, weight=weight, surface_weight=np.zeros_like(r),
            edge_coeff=2.0 * math.pi * mid / dr))

    return _grid_value(("rad", p, b, round(v, 12)), form,
                       scale / _RADIAL_STEPS, ((0.0,),))


def _half_space_value(p: float, b: float, v: float, g: float) -> float:
    """Grid solve of the half-plane model at h = 1 (b is Tr+ B).

    The boundary axis is spaced at scale / 12 and the normal axis at
    min(depth / 10, scale / 12), so only the normal axis resolves the
    Robin layer of depth 1 / (1 + |g|) and the node count grows like |g|,
    not g^2."""
    scale = _scale(b, v)
    depth = min(scale, 1.0 / (1.0 + abs(g)))
    height = max(5.0 * scale, 12.0 * depth)
    A = None if b == 0.0 else geometry.landau_gauge(b)
    spec = GeometrySpec(domain=geometry.half_plane(8.0 * scale, height),
                        V=v, A=A, gamma=g)
    key = ("bd", p, round(b, 12), round(v, 12), round(g, 12))
    spacing = (scale / 12.0, min(depth / 10.0, scale / 12.0))
    return _grid_value(key, lambda s: assemble(spec, 1.0, build_grid(spec, s)),
                       spacing, ((0.0, 0.0),))


def interior_constant(b: float, V0: float, p: float, dim: int = 2) -> float:
    """lambda((R^d, Id, V0, field with Tr+ B = b, -), 1, p).

    b = Tr+ B >= 0 is the scalar the field enters by; it must be 0 when
    dim = 1 (ValueError).  p = 2 is the exact Landau value b + V0; p > 2
    is V0^e soliton_line(p) in d = 1.  In d = 2 it is n^e times the
    radial solve at V0/n, n = b at unit field or n = V0 with none: exact
    with no field, and with a field an upper bound that matches the 2-D
    Landau lattice where measured, not a theorem.  The p = 2 value is
    returned whatever its sign; at p > 2 one that is not positive raises
    AssumptionViolated, as in boundary_constant.
    """
    _check_field(b, dim)
    check_exponent(p)
    p2 = b + V0
    if p == 2.0:
        return p2
    if not p2 > 0.0:
        raise AssumptionViolated(f"Tr+ B + V = {p2} violates the spectral assumption")
    e = _scaling_exponent(dim, p)
    if dim == 1:
        return V0 ** e * model1d.soliton_line(p)
    n = b if b > 0.0 else V0
    return n ** e * _radial_value(p, float(b > 0.0), V0 / n)


def boundary_constant(b: float, V0: float, gamma0: float, p: float,
                      dim: int = 2) -> float:
    """lambda(half-space model with Robin coefficient gamma0, 1, p).

    The last coordinate is the inward normal; b = Tr+ B >= 0 as in
    interior_constant.  The p = 2 value is returned at p = 2 whatever its
    sign; at p > 2 one that is not positive raises AssumptionViolated, as
    the infimum is then not positive either (with a field that happens
    where b + V0 > 0 too: -0.086 at b = 1, V0 = -0.7).  With no field the
    Neumann half plane is exactly 2^{2/p - 1} times the whole plane: even
    reflection doubles the energy and the p-th power of the L^p norm, and
    the radial minimizer restricts to the half plane at that ratio.  Every
    other d = 2 value is capped by the radial whole-plane constant, which
    the true constant obeys (a whole-plane function shifted off the
    boundary stops feeling gamma0) and the truncated half-plane lattice
    breaks once its minimizer leaves the Robin face; with a field the cap
    is itself an upper bound, not a theorem (see `interior_constant`).
    """
    _check_field(b, dim)
    check_exponent(p)
    n = b if b > 0.0 else V0    # zoom to unit field, or to unit potential
    if n > 0.0:                 # else b = 0, V0 <= 0: p2 <= 0 ends it
        v, g = V0 / n, gamma0 / math.sqrt(n)
    p2 = (b * _half_space_value(2.0, 1.0, v, g) if b > 0.0
          else V0 - gamma0 * gamma0 if gamma0 < 0.0 else V0)
    if p == 2.0:
        return p2
    if not p2 > 0.0:
        raise AssumptionViolated(f"b = {b}, V = {V0}, gamma = {gamma0}: the p = 2 "
                          f"half-space value {p2} is not positive")
    e = _scaling_exponent(dim, p)
    if dim == 1:
        lam = model1d.soliton_line(p) if g >= 1.0 else model1d.lambda_c(g, p)
        return n ** e * lam
    whole = _radial_value(p, float(b > 0.0), v)
    if b == 0.0 and g == 0.0:
        return 2.0 ** (2.0 / p - 1.0) * n ** e * whole
    return n ** e * min(_half_space_value(p, float(b > 0.0), v, g), whole)


@dataclass(frozen=True)
class ConcentrationSample:
    """Model constant frozen at one point of the closure of the domain."""

    x: tuple
    kind: str               # 'interior' | 'boundary'
    value: float
    converged: bool = True  # every grid solve behind `value` converged


@dataclass
class ConcentrationMap:
    samples: list
    inf_value: float
    argmin: list
    delta: float

    def outside_m_eps(self, points: np.ndarray) -> np.ndarray:
        """Mask of points outside M_eps: at distance > _EPS from every
        argmin sample."""
        pts = np.atleast_2d(points)
        d2min = np.full(len(pts), np.inf)
        for s in self.argmin:
            d2min = np.minimum(d2min, ((pts - s.x) ** 2).sum(axis=1))
        return d2min > _EPS * _EPS


def robin_face(dom: geometry.Domain, x) -> tuple | None:
    """The Robin face that x lies on, within _BOUNDARY_TOL: ("rim",) on a
    disk, (axis, side) on a box, None anywhere else.  A Dirichlet or
    truncation face, the disk's rim included, is never a Robin face."""
    if dom.kind == "disk":
        r = float(np.hypot(x[0] - dom.center[0], x[1] - dom.center[1]))
        on_rim = dom.bc[0][0] == "robin" and abs(r - dom.radius) <= _BOUNDARY_TOL
        return ("rim",) if on_rim else None
    for axis, (ends, bcs) in enumerate(zip(dom.bounds, dom.bc)):
        for side, (end, bc) in enumerate(zip(ends, bcs)):
            if bc == "robin" and abs(x[axis] - end) <= _BOUNDARY_TOL:
                return (axis, side)
    return None


def concentration_map(spec: GeometrySpec, sample_points, p: float) -> ConcentrationMap:
    """Sample x -> lambda(model at x, 1, p) and extract the argmin set.

    The spectral assumption is checked at p = 2 on every sample before
    any p > 2 constant is solved (AssumptionViolated otherwise).  M
    collects the samples within relative tolerance _DELTA of the infimum;
    `outside_m_eps` tests its dilation M_eps by _EPS.  A sample whose grid
    solve missed the gradient tolerance keeps its value (the model
    constants never raise on it) and says so in `converged`.
    """
    check_exponent(p)
    frozen = []             # (x, kind, model constant, its data but p)
    for x in np.atleast_2d(np.asarray(sample_points, dtype=float)):
        at = x[None, :]
        data = (abs(float(spec.b_at(at)[0])), float(spec.v_at(at)[0]))
        if robin_face(spec.domain, x) is not None:
            frozen.append((tuple(x.tolist()), "boundary", boundary_constant,
                           data + (float(spec.gamma_at(at)[0]),)))
        else:
            frozen.append((tuple(x.tolist()), "interior", interior_constant,
                           data))
    p2 = [solved(f, *data, 2.0, dim=spec.dim) for _, _, f, data in frozen]
    for (x, *_), (value, _) in zip(frozen, p2):
        if not value > 1e-12:
            raise AssumptionViolated(f"p=2 model value {value:.3e} at x={x}")
    at_p = p2 if p == 2.0 else [solved(f, *data, p, dim=spec.dim)
                                for _, _, f, data in frozen]
    samples = [ConcentrationSample(x, kind, value, ok and ok2) for
               (x, kind, *_), (value, ok), (_, ok2) in zip(frozen, at_p, p2)]
    inf_value = min(s.value for s in samples)
    argmin = [s for s in samples if s.value <= inf_value * (1.0 + _DELTA)]
    return ConcentrationMap(samples=samples, inf_value=inf_value,
                            argmin=argmin, delta=_DELTA)
