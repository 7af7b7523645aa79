"""Geometry descriptors, the planar magnetic field and Theta0.

A problem instance is a quintuple (domain, metric=Id, V, A, gamma): an open
set, an electric potential, a magnetic vector potential and a Robin
coefficient on the boundary.  Dirichlet data, the gamma -> +inf limit, is
a face condition of the domain and never a value of gamma.  Every domain
here is a line or a plane, so the field is the scalar b = d1 A2 - d2 A1,
and Tr+ B, the Landau-level energy entering the interior spectral
assumption, is |b|.  This module also computes the de Gennes constant
Theta0, the half-plane Neumann constant at b = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidExponent


# ---------------------------------------------------------------------------
# gauges of a constant planar field, and Theta0
# ---------------------------------------------------------------------------

def symmetric_gauge(b: float, x0=(0.0, 0.0)) -> Callable[[np.ndarray], np.ndarray]:
    """Symmetric gauge A = (b/2) (-(x2 - x0_2), x1 - x0_1) of the field b.

    Test oracle: it vanishes at x0 and differs from `landau_gauge` by the
    gradient of a bilinear phase, which the lattice links carry exactly.
    """
    x0 = np.asarray(x0, dtype=float)

    def A(pts: np.ndarray) -> np.ndarray:
        dx = np.atleast_2d(np.asarray(pts, dtype=float)) - x0
        return 0.5 * b * np.column_stack([-dx[:, 1], dx[:, 0]])

    return A


def landau_gauge(b: float, x2_0: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Landau gauge A = (-b (x2 - x2_0), 0) of the constant planar field b.

    Its curl d1 A2 - d2 A1 is b.  A depends on x2 only and has no x2
    component, so box lattices stay invariant under translation along x1
    (the Fourier preconditioner of `discretize` relies on that).
    """

    def A(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros_like(pts)
        out[:, 0] = -b * (pts[:, 1] - x2_0)
        return out

    return A


@functools.cache
def de_gennes_constant() -> float:
    """Theta0 = inf_xi mu(xi), mu(xi) the ground eigenvalue of
    -u'' + (t - xi)^2 u on t > 0 with u'(0) = 0.

    Test oracle.  The decaying solutions are D_nu(sqrt(2) (t - xi)) with
    mu = 2 nu + 1 (parabolic cylinder functions).  At the only critical
    point xi0 of mu, mu(xi0) = xi0^2 (Dauge-Helffer), so Theta0 = 2 nu + 1
    at the root of D_nu'(-sqrt(2 (2 nu + 1))) = 0 in (-0.45, -0.05).
    """
    # imported here, so the lattice subcommands never load these modules
    from scipy.optimize import brentq
    from scipy.special import pbdv

    nu = brentq(lambda nu: pbdv(nu, -math.sqrt(2.0 * (2.0 * nu + 1.0)))[1],
                -0.45, -0.05, xtol=1e-15)
    return 2.0 * nu + 1.0


# ---------------------------------------------------------------------------
# exponents and geometry quintuples
# ---------------------------------------------------------------------------

def check_exponent(p: float) -> float:
    """p itself; InvalidExponent unless 2 <= p < inf (every p is
    subcritical in d = 1 and 2)."""
    if not 2.0 <= p < math.inf:
        raise InvalidExponent(f"p must be finite and >= 2, got {p}")
    return p


@dataclass(frozen=True)
class Domain:
    """Computational domain with per-face boundary conditions.

    kind 'interval' (1D) or 'rectangle'/'disk' (2D).  bc holds one tuple
    of faces per axis on every domain, each face 'robin', 'dirichlet' or
    'truncation': a (lo, hi) pair per axis of a box (an interval is
    ((lo, hi),)) and the rim alone on a disk, ((rim,),).  This table is
    the only place boundary conditions live.  Truncation faces cut an
    unbounded set and carry Dirichlet data justified by the exponential
    decay of minimizers.
    """

    kind: str
    bounds: tuple = ()
    radius: float = 0.0
    center: tuple = (0.0, 0.0)
    bc: tuple = ()

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2


def interval(a: float, b: float, bc=("robin", "truncation")) -> Domain:
    return Domain(kind="interval", bounds=((float(a), float(b)),),
                  bc=(tuple(bc),))


def half_line(length: float) -> Domain:
    """Truncated half-line with the Robin end at 0."""
    return interval(0.0, length, ("robin", "truncation"))


def line(halfwidth: float) -> Domain:
    return interval(-halfwidth, halfwidth, ("truncation", "truncation"))


def rectangle(bounds, bc=(("robin", "robin"), ("robin", "robin"))) -> Domain:
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return Domain(kind="rectangle", bounds=bounds,
                  bc=tuple(tuple(axis) for axis in bc))


def plane(halfwidth: float) -> Domain:
    b = (("truncation", "truncation"), ("truncation", "truncation"))
    return rectangle(((-halfwidth, halfwidth), (-halfwidth, halfwidth)), b)


def half_plane(halfwidth: float, height: float | None = None) -> Domain:
    """Truncated half-space {y >= 0} with the Robin face on y = 0."""
    height = halfwidth if height is None else height
    b = (("truncation", "truncation"), ("robin", "truncation"))
    return rectangle(((-halfwidth, halfwidth), (0.0, height)), b)


def strip(s_lo: float, s_hi: float) -> Domain:
    """Dirichlet strip (s_lo, s_hi) x (-1, 1) for the waveguide reduction."""
    b = (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"))
    return rectangle(((s_lo, s_hi), (-1.0, 1.0)), b)


def disk(radius: float, center=(0.0, 0.0)) -> Domain:
    return Domain(kind="disk", radius=float(radius),
                  center=tuple(float(c) for c in center), bc=(("robin",),))


@dataclass(frozen=True)
class GeometrySpec:
    """Euclidean quintuple (domain, Id, V, A, gamma).

    V and gamma may be constants or vectorized callbacks on point arrays;
    A is a callback pts -> (N, d) or None for the free case.  gamma is the
    Robin coefficient on the domain's 'robin' faces and is read nowhere
    else; Dirichlet data is a face of the domain.  An exact field callback
    B (pts -> b, d = 2) can be supplied to bypass the finite-difference
    curl of A.  v_at, gamma_at and an exact b_at raise ConfigError,
    naming the key, at a point where the value is not finite.
    """

    domain: Domain
    V: object = 0.0
    A: object = None
    gamma: object = 0.0
    B: object = None

    @property
    def dim(self) -> int:
        return self.domain.dim

    def v_at(self, pts: np.ndarray) -> np.ndarray:
        return _finite_at("V", self.V, pts)

    def gamma_at(self, pts: np.ndarray) -> np.ndarray:
        return _finite_at("gamma", self.gamma, pts)

    def a_at(self, pts: np.ndarray) -> np.ndarray | None:
        if self.A is None:
            return None
        pts = np.atleast_2d(pts)
        return np.asarray(self.A(pts), dtype=float).reshape(len(pts), self.dim)

    def b_at(self, pts: np.ndarray) -> np.ndarray:
        """Field b = d1 A2 - d2 A1 at each point: the exact B callback when
        one was given, else central differences of A; 0 in d = 1."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.dim == 1 or self.A is None and self.B is None:
            return np.zeros(len(pts))
        if self.B is not None:
            return _finite_at("B", self.B, pts)
        delta = 1e-5
        e1, e2 = np.array([delta, 0.0]), np.array([0.0, delta])
        d1A2 = self.a_at(pts + e1)[:, 1] - self.a_at(pts - e1)[:, 1]
        d2A1 = self.a_at(pts + e2)[:, 0] - self.a_at(pts - e2)[:, 0]
        return (d1A2 - d2A1) / (2.0 * delta)


def _finite_at(key: str, value, pts: np.ndarray) -> np.ndarray:
    """A constant or a vectorized callback at each point; ConfigError
    naming the key at the first point where it is not finite."""
    pts = np.atleast_2d(pts)
    if callable(value):
        # an overflow to inf is reported below, as a ConfigError
        with np.errstate(over="ignore"):
            values = np.asarray(value(pts), dtype=float).reshape(len(pts))
    else:
        values = np.full(len(pts), float(value))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        x = tuple(float(c) for c in pts[bad[0]])
        raise ConfigError(f"{key}: value {values[bad[0]]} at x = {x} is not finite")
    return values
