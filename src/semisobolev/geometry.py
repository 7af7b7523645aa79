"""Geometry descriptors and magnetic-field algebra.

A problem instance is a quintuple (domain, metric=Id, V, A, gamma): an open
set, an electric potential, a magnetic vector potential and a Robin
coefficient on the boundary (gamma = +inf encodes Dirichlet).  The magnetic
field is the skew matrix B_kl = d_k A_l - d_l A_k; its spectral invariant
Tr+ B (sum of the positive beta_k in the eigenvalue pairs +-i beta_k) is
the Landau-level energy entering the interior spectral assumption.  This
module also computes the de Gennes constant Theta0 and the half-space
Neumann lower bound max(Theta0 |B_par|, Tr+ B_perp).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceFailure, InvalidExponent, NotSkew

DIRICHLET = math.inf


# ---------------------------------------------------------------------------
# magnetic matrix algebra
# ---------------------------------------------------------------------------

def check_skew(B: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise NotSkew(f"magnetic matrix must be square, got shape {B.shape}")
    scale = max(1.0, float(np.abs(B).max()))
    defect = float(np.abs(B + B.T).max())
    if defect > tol * scale:
        raise NotSkew(f"skew-symmetry defect {defect:.2e} exceeds tolerance")
    return B


def tr_plus(B: np.ndarray, tol: float = 1e-12) -> float:
    """Sum of the positive imaginary parts beta_k of the spectrum of B.

    The singular values of a skew matrix come in pairs (beta_k, beta_k)
    plus zeros, so Tr+ B is half their sum; this avoids a complex
    eigensolver and is exactly zero iff B = 0.
    """
    B = check_skew(B, tol)
    return float(np.linalg.svd(B, compute_uv=False).sum() / 2.0)


def field_matrix_2d(b: float) -> np.ndarray:
    """Magnetic matrix [[0, b], [-b, 0]] of a planar field of strength b."""
    return np.array([[0.0, b], [-b, 0.0]])


def lorentz_potential(B, x0, x, n_quad: int = 32) -> np.ndarray:
    """Radial-gauge potential A_j(x) = int_0^1 t B(x0 + t(x-x0))(x-x0, e_j) dt.

    B may be a constant matrix or a callable point -> matrix; the bilinear
    form convention is B(u, v) = sum_kl B_kl u_k v_l, so the integrand is
    t * B(x0+t dx)^T dx.  Gauss-Legendre quadrature; exact for polynomial
    fields of degree below ~2 n_quad - 2.
    """
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = x - x0
    if callable(B):
        nodes, weights = leggauss(n_quad)
        t = (nodes + 1.0) / 2.0
        acc = np.zeros_like(dx)
        for tk, wk in zip(t, weights / 2.0):
            acc += wk * tk * (np.asarray(B(x0 + tk * dx), dtype=float).T @ dx)
        return acc
    return 0.5 * (np.asarray(B, dtype=float).T @ dx)


def linear_gauge(B0: np.ndarray, x0=None) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized symmetric gauge of a constant field B0, in any dimension.

    Returns A with A(pts)[n] = (1/2) B0(pts[n] - x0); curl A = B0.  In the
    plane it differs from `landau_gauge` by the gradient of a bilinear
    phase, which the lattice links carry exactly.
    """
    B0 = check_skew(B0)
    d = B0.shape[0]
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)

    def A(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return 0.5 * (pts - x0) @ B0

    return A


def landau_gauge(b: float, x2_0: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Landau gauge A = (-b (x2 - x2_0), 0) of the constant planar field b.

    Its curl is field_matrix_2d(b).  A depends on x2 only and has no x2
    component, so box lattices stay invariant under translation along x1
    (the Fourier preconditioner of `discretize` relies on that).
    """

    def A(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros_like(pts)
        out[:, 0] = -b * (pts[:, 1] - x2_0)
        return out

    return A


def magnetic_matrix_at(A: Callable, x, d: int, delta: float = 1e-5) -> np.ndarray:
    """Numerical curl B_kl = d_k A_l - d_l A_k by central differences."""
    x = np.asarray(x, dtype=float)
    J = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = delta
        Ap = np.asarray(A((x + e)[None, :]), dtype=float).reshape(d)
        Am = np.asarray(A((x - e)[None, :]), dtype=float).reshape(d)
        J[k] = (Ap - Am) / (2.0 * delta)
    B = J - J.T
    return 0.5 * (B - B.T)


# ---------------------------------------------------------------------------
# de Gennes constant and the Neumann lower bound
# ---------------------------------------------------------------------------

def _degennes_mu(xi: float) -> float:
    """Ground Neumann eigenvalue of -d_t^2 + (t - xi)^2 on (0, T = 12)."""
    t = np.linspace(0.0, 12.0, 4001)
    n = len(t)
    st = t[1] - t[0]
    w = np.full(n, st)
    w[0] = w[-1] = st / 2.0
    main = np.zeros(n)
    main[:-1] += 1.0 / st
    main[1:] += 1.0 / st
    main += w * (t - xi) ** 2
    off = np.full(n - 1, -1.0 / st)
    # Dirichlet cap at T; the ground state decays like a Gaussian there
    mainf, offf, wf = main[:-1], off[:-1], w[:-1]
    dinv = 1.0 / np.sqrt(wf)
    vals = eigh_tridiagonal(mainf * dinv * dinv, offf * dinv[:-1] * dinv[1:],
                            select="i", select_range=(0, 0))[0]
    return float(vals[0])


@functools.cache
def de_gennes_constant() -> float:
    """Theta0 = inf_xi of the half-line oscillator ground eigenvalue.

    Computed once by golden-section search over the fiber parameter xi and
    cached; the minimum sits at xi = sqrt(Theta0) ~ 0.768.
    """
    # imported here, so the lattice subcommands never load scipy.optimize
    from scipy.optimize import minimize_scalar
    try:
        res = minimize_scalar(_degennes_mu, bracket=(0.4, 0.8, 1.2),
                              method="golden", options={"xtol": 1e-10})
    except ValueError as exc:
        raise ConvergenceFailure(f"de Gennes bracket failed: {exc}") from exc
    if not np.isfinite(res.fun):
        raise ConvergenceFailure("golden-section search did not converge")
    return float(res.fun)


def neumann_lower_bound(B: np.ndarray) -> float:
    """max(Theta0 |B_par|_2, Tr+ B_perp) for the half-space Neumann problem.

    It is a lower bound for the p = 2 half-space constant.  The last
    coordinate is the inward normal: B_perp is the tangential (d-1) x (d-1)
    block and B_par the normal column head.
    """
    B = check_skew(B)
    d = B.shape[0]
    if d < 2:
        raise ValueError("half-space splitting needs d >= 2")
    B_perp = B[: d - 1, : d - 1]
    B_par = B[: d - 1, d - 1]
    return max(de_gennes_constant() * float(np.linalg.norm(B_par)),
               tr_plus(B_perp))


# ---------------------------------------------------------------------------
# exponents and geometry quintuples
# ---------------------------------------------------------------------------

def check_exponent(p: float, dim: int) -> float:
    if not 2.0 <= p < math.inf:
        raise InvalidExponent(f"p must be finite and >= 2, got {p}")
    if dim >= 3:
        crit = 2.0 * dim / (dim - 2.0)
        if p > crit - 1e-6:
            raise InvalidExponent(f"p={p} above subcritical margin for d={dim}")
    return p


@dataclass(frozen=True)
class Domain:
    """Computational domain with per-face boundary conditions.

    kind 'interval' (1D) or 'rectangle'/'disk' (2D); bc entries are
    'robin', 'dirichlet' or 'truncation' per face (lo/hi per axis for
    boxes, a single entry for the disk).  Truncation faces cut an
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
    return Domain(kind="interval", bounds=((float(a), float(b)),), bc=tuple(bc))


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
                  center=tuple(float(c) for c in center), bc=("robin",))


@dataclass(frozen=True)
class GeometrySpec:
    """Euclidean quintuple (domain, Id, V, A, gamma).

    V and gamma may be constants or vectorized callbacks on point arrays;
    A is a callback pts -> (N, d) or None for the free case.  gamma may be
    +inf (geometry.DIRICHLET) to put Dirichlet data on the Robin faces.
    An exact field callback B (pts -> scalar for d=2) can be supplied to
    bypass the finite-difference curl of A.
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
        pts = np.atleast_2d(pts)
        if callable(self.V):
            return np.asarray(self.V(pts), dtype=float).reshape(len(pts))
        return np.full(len(pts), float(self.V))

    def gamma_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.gamma is DIRICHLET or (np.isscalar(self.gamma) and np.isinf(self.gamma)):
            return np.full(len(pts), np.inf)
        if callable(self.gamma):
            return np.asarray(self.gamma(pts), dtype=float).reshape(len(pts))
        return np.full(len(pts), float(self.gamma))

    @property
    def dirichlet_boundary(self) -> bool:
        return (not callable(self.gamma)) and np.isinf(float(self.gamma))

    def a_at(self, pts: np.ndarray) -> np.ndarray | None:
        if self.A is None:
            return None
        pts = np.atleast_2d(pts)
        return np.asarray(self.A(pts), dtype=float).reshape(len(pts), self.dim)

    def field_at(self, x) -> np.ndarray:
        """Magnetic matrix at a point, exact when B was supplied."""
        d = self.dim
        if d == 1 or self.A is None and self.B is None:
            return np.zeros((d, d))
        if self.B is not None:
            b = self.B(np.atleast_2d(np.asarray(x, dtype=float)))
            b = float(np.asarray(b).reshape(-1)[0])
            return field_matrix_2d(b)
        return magnetic_matrix_at(self.a_at, x, d)
