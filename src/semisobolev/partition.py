"""Two-scale sliding partitions of unity and the translation selection lemma.

The family chi^[k](x) = chi^0(x - L k - tau), L = 2 h^rho + h^alpha, has a
plateau of radius h^rho where chi = 1 and a transition layer of width
h^alpha.  The 1D template uses a degree-7 smoothstep S composed with the
quadratic splitting (cos, sin of pi S / 2), so that squares of neighbouring
cells sum to 1 identically; in dimension d the template is the tensor
product, and the quadratic-sum identity tensorizes.

Key facts verified numerically elsewhere: sum_k chi_k^2 = 1 to rounding,
sum_k |grad chi_k|^2 <= D h^{-2 alpha} with D independent of h, the
single-cell gradient mass scales like h^{rho d} h^{-alpha - rho}, and the
discrete localization (IMS) identity

    sum_k Q(chi_k psi) = Q(psi) + sum_edges kin_e [sum_k (d_e chi_k)^2]
                                   Re(psi_b e^{-i theta_e} conj(psi_a))

holds exactly, with link weight kin_e = h^2 times the grid's edge
coefficient, because the potential and boundary terms cancel through the
quadratic sum.  Sampling the translation tau uniformly over a period cell
accepts, with probability > 1/3, a tau for which both the local L^p mass
and the local energies control the global ones (Markov's inequality on
both defects with the factor-3 thresholds of the selection argument).

The scan takes both defects from these identities and builds no cell:
the localized mass is sum_k |chi_k|^p |psi|^p, and on an edge (a, b)
sum_k (d_e chi_k)^2 = A(a) + A(b) - 2 S(a, b) with A = sum_k chi_k^2 and
S = sum_k chi_k(a) chi_k(b); all three sums tensorize (`overlap`).
`ims_identity_defect` sums Q(chi_k psi) cell by cell through K and is the
check of that edge formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .discretize import AssembledForm, WaveFunction, abs_pow
from .errors import InvalidScales, NoneAccepted
from .geometry import check_exponent


def _smoothstep(t):
    return t * t * t * t * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def _smoothstep_d(t):
    return 140.0 * (t * (1.0 - t)) ** 3


def _ramp_integral(f) -> float:
    """int_0^1 f(t) dt by the 64-point Gauss-Legendre rule.

    The ramp integrands are smooth on [0, 1]; cos(pi S / 2)^p vanishes
    like (1 - t)^{4p} at t = 1, so even its branch point at non-integer
    p leaves the rule exact to rounding (test_partition.py compares it
    with adaptive quadrature).
    """
    x, w = leggauss(64)
    return 0.5 * float(w @ f(0.5 * (x + 1.0)))


@dataclass
class PartitionFamily:
    """Sliding quadratic partition with plateau h^rho and layer h^alpha."""

    alpha: float
    rho: float
    h: float
    dim: int
    tau: np.ndarray

    def __post_init__(self):
        if not (self.alpha >= self.rho > 0.0):
            raise InvalidScales(f"need alpha >= rho > 0, got ({self.alpha}, {self.rho})")
        if not (0.0 < self.h < 1.0):
            raise InvalidScales(f"need h in (0, 1), got {self.h}")
        self.tau = np.asarray(self.tau, dtype=float).reshape(self.dim)
        self.plateau = self.h ** self.rho
        self.layer = self.h ** self.alpha
        if not (self.plateau > 0.0 and self.layer > 0.0):
            raise InvalidScales(f"need h^rho, h^alpha > 0 in floating point, "
                                f"got {self.plateau}, {self.layer}")
        self.step = 2.0 * self.plateau + self.layer

    # -- 1D template ------------------------------------------------------

    def template(self, x):
        """chi^0 on the line: 1 on the plateau, cos(pi S/2) ramp, then 0."""
        y = np.abs(np.asarray(x, dtype=float))
        xi = np.clip((y - self.plateau) / self.layer, 0.0, 1.0)
        return np.where(y <= self.plateau, 1.0,
                        np.where(y >= self.plateau + self.layer, 0.0,
                                 np.cos(0.5 * math.pi * _smoothstep(xi))))

    def template_grad(self, x):
        x = np.asarray(x, dtype=float)
        y = np.abs(x)
        xi = (y - self.plateau) / self.layer
        inside = (xi > 0.0) & (xi < 1.0)
        xi = np.clip(xi, 0.0, 1.0)
        g = (-0.5 * math.pi * _smoothstep_d(xi) / self.layer
             * np.sin(0.5 * math.pi * _smoothstep(xi)))
        return np.where(inside, g * np.sign(x), 0.0)

    # -- lattice of cells --------------------------------------------------

    def axis_cells(self, lo: float, hi: float, axis: int) -> range:
        """Indices k whose support intersects [lo, hi] on one axis."""
        r = self.plateau + self.layer
        k_lo = math.floor((lo - self.tau[axis] - r) / self.step)
        k_hi = math.ceil((hi - self.tau[axis] + r) / self.step)
        return range(k_lo, k_hi + 1)

    def cells_for_box(self, bounds) -> list:
        ranges = [self.axis_cells(lo, hi, ax) for ax, (lo, hi) in enumerate(bounds)]
        return list(itertools.product(*ranges))

    def axis_profile(self, coords: np.ndarray, k: int, axis: int) -> np.ndarray:
        return self.template(coords - self.step * k - self.tau[axis])

    def cell_values(self, pts: np.ndarray, k) -> np.ndarray:
        """chi^[k] at arbitrary points (product over axes)."""
        pts = np.atleast_2d(pts)
        out = np.ones(len(pts))
        for ax in range(self.dim):
            out *= self.axis_profile(pts[:, ax], k[ax], ax)
        return out

    def overlap(self, a: np.ndarray, b: np.ndarray | None = None,
                q: float = 2.0) -> np.ndarray:
        """sum_k (chi_k(a) chi_k(b))^{q/2} at point pairs (b = a by default).

        With b = a and q = 2 this is the quadratic sum, identically 1; with
        q = p it is the L^p weight of the localized pieces; with b the far
        ends of edges it is the edge overlap of the IMS remainder.  The
        cells are tensor products, so the sum is a product over axes of 1D
        sums, and each 1D profile is evaluated once per distinct coordinate.
        """
        a = np.atleast_2d(a)
        b = a if b is None else np.atleast_2d(b)
        total = np.ones(len(a))
        for ax in range(self.dim):
            u, inv = np.unique(np.concatenate((a[:, ax], b[:, ax])),
                               return_inverse=True)
            ia, ib = inv[:len(a)], inv[len(a):]
            acc = np.zeros(len(a))
            for k in self.axis_cells(float(u[0]), float(u[-1]), ax):
                f = self.axis_profile(u, k, ax)
                acc += (f[ia] * f[ib]) ** (0.5 * q)
            total *= acc
        return total

    def grad_sq_sum(self, pts: np.ndarray) -> np.ndarray:
        """sum_k |grad chi_k|^2; bounded by D h^{-2 alpha}."""
        pts = np.atleast_2d(pts)
        per_axis = []
        for ax in range(self.dim):
            c = pts[:, ax]
            acc = np.zeros(len(pts))
            for k in self.axis_cells(float(c.min()), float(c.max()), ax):
                acc += self.template_grad(c - self.step * k - self.tau[ax]) ** 2
            per_axis.append(acc)
        # tensor structure: cross factors are axis quadratic sums, i.e. 1
        return np.sum(per_axis, axis=0)

    # -- exact template integrals -----------------------------------------

    def template_lp_mass(self, p: float) -> float:
        """int |chi^0|^p over the line (plateau + two ramps)."""
        ramp = _ramp_integral(lambda t: np.cos(0.5 * math.pi * _smoothstep(t)) ** p)
        return 2.0 * self.plateau + 2.0 * self.layer * ramp

    def template_grad_mass(self) -> float:
        """int |d chi^0 / dx|^2 over the line; scales like 1/layer."""
        val = _ramp_integral(lambda t: (0.5 * math.pi * _smoothstep_d(t)
                                        * np.sin(0.5 * math.pi * _smoothstep(t))) ** 2)
        return 2.0 * val / self.layer

    def cell_grad_mass(self) -> float:
        """int |grad chi^[k]|^2 over R^d (tensor formula)."""
        g1 = self.template_grad_mass()
        m2 = 2.0 * self.plateau + self.layer  # int chi^2 = one period exactly
        return self.dim * g1 * m2 ** (self.dim - 1)


def build_partition(alpha: float, rho: float, h: float, dim: int,
                    tau=None) -> PartitionFamily:
    tau = np.zeros(dim) if tau is None else np.asarray(tau, dtype=float)
    return PartitionFamily(alpha=alpha, rho=rho, h=h, dim=dim, tau=tau)


# ---------------------------------------------------------------------------
# localization identity and translation selection
# ---------------------------------------------------------------------------

def _grid_bounds(grid) -> list:
    return [(float(grid.points[:, ax].min()), float(grid.points[:, ax].max()))
            for ax in range(grid.dim)]


def _ims_remainder(form: AssembledForm, psi: WaveFunction,
                   family: PartitionFamily) -> float:
    """sum_k Q(chi_k psi) - Q(psi) from the IMS edge formula, where
    sum_k (d_e chi_k)^2 = A(a) + A(b) - 2 S(a, b) on the edge e = (a, b)."""
    pts = form.grid.points
    a, b = form.grid.edges.T
    quad_sum = family.overlap(pts)
    gsum = quad_sum[a] + quad_sum[b] - 2.0 * family.overlap(pts[a], pts[b])
    v = psi.values
    cross = np.real(v[b] * np.exp(-1j * form.edge_phase) * np.conj(v[a]))
    kin = (form.h * form.h) * form.grid.edge_coeff
    return float(kin @ (gsum * cross))


def ims_identity_defect(form: AssembledForm, psi: WaveFunction,
                        family: PartitionFamily) -> float:
    """|sum_k Q(chi_k psi) - Q(psi) - remainder|, the sum taken cell by cell
    through K: the check of the edge remainder that the scan relies on."""
    grid = form.grid
    q_sum = 0.0
    for k in family.cells_for_box(_grid_bounds(grid)):
        chi = family.cell_values(grid.points, k)
        q_sum += form.energy(WaveFunction(grid, chi * psi.values))
    return abs(q_sum - form.energy(psi) - _ims_remainder(form, psi, family))


@dataclass
class TranslationReport:
    tau: np.ndarray
    fraction: float
    accepted: int
    c_energy: float
    rescaled: bool = False


def find_translation(form: AssembledForm, psi: WaveFunction, alpha: float,
                     rho: float, p: float, n_samples: int = 200,
                     seed: int = 0) -> TranslationReport:
    """Sample translations and accept those controlling mass and energy.

    Acceptance requires both
      (a) sum_k |chi_k psi|_p^p >= (1 - C' h^{alpha-rho}) |psi|_p^p,
      (b) sum_k Q(chi_k psi) - Q(psi) <= C'' h^{2-rho-alpha} |psi|_2^2.
    C' comes from the exact mean defect 1 - |chi^0|_p^p / L (per axis),
    C'' from 3 times the mean energy defect of the scanned translations,
    so both are the selection argument's Markov thresholds.  The
    localized mass is w |psi|^p . overlap(q=p) and the energy defect is
    the IMS remainder, so no cell is built.  If nothing is accepted the
    constants are rescaled by the selection argument's factor 3 and the
    scan repeats; NoneAccepted if that fails too.
    """
    check_exponent(p)
    h = form.h
    dim = form.grid.dim
    base = build_partition(alpha, rho, h, dim)
    mean_ratio = base.template_lp_mass(p) / base.step
    c_mass = 3.0 * (1.0 - mean_ratio ** dim) / h ** (alpha - rho) + 1e-12

    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.0, base.step, size=(n_samples, dim))
    lp_total = psi.norm_lp(p) ** p
    l2_total = psi.norm_lp(2.0) ** 2
    lp_density = form.grid.weight * abs_pow(psi.values, p)
    fams = [build_partition(alpha, rho, h, dim, tau=tau) for tau in taus]
    mass_defect = lp_total - np.array(
        [lp_density @ fam.overlap(form.grid.points, q=p) for fam in fams])
    energy_defect = np.array([_ims_remainder(form, psi, fam) for fam in fams])
    c_energy = (3.0 * max(energy_defect.mean(), 0.0)
                / (h ** (2.0 - rho - alpha) * l2_total) + 1e-12)

    for rescaled, (cm, ce) in enumerate(((c_mass, c_energy),
                                         (3.0 * c_mass, 3.0 * c_energy))):
        ok = ((mass_defect <= cm * h ** (alpha - rho) * lp_total + 1e-14) &
              (energy_defect <= ce * h ** (2.0 - rho - alpha) * l2_total + 1e-14))
        if np.any(ok):
            first = int(np.argmax(ok))
            return TranslationReport(
                tau=taus[first], fraction=float(ok.mean()),
                accepted=int(ok.sum()), c_energy=ce, rescaled=bool(rescaled))
    raise NoneAccepted(
        f"no translation accepted among {n_samples} samples; "
        f"constants ({c_mass:.3g}, {c_energy:.3g}) likely miscalibrated")
