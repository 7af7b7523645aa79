"""Gauge-covariant lattice discretization of the Robin magnetic form.

The continuum energy

    Q_h(psi) = int |(-i h grad + A) psi|^2 + h V |psi|^2
               + h^{3/2} int_boundary gamma |psi|^2

is discretized with link variables: each lattice edge (a, b) carries the
phase theta_e = (1/h) int_a^b A . dl (midpoint rule) and contributes
h^2 c_e |psi_b e^{-i theta_e} - psi_a|^2 with a trapezoid-consistent
coefficient c_e.  This makes gauge transformations that use exact node
differences of the phase function an exact symmetry of the discrete
energy, and preserves the diamagnetic inequality edge by edge, since
||psi_b| - |psi_a|| <= |psi_b e^{-i theta} - psi_a|.

A node is free or pinned, from the domain's face table alone: Dirichlet
data is a face condition, never a value of gamma.  Nodes on a Dirichlet
or truncation face are pinned to zero and eliminated.  A Robin face gives
its free nodes a surface trapezoid weight multiplying h^{3/2} gamma, so
the Robin nodes are the free nodes with positive surface weight.  Disks
are handled by masking a square lattice: volume weights are exact
cell/disk intersection areas, in closed form as four-corner differences
of the area below and left of a point (`_lower_left_area`), so quadrature
weights sum to the disk area to rounding; edge coefficients near the
curved rim are first-order only.  K is built in one COO -> CSR pass, and a
field moves to a finer lattice by flat multilinear gathers (`prolong`).

The descent's preconditioner K + tau M is solved in one of three ways
(`AssembledForm.preconditioner`).  On a 2-D box the real forms split
exactly into a transverse operator times a coefficient that varies along
the other axis, so a one-axis fast diagonalization solves them with two
small GEMMs and one tridiagonal solve; it is exact on the variable-height
waveguide strip too, because that strip's coefficients vary along s only.
Magnetic forms on a 2-D box whose interior x1 columns are equal (a
constant field in Landau gauge with constant V and gamma) are solved
exactly by an FFT along x1, one real tridiagonal per mode, and a
capacitance correction on the two end columns; both fit P's five stencil
diagonals.  Other magnetic forms, disks and d = 1 forms use SuperLU.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh_tridiagonal, lapack, lu_factor, lu_solve

from .errors import LatticeOutOfRange, ZeroFunction
from .geometry import Domain, GeometrySpec

_MAX_NODES = 2 ** 22    # node budget of one lattice, over 50x any test or workload


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    """Uniform lattice with free/pinned nodes and quadrature weights.

    A node is free (a degree of freedom) or pinned to zero.  The Robin
    nodes are the free nodes whose surface weight is positive."""

    dim: int
    spacing: tuple
    points: np.ndarray          # (N, dim)
    free: np.ndarray            # (N,) bool, False on pinned nodes
    weight: np.ndarray          # (N,) volume quadrature weights
    surface_weight: np.ndarray  # (N,) Robin surface measure, 0 elsewhere
    edges: np.ndarray           # (E, 2) node indices
    edge_coeff: np.ndarray      # (E,) kinetic coefficient (transverse/length)
    domain: Domain
    shape: tuple | None = None  # per-axis node counts of box grids

    def __post_init__(self):
        self.free_index = -np.ones(len(self.points), dtype=np.int64)
        self.free_index[self.free] = np.arange(int(self.free.sum()))

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def n_free(self) -> int:
        return int(self.free.sum())


def _check_size(n_nodes: float, spacing) -> None:
    """LatticeOutOfRange, before any per-node array exists, past _MAX_NODES."""
    if not n_nodes <= _MAX_NODES:
        raise LatticeOutOfRange(f"spacing {spacing} gives a lattice of {n_nodes:.6g}"
                                f" nodes, over the budget of {_MAX_NODES}")


def _axis_nodes(lo: float, hi: float, n: int, spacing: float):
    if n < 8:
        raise LatticeOutOfRange(
            f"axis [{lo}, {hi}] at spacing {spacing} has {n} < 8 nodes")
    return np.linspace(lo, hi, n)


def _trapezoid_weights(n: int, s: float) -> np.ndarray:
    w = np.full(n, s)
    w[0] = w[-1] = s / 2.0
    return w


def _outer(factors) -> np.ndarray:
    """Raveled outer product of per-axis factors, in node order."""
    return functools.reduce(np.multiply.outer, factors).ravel()


def _box_grid(dom: Domain, spacing) -> Grid:
    d = dom.dim
    spacing = (spacing,) * d if np.isscalar(spacing) else tuple(spacing)
    counts = [float(np.rint((hi - lo) / s)) + 1.0
              for (lo, hi), s in zip(dom.bounds, spacing)]
    _check_size(math.prod(counts), spacing)
    axes = [_axis_nodes(lo, hi, int(n), s)
            for (lo, hi), n, s in zip(dom.bounds, counts, spacing)]
    ss = tuple(ax[1] - ax[0] for ax in axes)
    shape = tuple(len(ax) for ax in axes)
    pts = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")],
                   axis=-1)

    free = np.ones(shape, dtype=bool)
    surface = np.zeros(shape)
    waxes = [_trapezoid_weights(len(ax), s) for ax, s in zip(axes, ss)]
    weight = _outer(waxes)

    idx = np.arange(len(pts)).reshape(shape)
    edges, ecoeff = [], []
    for axis in range(d):
        # trapezoid measure of the other axes: the surface weight of this
        # axis' faces and the transverse factor of its edges
        trans = _outer([np.ones(n) if k == axis else w for k, (n, w)
                        in enumerate(zip(shape, waxes))]).reshape(shape)
        for side, bc in enumerate(dom.bc[axis]):
            sel = [slice(None)] * d
            sel[axis] = 0 if side == 0 else -1
            face = tuple(sel)
            if bc == "robin":
                surface[face] += trans[face]
            else:
                free[face] = False
        sl_a = [slice(None)] * d
        sl_b = [slice(None)] * d
        sl_a[axis] = slice(None, -1)
        sl_b[axis] = slice(1, None)
        a = idx[tuple(sl_a)].ravel()
        b = idx[tuple(sl_b)].ravel()
        edges.append(np.stack([a, b], axis=-1))
        ecoeff.append(trans[tuple(sl_a)].ravel() / ss[axis])
    # a node on a pinned face is pinned even where it touches a Robin face
    surface[~free] = 0.0

    return Grid(
        dim=d, spacing=ss, points=pts, free=free.ravel(), weight=weight,
        surface_weight=surface.ravel(),
        edges=np.concatenate(edges), edge_coeff=np.concatenate(ecoeff),
        domain=dom, shape=shape,
    )


def _lower_left_area(x, y, R: float):
    """Area of {u <= x, v <= y} inside the centred disk of radius R.

    With F(u) = int_0^u sqrt(R^2 - t^2) dt and m = sqrt(max(R^2 - y^2, 0)),
    the slice of the disk at abscissa u below height y has length
    sqrt(R^2 - u^2) + y on |u| <= m, and, when y >= 0, the whole chord
    2 sqrt(R^2 - u^2) on m <= |u| <= R.  Integrating up to x, with x
    clipped to a = [-R, -m], b = [-m, m] and c = [m, R]:

        A = [y >= 0] 2 (F(a) - F(-R) + F(c) - F(m)) + F(b) - F(-m) + y (b + m).
    """

    def F(u):
        return 0.5 * (u * np.sqrt(np.maximum(R * R - u * u, 0.0))
                      + R * R * np.arcsin(u / R))

    m = np.sqrt(np.maximum(R * R - y * y, 0.0))
    a, b, c = np.clip(x, -R, -m), np.clip(x, -m, m), np.clip(x, m, R)
    return (np.where(y >= 0.0, 2.0 * (F(a) - F(-R) + F(c) - F(m)), 0.0)
            + F(b) - F(-m) + y * (b + m))


def _disk_grid(dom: Domain, spacing) -> Grid:
    R = dom.radius
    cx, cy = dom.center
    s = float(spacing) if np.isscalar(spacing) else float(spacing[0])
    side = 2.0 * float(np.ceil(R / s)) + 3.0
    _check_size(side * side, s)
    n_half = int(math.ceil(R / s)) + 1
    if 2 * n_half + 1 < 8:
        raise LatticeOutOfRange(
            f"disk of radius {R} at spacing {s} is under-resolved")
    ax = cx + s * np.arange(-n_half, n_half + 1)
    ay = cy + s * np.arange(-n_half, n_half + 1)
    X, Y = np.meshgrid(ax, ay, indexing="ij")
    nx = len(ax)
    pts_all = np.stack([X.ravel(), Y.ravel()], axis=-1)
    r_all = np.hypot(pts_all[:, 0] - cx, pts_all[:, 1] - cy)
    inside = r_all <= R + 1e-12 * R

    # exact cell areas: the four-corner difference of _lower_left_area on
    # the cells that can meet the rim, s^2 on the cells inside it
    corner = s * (np.arange(nx + 1) - n_half - 0.5)
    A = _lower_left_area(corner[:, None], corner[None, :], R)
    cut = (A[1:, 1:] - A[:-1, 1:] - A[1:, :-1] + A[:-1, :-1]).ravel()
    fully_in = r_all <= R - s * math.sqrt(2.0) / 2.0
    maybe = r_all <= R + s * math.sqrt(2.0) / 2.0
    area = np.where(fully_in, s * s, np.where(maybe, cut, 0.0))

    # hand rim-cell area of excluded lattice nodes to their nearest included
    # 3 x 3 neighbour (the first in row-major order on ties) so the weights
    # sum exactly to the disk area
    grid_index = -np.ones(nx * nx, dtype=np.int64)
    grid_index[inside] = np.arange(int(inside.sum()))
    weight = area[inside].copy()
    donors = np.nonzero((~inside) & (area > 0.0))[0]
    near = np.pad(np.where(inside, r_all, np.inf).reshape(nx, nx), 1,
                  constant_values=np.inf)
    row, col = np.divmod(donors, nx)
    hood = sliding_window_view(near, (3, 3))[row, col].reshape(-1, 9)
    best = hood.argmin(axis=1)
    has = np.isfinite(hood.min(axis=1))
    receiver = (row + best // 3 - 1) * nx + col + best % 3 - 1
    np.add.at(weight, grid_index[receiver[has]], area[donors[has]])

    pts = pts_all[inside]
    n = len(pts)

    # edges between included 4-neighbours; boundary nodes are those with a
    # missing neighbour
    lat = np.arange(nx * nx).reshape(nx, nx)
    edges, ecoeff = [], []
    has_all = np.ones(n, dtype=bool)
    for di, dj in ((1, 0), (0, 1)):
        a_lat = lat[: nx - di, : nx - dj].ravel()
        b_lat = lat[di:, dj:].ravel()
        ok = inside[a_lat] & inside[b_lat]
        a, b = grid_index[a_lat[ok]], grid_index[b_lat[ok]]
        edges.append(np.stack([a, b], axis=-1))
        ecoeff.append(np.minimum(np.minimum(weight[a], weight[b]), s * s) / (s * s))
        for la, lb in ((a_lat, b_lat), (b_lat, a_lat)):
            miss = inside[la] & ~inside[lb]
            has_all[grid_index[la[miss]]] = False

    # a Dirichlet rim is pinned; a Robin rim gets arc-length surface weights
    # by the angular spacing of its nodes
    (rim,), = dom.bc
    surface = np.zeros(n)
    if rim == "robin":
        bidx = np.nonzero(~has_all)[0]
        theta = np.arctan2(pts[bidx, 1] - cy, pts[bidx, 0] - cx)
        order = np.argsort(theta)
        th = theta[order]
        gaps = np.diff(np.concatenate([th, [th[0] + 2 * math.pi]]))
        arc = 0.5 * (gaps + np.roll(gaps, 1)) * R
        surface[bidx[order]] = arc

    return Grid(
        dim=2, spacing=(s, s), points=pts,
        free=has_all | (rim == "robin"), weight=weight,
        surface_weight=surface, edges=np.concatenate(edges),
        edge_coeff=np.concatenate(ecoeff),
        domain=dom, shape=None,
    )


def build_grid(spec: GeometrySpec, spacing) -> Grid:
    """Build the lattice for a geometry (a masked square lattice for disks).

    Nodes are free or pinned, from the domain's face table alone (gamma
    plays no part in the grid): a Robin face gives its free nodes surface
    weight, any other face pins its nodes.  LatticeOutOfRange (exit 1) when
    an axis would have under 8 nodes, or the lattice over _MAX_NODES; the
    latter is raised before any per-node array is allocated."""
    dom = spec.domain
    if dom.kind == "disk":
        return _disk_grid(dom, spacing)
    return _box_grid(dom, spacing)


def prolong(coarse: Grid, x: np.ndarray, fine: Grid) -> np.ndarray:
    """Multilinear interpolation of a field from one lattice of a domain to
    another; x holds its values on the free nodes of `coarse`, and the
    values on the free nodes of `fine` are returned.

    Box grids and the masked disk both sit on a uniform tensor lattice,
    node i at lo + k_i s along each axis.  The coarse values are laid out
    on that lattice, padded with one layer of zeros on every side; pinned
    and masked-out nodes are zero too.  Each fine node takes the
    multilinear interpolant of the 2^d lattice nodes of its cell, so a
    field affine on those nodes is reproduced exactly: everywhere on a
    box, and on a masked disk wherever the cell lies in the disk.  Each
    corner is one 1-D gather at a fixed offset from a fine node's flat index.
    """
    s = np.asarray(coarse.spacing, dtype=float)
    lo = coarse.points.min(axis=0) - s
    k = np.rint((coarse.points - lo) / s).astype(np.int64)
    shape = k.max(axis=0) + 2
    lattice = np.zeros(math.prod(shape), dtype=x.dtype)
    lattice[np.ravel_multi_index(tuple(k[coarse.free].T), shape)] = x
    t = (fine.points[fine.free] - lo) / s
    i = np.clip(np.floor(t), 0, shape - 2).astype(np.int64)
    f = np.clip(t - i, 0.0, 1.0).T
    base = np.ravel_multi_index(tuple(i.T), shape)
    out = np.zeros(len(t), dtype=x.dtype)
    for corner in itertools.product((0, 1), repeat=coarse.dim):
        weight = functools.reduce(np.multiply, [fa if c else 1.0 - fa
                                                for c, fa in zip(corner, f)])
        out += weight * lattice[base + np.ravel_multi_index(corner, shape)]
    return out


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------

@dataclass
class WaveFunction:
    """Complex lattice field; identically zero on pinned (Dirichlet) nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.values = np.where(self.grid.free, self.values, 0.0)

    def norm_lp(self, p: float) -> float:
        return lp_norm(self.grid.weight, self.values, p)


def abs_pow(x: np.ndarray, p: float) -> np.ndarray:
    """|x|^p as (Re^2 + Im^2)^(p/2): no complex modulus, and p = 4 squares."""
    sq = x.real * x.real + x.imag * x.imag if np.iscomplexobj(x) else x * x
    return sq ** (0.5 * p)


def lp_norm(w: np.ndarray, x: np.ndarray, p: float) -> float:
    """Weighted lattice L^p norm (sum_i w_i |x_i|^p)^(1/p); where the sum
    overflows (|x|^p at large p) it is max|x| lp_norm(x / max|x|)."""
    with np.errstate(over="ignore"):
        s = w @ abs_pow(x, p)
    if s == math.inf:
        m = float(np.max(np.abs(x)))
        if m < math.inf:
            return m * lp_norm(w, x / m, p)
    return float(s ** (1.0 / p))


def gaussian_bump(grid: Grid, center, width: float) -> WaveFunction:
    center = np.asarray(center, dtype=float)
    r2 = ((grid.points - center) ** 2).sum(axis=1)
    return WaveFunction(grid, np.exp(-r2 / (2.0 * width ** 2)))


def random_field(grid: Grid, rng, complex_: bool = True) -> WaveFunction:
    """Gaussian lattice field: the generic draw on which the exact discrete
    identities (gauge covariance, the diamagnetic inequality) are tested."""
    v = rng.standard_normal(grid.n_nodes)
    if complex_:
        v = v + 1j * rng.standard_normal(grid.n_nodes)
    return WaveFunction(grid, v)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def link_phase(A: Callable | None, a_pts, b_pts, h: float) -> np.ndarray:
    """Edge phases (1/h) int A . dl by the midpoint rule (exact for affine A)."""
    a_pts = np.atleast_2d(a_pts)
    b_pts = np.atleast_2d(b_pts)
    if A is None:
        return np.zeros(len(a_pts))
    mid = 0.5 * (a_pts + b_pts)
    Am = np.asarray(A(mid), dtype=float).reshape(len(a_pts), -1)
    return np.einsum("ij,ij->i", Am, b_pts - a_pts) / h


@dataclass
class AssembledForm:
    """Hermitian discrete energy: kinetic links + potential + Robin mass.

    K acts on the free nodes; `weight` is the diagonal quadrature mass used
    both as the L^2 pairing and for L^p sums.  Edge arrays stay in full-node
    indexing for diagnostics (diamagnetic and localization identities).
    """

    grid: Grid
    h: float
    K: sp.csr_matrix
    weight: np.ndarray          # (n_free,)
    edge_phase: np.ndarray
    is_complex: bool
    pot_floor: float            # min of the V + Robin diagonal over weight
    _prec: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def free_values(self, psi: WaveFunction) -> np.ndarray:
        return psi.values[self.grid.free]

    def full_values(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.n_nodes, dtype=x.dtype)
        full[self.grid.free] = x
        return full

    def energy(self, psi: WaveFunction) -> float:
        x = self.free_values(psi)
        return float(np.real(np.vdot(x, self.K @ x)))

    def preconditioner_shift(self) -> float:
        """The shift tau of the preconditioner K + tau M.

        tau combines the domain-scale kinetic quantum with a safeguard
        against indefinite potential/Robin diagonals; both terms scale
        exactly like M^{-1} K under the semiclassical grid rescale, which
        keeps descent iterates covariant on matched grids.
        """
        pts = self.grid.points
        base = sum((math.pi * self.h / float(np.ptp(pts[:, ax]))) ** 2
                   for ax in range(self.grid.dim))
        return base + 1.5 * max(0.0, -self.pot_floor)

    def preconditioner(self):
        """A solve with P = K + tau M, built lazily and reused.

        On a 2-D box grid, whose free nodes fill a sub-block, a real form
        gets the exact tensor solve `_TensorSolve` and a complex one the
        exact Fourier-capacitance solve `_FourierSolve` when K stores
        nothing off the diagonals 0, +-1, +-m1 and P's diagonals (K's plus
        tau w) match the fitted factors.  The tensor solve covers field-free
        boxes, the half-plane model with constant V and gamma, and the
        waveguide strip, whose coefficients vary along s only.  The Fourier
        solve covers a constant field in Landau gauge on such boxes: the
        magnetic half-plane model and constant-field rectangles with
        constant V and gamma.

        Everything else gets SuperLU of P, the one path that forms P: disks,
        magnetic forms in other gauges or with varying data, and the
        structure the checks reject.  d = 1 forms stay on SuperLU by choice:
        their solve (27 us on 1,000 nodes against 8 us for a tridiagonal
        one) is too small to carry a branch.
        SuperLU orders the columns by minimum degree on the pattern of
        A^T + A, which is the pattern of K itself (K is Hermitian); on
        these lattice graphs that cuts the L + U fill of the default COLAMD
        ordering by a third to a half, and the cost of every solve with it.
        """
        if self._prec is None:
            K, shift = self.K, self.preconditioner_shift() * self.weight
            block = _free_block(self.grid)
            if block is not None:
                self._prec = (_FourierSolve.build(K, shift, block) if self.is_complex
                              else _TensorSolve.build(K, shift, self.weight, block))
            if self._prec is None:
                P = K + sp.diags(shift.astype(K.dtype))
                self._prec = spla.splu(P.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return self._prec


def _free_block(grid: Grid):
    """(m0, m1), the free sub-block of a 2-D box grid: pinning is per
    face, so its free set is the product of per-axis masks."""
    if grid.dim != 2 or grid.shape is None:
        return None
    free = grid.free.reshape(grid.shape)
    return int(free.any(axis=1).sum()), int(free.any(axis=0).sum())


def _stencil_diagonals(K: sp.csr_matrix, shift: np.ndarray, m1: int):
    """Diagonals 0, 1, -1, m1, -m1 of P = K + diag(shift); None if K has others."""
    rows = np.repeat(np.arange(K.shape[0], dtype=K.indices.dtype), np.diff(K.indptr))
    off = np.abs(K.indices - rows)
    if np.any((off > 1) & (off != m1)):
        return None
    return [K.diagonal() + shift] + [K.diagonal(k) for k in (1, -1, m1, -m1)]


def _equal_to_rounding(diagonals, rebuilt) -> bool:
    """Each diagonal equals its rebuilt one to 1e-14 of P's largest entry."""
    dev = max(float(np.abs(d - r).max()) for d, r in zip(diagonals, rebuilt))
    return dev <= 1e-14 * max(float(np.abs(d).max()) for d in diagonals)


class _PttrfFactor:
    """An exact box solve built on dpttrf of one long SPD tridiagonal (`d`,
    `e`); its bidiagonal Cholesky factor is exposed as L and U = L^T."""

    d: np.ndarray
    e: np.ndarray

    @property
    def L(self) -> sp.csr_matrix:
        """Bidiagonal Cholesky factor of the long tridiagonal."""
        r = np.sqrt(self.d)
        L = sp.diags([r, self.e * r[:-1]], [0, -1], format="csr")
        L.eliminate_zeros()
        return L

    @property
    def U(self) -> sp.csc_matrix:
        return self.L.T


def _blocks_tridiagonal(diag: np.ndarray, off: np.ndarray):
    """dpttrf of blockdiag of the rows of (diag, off): one tridiagonal per
    row of `diag`, uncoupled, laid out row-major."""
    e = np.zeros(diag.shape)
    e[:, :-1] = off
    return lapack.dpttrf(diag.ravel(), e.ravel()[:-1])


class _TensorSolve(_PttrfFactor):
    """Exact solve with P = S (x) W + D (x) T on an m0 x m1 free block.

    The free nodes are ordered row-major, the last axis contiguous.  W is
    the last-axis weight diagonal and T a tridiagonal operator along that
    axis; S is tridiagonal along axis 0 and D = diag(f).  This is the
    one-axis fast diagonalization of Lynch, Rice and Thomas (Numer. Math.
    6, 1964): with T V = W V Lambda and V^T W V = I,

        P^{-1} = (I (x) V) blockdiag_j(S + lambda_j D)^{-1} (I (x) V^T),

    so a solve is two small GEMMs and one SPD tridiagonal solve of
    length m0 m1 in j-major order (dpttrf once, dpttrs per call).

    The split exists when the last-axis couplings are rank one f(i) g(j),
    the axis-0 couplings are proportional to W, and the diagonal is
    sdiag(i) W(j) + f(i) t(j).  Constant V and gamma, and constant Robin
    faces on either axis, fit that form.  So does the waveguide strip:
    its t-edges carry a(s)^{-1-2/p} g(t) and its s-edges
    h^2 a(s_{i+1/2})^{1-2/p} dt, which vary along s only, so splitting
    along t alone is exact where a two-axis diagonalization is not.
    `build` fits the factors from P's five stencil diagonals and accepts
    them if P stores nothing else and each diagonal matches to 1e-14.
    """

    def __init__(self, shape, V, d, e):
        self.shape = shape
        self.V = V
        self.d, self.e = d, e

    @classmethod
    def build(cls, K: sp.csr_matrix, shift, weight, shape):
        """The solve for P = K + diag(shift) on the free block `shape`, or
        None if P has no exact split."""
        m0, m1 = shape
        dg = _stencil_diagonals(K, shift, m1)
        if dg is None:
            return None
        W = weight.reshape(shape).sum(axis=0)
        W = W / W.max()
        diag = dg[0].reshape(shape)
        c1 = np.append(dg[1], 0.0).reshape(shape)[:, :-1]
        c0 = dg[3].reshape(m0 - 1, m1)
        s_off = c0 @ W / (W @ W)
        s_diag = diag @ W / (W @ W)
        f = -c1.sum(axis=1)
        t_off = f @ c1 / (f @ f)
        t_diag = f @ (diag - np.outer(s_diag, W)) / (f @ f)
        s1 = np.hstack([np.outer(f, t_off), np.zeros((m0, 1))]).ravel()[:-1]
        sm = np.outer(s_off, W).ravel()
        fit = (np.outer(s_diag, W) + np.outer(f, t_diag)).ravel()
        if not _equal_to_rounding(dg, [fit, s1, s1, sm, sm]):
            return None
        # T V = W V Lambda through the symmetric W^{-1/2} T W^{-1/2}
        r = 1.0 / np.sqrt(W)
        lam, U = eigh_tridiagonal(t_diag * r * r, t_off * r[:-1] * r[1:])
        # blockdiag_j(S + lambda_j D) as one tridiagonal, j-major
        d, e, info = _blocks_tridiagonal(s_diag + lam[:, None] * f, s_off)
        if info != 0:
            return None
        return cls(shape, U * r[:, None], d, e)

    def solve(self, b: np.ndarray) -> np.ndarray:
        z = self.V.T @ b.reshape(self.shape).T
        y, _ = lapack.dpttrs(self.d, self.e, z.reshape(-1, 1), overwrite_b=1)
        return (y.reshape(z.shape).T @ self.V.T).ravel()


class _FourierSolve(_PttrfFactor):
    """Exact solve with a magnetic P whose interior axis-0 columns are equal.

    On an m0 x m1 free block (row-major, the last axis contiguous) P is
    block tridiagonal along axis 0: a real tridiagonal A on every interior
    column, Hermitian tridiagonals A_0, A_last on the two end columns, and
    one diagonal coupling C between neighbouring columns.  A constant field
    in Landau gauge A = (-b (x2 - c2), 0) gives exactly that: its phases
    sit on the axis-0 links and depend on x2 only.

    Wrapping axis 0 onto a circle gives P_per, which a DFT along axis 0
    splits into one real SPD tridiagonal per mode k,

        T_k = A + 2 Re(C omega^k),    omega = e^{2 pi i / m0},

    factored once as one k-major tridiagonal (dpttrf); a call runs dpttrs
    with Re and Im as two columns.  E = P_per - P lives on the 2 m1 nodes S
    of the two end columns, so P x = b is solved exactly by the capacitance
    method (Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8, 1971):
    with G = P_per^{-1} and y = G b,

        (I - G_SS E_SS) x_S = y_S,    x = y + G R^T E_SS x_S,

    where R restricts to S.  The Green's blocks G_{i i'} = (1/m0) sum_k
    omega^{k (i - i')} T_k^{-1} come from the per-mode pivots: a symmetric
    tridiagonal inverse is semiseparable, (T^{-1})_{jl} = g_l prod_{m=j}^{l-1}
    r_m for j <= l, with g the diagonal of T^{-1} from the forward and
    backward pivots and r_m = -t_m / delta_m from the forward ones, so the
    sum over k is one GEMM.  `build` reads A, A_0, A_last and C off P's five
    stencil diagonals and accepts them if P stores nothing else and each
    diagonal matches its rebuild to 1e-14.
    """

    _RANGE = 600.0     # largest exponent of e taken in one Green's-block GEMM

    def __init__(self, shape, d, e, lu, E, omega):
        self.shape = shape
        self.d, self.e = d, e
        self.lu, self.E, self.omega = lu, E, omega

    @classmethod
    def build(cls, K: sp.csr_matrix, shift, shape):
        """The solve for P = K + diag(shift) on the free block `shape`, or
        None if P is not of that form."""
        m0, m1 = shape
        if m0 < 3:
            return None
        dg = _stencil_diagonals(K, shift, m1)
        if dg is None:
            return None
        diag = dg[0].reshape(shape)
        off = np.append(dg[1], 0.0).reshape(shape)[:, :-1]
        a_diag, a_off, C = diag[1].real, off[1].real, dg[3][:m1]
        rd, ro = diag.copy(), off.copy()
        rd[1:-1], ro[1:-1] = a_diag, a_off
        ro = np.hstack([ro, np.zeros((m0, 1))]).ravel()[:-1]
        cc = np.tile(C, m0 - 1)
        rebuilt = [rd.ravel(), ro, np.conj(ro), cc, np.conj(cc)]
        if not (_equal_to_rounding(dg, rebuilt) and np.all(a_off < 0.0)):
            return None
        omega = np.exp(2j * np.pi * np.arange(m0) / m0)
        T = a_diag + 2.0 * (np.outer(omega.real, C.real)
                            - np.outer(omega.imag, C.imag))
        # forward pivots delta and, on the reversed rows, backward pivots eta
        d, e, info = _blocks_tridiagonal(T, a_off)
        db, _, info_b = _blocks_tridiagonal(T[:, ::-1], a_off[::-1])
        if info != 0 or info_b != 0:
            return None
        delta, eta = d.reshape(shape), db.reshape(shape)[:, ::-1]
        g = 1.0 / (delta + eta - T)
        # ell_{k,j} = log prod_{m<j} r_{k,m}; 0 < r < 1 on lattice forms,
        # whose T_k are diagonally dominant, so ell falls along j
        ell = np.zeros(shape)
        r = -np.append(e, 0.0).reshape(shape)[:, :-1]
        ell[:, 1:] = np.cumsum(np.log(r), axis=1)
        G0, G1 = cls._green_blocks(ell, g, omega)
        A = sp.diags([a_off, a_diag, a_off], [-1, 0, 1]).toarray()
        ends = [sp.diags([np.conj(off[i]), diag[i], off[i]], [-1, 0, 1]).toarray()
                for i in (0, -1)]
        E = np.block([[A - ends[0], np.diag(np.conj(C))],
                      [np.diag(C), A - ends[1]]])
        G = np.block([[G0, G1], [np.conj(G1), G0]])
        lu = lu_factor(np.eye(2 * m1) - G @ E)
        return cls(shape, d, e, lu, E, omega)

    @classmethod
    def _green_blocks(cls, ell, g, omega):
        """(1/m0) sum_k w_k T_k^{-1} for w_k = 1 and w_k = omega^k.

        The entries g_l e^{ell_l - ell_j} (j <= l) are formed as products of
        e^{a - ell_j} and g_l e^{ell_l - a}; the columns are cut into bins
        over which ell moves by at most _RANGE for every k, and the anchor
        a is ell at the end of the row bin, so no factor overflows.
        """
        m0, m1 = ell.shape
        step = np.abs(np.diff(ell, axis=1)).max(axis=0)
        cuts, acc = [0], 0.0
        for j in range(1, m1):
            acc += step[j - 1]
            if acc > cls._RANGE:
                cuts.append(j)
                acc = 0.0
        cuts.append(m1)
        bins = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        W = np.stack([np.ones(m0), omega.real, omega.imag], axis=1) / m0
        S = np.zeros((3, m1, m1))
        for bi, J in enumerate(bins):
            a = ell[:, J.stop - 1:J.stop]
            X = np.exp(a - ell[:, J])
            for L in bins[bi:]:
                Y = g[:, L] * np.exp(ell[:, L] - a)
                XY = X.T @ (W[:, :, None] * Y[:, None, :]).reshape(m0, -1)
                S[:, J, L] = XY.reshape(X.shape[1], 3, -1).transpose(1, 0, 2)
        S = np.triu(S) + np.transpose(np.triu(S, 1), (0, 2, 1))
        return S[0], S[1] + 1j * S[2]

    def _modes(self, z: np.ndarray) -> np.ndarray:
        """T_k^{-1} z[k] for every mode k (z has shape (m0, m1)).  Re z, Im z
        fill a (2, m0, m1) buffer: the Fortran-ordered (m0 m1, 2) right-hand
        side that dpttrs solves in place into a preallocated complex array."""
        rhs = np.empty((2,) + self.shape)
        rhs[0], rhs[1] = z.real, z.imag
        y, _ = lapack.dpttrs(self.d, self.e, rhs.reshape(2, -1).T, overwrite_b=1)
        out = np.empty(self.shape, dtype=complex)
        out.real, out.imag = y.T.reshape(rhs.shape)
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        m0, m1 = self.shape
        y = self._modes(np.fft.fft(b.reshape(self.shape), axis=0))
        # y on the end columns i = 0 and i = m0 - 1, then the correction
        y_s = np.concatenate([y.sum(axis=0), np.conj(self.omega) @ y]) / m0
        w = self.E @ lu_solve(self.lu, y_s)
        y += self._modes(w[:m1] + np.outer(self.omega, w[m1:]))
        return np.fft.ifft(y, axis=0).ravel()


def assemble(spec: GeometrySpec, h: float, grid: Grid,
             gauge_phi: Callable | None = None) -> AssembledForm:
    """Assemble the discrete form Q_h on the given grid.

    `gauge_phi` adds exact node differences (phi(b) - phi(a))/h to the link
    phases, i.e. assembles the gauge-shifted geometry with A + grad(phi) in
    a way that makes the discrete gauge identity exact.

    K is one COO -> CSR conversion: two hops per free-free edge and, per free
    node, its link coefficients (np.bincount) plus potential and Robin terms.
    LatticeOutOfRange when an entry overflows, or when a nonzero V (gamma)
    term would round away at V = 1 (gamma = 1) on every (Robin) node.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    g = grid
    a, b = g.edges[:, 0], g.edges[:, 1]
    theta = (np.zeros(len(a)) if spec.A is None
             else link_phase(spec.A, g.points[a], g.points[b], h))
    if gauge_phi is not None:
        phi = np.asarray(gauge_phi(g.points), dtype=float).reshape(g.n_nodes)
        theta = theta + (phi[b] - phi[a]) / h
    is_complex = bool(np.any(theta != 0.0))

    kin = (h * h) * g.edge_coeff
    fa, fb = g.free_index[a], g.free_index[b]
    both = (fa >= 0) & (fb >= 0)
    ia, ib = fa[both], fb[both]
    hop = -kin[both] * np.exp(-1j * theta[both]) if is_complex else -kin[both]
    nf, ends = g.n_free, np.concatenate([fa, fb])
    on = ends >= 0
    kin_diag = np.bincount(ends[on], np.concatenate([kin, kin])[on], nf)

    fpts, w, sw = g.points[g.free], g.weight[g.free], g.surface_weight[g.free]
    pot = h * spec.v_at(fpts) * w
    lost = np.any(pot) and np.array_equal(kin_diag + h * w, kin_diag)
    rob = sw > 0.0
    if np.any(rob):
        robin = h ** 1.5 * spec.gamma_at(fpts[rob]) * sw[rob]
        lost |= np.any(robin) and np.array_equal(kin_diag + h ** 1.5 * sw, kin_diag)
        pot[rob] += robin
    diag = kin_diag + pot
    vals = np.concatenate([hop, np.conj(hop), diag])
    finite = np.all(np.isfinite(vals))
    if not finite or lost:
        why = "V and gamma round away" if finite else "the form overflows"
        raise LatticeOutOfRange(f"h = {h:.6g} at spacing {min(g.spacing):.6g}: {why}")
    ii = np.arange(nf)      # int32 indices, as scipy keeps them: no copies
    K = sp.csr_matrix((vals, (np.concatenate([ia, ib, ii], dtype=np.int32),
                              np.concatenate([ib, ia, ii], dtype=np.int32))),
                      shape=(nf, nf))

    return AssembledForm(grid=g, h=h, K=K, weight=w,
                         edge_phase=theta, is_complex=is_complex,
                         pot_floor=float(np.min(pot / w)))


@dataclass(frozen=True)
class EvaluationResult:
    energy: float
    lp_norm: float
    quotient: float


def evaluate(form: AssembledForm, psi: WaveFunction, p: float) -> EvaluationResult:
    """Energy, L^p norm and Sobolev quotient of a lattice field."""
    lp = psi.norm_lp(p)
    if lp < 1e-300:
        raise ZeroFunction("wave function vanishes on all free nodes")
    en = form.energy(psi)
    return EvaluationResult(energy=en, lp_norm=lp, quotient=en / lp ** 2)


def kinetic_energy(form: AssembledForm, psi: WaveFunction,
                   magnetic: bool = True) -> float:
    """Link kinetic energy; magnetic=False drops phases and uses |psi|.

    The two values bound each other by the diamagnetic inequality, edge by
    edge: kinetic_energy(|psi|, magnetic=False) <= kinetic_energy(psi).
    """
    a = form.grid.edges[:, 0]
    b = form.grid.edges[:, 1]
    v = psi.values
    if magnetic:
        d = v[b] * np.exp(-1j * form.edge_phase) - v[a]
    else:
        d = np.abs(v[b]) - np.abs(v[a])
    return float(((form.h * form.h) * form.grid.edge_coeff) @ np.abs(d) ** 2)


def gauge_transform(psi: WaveFunction, phi: Callable, h: float) -> WaveFunction:
    """psi -> e^{i phi / h} psi, the field side of the gauge covariance
    Q_phi(e^{i phi/h} psi) = Q(psi), with Q_phi = assemble(gauge_phi=phi)."""
    ph = np.asarray(phi(psi.grid.points), dtype=float).reshape(psi.grid.n_nodes)
    return WaveFunction(psi.grid, np.exp(1j * ph / h) * psi.values)


def shifted_spec(spec: GeometrySpec, grad_phi: Callable) -> GeometrySpec:
    """Continuum gauge shift A -> A + grad(phi) (same field B)."""
    base = spec.A

    def A(pts):
        gp = np.asarray(grad_phi(np.atleast_2d(pts)), dtype=float)
        if base is None:
            return gp
        return np.asarray(base(pts), dtype=float) + gp

    return GeometrySpec(domain=spec.domain, V=spec.V, A=A, gamma=spec.gamma,
                        B=spec.B)


def wavefunction_rows(psi: WaveFunction):
    """(x, y, Re, Im, |psi|) rows for CSV export (y omitted in 1D)."""
    pts = psi.grid.points
    v = psi.values.astype(complex)
    for i in range(psi.grid.n_nodes):
        yield (*[float(c) for c in pts[i]], float(v[i].real), float(v[i].imag),
               float(abs(v[i])))
