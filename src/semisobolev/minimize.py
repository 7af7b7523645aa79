"""Minimization of the discrete Sobolev quotient R(psi) = Q(psi) / |psi|_p^2.

For p = 2 the quotient is a generalized Rayleigh quotient and the minimum
is the lowest eigenvalue of K x = lambda M x: 1D problems are solved by a
dense tridiagonal eigensolver, higher dimensions by a short preconditioned
descent that brackets the eigenvalue followed by shift-invert power
iteration (robust in the presence of Landau-level clustering, where
Krylov schemes stall on the near-degenerate subspace).

For p > 2 the quotient is 0-homogeneous and is minimized by projected
gradient descent on the L^p unit sphere.  Steps are Barzilai-Borwein with
a monotone (Armijo) backtracking safeguard; directions are preconditioned
by the shifted operator (K + tau M)^{-1}, which removes the mesh-scale
stiffness of the raw gradient flow.  Real forms on 2-D boxes (the model
half- and whole-planes, the waveguide strip) solve it exactly by a
one-axis fast diagonalization, everything else by an MMD-ordered SuperLU
factorization (`AssembledForm.preconditioner`).  Along a direction d the
energy is the quadratic

    Q(x - a d) = Q(x) - 2a Re<d, K x> + a^2 <d, K d>,

so with K d formed once per iteration a backtracking trial costs one axpy
and one L^p norm.  An accepted iterate is renormalized and K x is formed
afresh (never updated by recurrence), and serves both the quotient and
the gradient: one iteration costs one preconditioner solve and two sparse
matvecs.  Each restart reports why it stopped: `grad_tol`, `stagnation`
(no decrease over a window of iterations), `cap` (iteration limit),
`backtrack_floor` (no admissible step, so the iterate cannot move) or
`outpaced` (at its recent pace it would still end above the best
converged start at the cap; see `_descend`).
Multiple restarts (random fields plus Gaussian bumps at candidate
localization centers) guard against spurious local minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .discretize import (AssembledForm, WaveFunction, abs_pow, evaluate,
                         gaussian_bump, lp_norm)
from .errors import ZeroFunction
from .geometry import check_exponent

_STAG_WINDOW = 60
_TIE = 1e-10            # restart values this close count as equal
_POWER_ITERS = 200      # shift-invert power iteration cap
_POWER_TOL = 1e-13      # relative eigenvalue change, three times in a row


@dataclass
class MinimizeOptions:
    """Iteration controls for the projected gradient flow."""

    max_iters: int = 3000
    grad_tol: float = 1e-8      # on |grad|_M relative to max(1, |R|)
    restarts: int = 5
    seed: int = 0
    centers: tuple = ()         # Gaussian-bump initialization centers
    bump_width: float | None = None
    inits: tuple = ()           # explicit initial fields (override randoms)


@dataclass
class MinimizerResult:
    lam: float
    psi: WaveFunction
    iterations: int
    el_residual: float
    restart_values: list = field(default_factory=list)
    restart_iterations: list = field(default_factory=list)
    # per start: a _Stop.reason (grad_tol ... outpaced), or "eigen" at p = 2
    restart_exits: list = field(default_factory=list)
    converged: bool = True
    grad_norm: float = 0.0


class _Stop(NamedTuple):
    """Why a descent stopped, with the gradient norm it last measured."""

    reason: str     # grad_tol | stagnation | cap | backtrack_floor | outpaced
    grad_norm: float


def quotient_gradient(form: AssembledForm, psi: WaveFunction, p: float) -> WaveFunction:
    """Gradient of the quotient in the weighted L^2 pairing.

    g = (2/|psi|_p^2) (L psi - R |psi|_p^{2-p} |psi|^{p-2} psi) with
    L = M^{-1} K; the directional derivative of R at psi along delta is
    Re <g, delta>_M.  The gradient is (-1)-homogeneous.
    """
    ev = evaluate(form, psi, p)     # ZeroFunction on a vanishing field
    u = form.free_values(psi) / ev.lp_norm
    g = _grad_unit(form.weight, u, form.K @ u, ev.quotient, p) / ev.lp_norm
    return WaveFunction(form.grid, form.full_values(g))


def _line_energy(Q, dKx, dKd, a):
    """Q(x - a d) from Q(x), Re<d, K x> and <d, K d> (K Hermitian)."""
    return Q - 2.0 * a * dKx + a * a * dKd


def _grad_unit(w, x, Kx, R, p):
    """Gradient at an L^p-normalized x, given K x and R = <x, K x>."""
    return 2.0 * (Kx / w - R * abs_pow(x, p - 2.0) * x)


def el_residual(form: AssembledForm, lam: float, psi: WaveFunction, p: float) -> float:
    """Discrete L^2 norm of L psi - lam |psi|^{p-2} psi for L^p-normalized psi."""
    x = form.free_values(psi)
    r = form.apply(x) - lam * abs_pow(x, p - 2.0) * x
    return float(np.sqrt(np.real(np.vdot(r, form.weight * r))))


# ---------------------------------------------------------------------------
# p = 2: eigenvalue paths
# ---------------------------------------------------------------------------

def _tridiagonal_eigen(form):
    K = form.K.tocsr()
    d = K.diagonal().real
    off = K.diagonal(1)
    dinv = 1.0 / np.sqrt(form.weight)
    main = d * dinv * dinv
    sub = np.real(off) * dinv[:-1] * dinv[1:]
    vals, vecs = eigh_tridiagonal(main, sub, select="i", select_range=(0, 0))
    x = vecs[:, 0] * dinv
    return float(vals[0]), x


def _inverse_power(form, sigma, x0):
    Md = sp.diags(form.weight.astype(form.K.dtype))
    lu = sp.linalg.splu((form.K - sigma * Md).tocsc(), permc_spec="MMD_AT_PLUS_A")
    x = x0 / np.sqrt(np.real(np.vdot(x0, form.weight * x0)))
    lam_old, streak = np.inf, 0
    lam = lam_old
    for it in range(_POWER_ITERS):
        x = lu.solve(form.weight * x)
        x = x / np.sqrt(np.real(np.vdot(x, form.weight * x)))
        lam = float(np.real(np.vdot(x, form.K @ x)))
        if abs(lam - lam_old) <= _POWER_TOL * max(1.0, abs(lam)):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
        lam_old = lam
    return lam, x, it + 1


def _eigen_path(form, opts):
    if form.grid.dim == 1 and not form.is_complex:
        lam, x = _tridiagonal_eigen(form)
        iterations = 1
    else:
        rng = np.random.default_rng(opts.seed)
        x0 = rng.standard_normal(form.n)
        if form.is_complex:
            x0 = x0 + 1j * rng.standard_normal(form.n)
        # short preconditioned descent brackets the eigenvalue from above
        lam_est, x0, it0, _ = _descend(form, x0, 2.0, opts, max_iters=80,
                                       grad_tol=1e-6)
        sigma = lam_est - 0.05 * max(1.0, abs(lam_est))
        lam, x, it1 = _inverse_power(form, sigma, x0)
        iterations = it0 + it1
    psi = WaveFunction(form.grid, form.full_values(x))
    nrm = psi.norm_lp(2.0)
    psi = WaveFunction(form.grid, psi.values / nrm)
    res = el_residual(form, lam, psi, 2.0)
    return MinimizerResult(lam=lam, psi=psi, iterations=iterations,
                           el_residual=res, restart_values=[lam],
                           restart_iterations=[iterations],
                           restart_exits=["eigen"], converged=True,
                           grad_norm=res)


# ---------------------------------------------------------------------------
# p > 2: preconditioned projected gradient with L^p renormalization
# ---------------------------------------------------------------------------

def _descend(form, x0, p, opts, max_iters=None, grad_tol=None, history=None,
             incumbent=math.inf):
    """Monotone BB descent on the quotient; returns (R, x, iters, _Stop).

    `history`, when a list, receives R at the start and after each step.

    `incumbent` is the best value a converged start has reached.  After
    k >= W = _STAG_WINDOW accepted steps the descent stops as `outpaced`
    when R_k - pace (max_iters - k) > incumbent + _TIE, with the recent
    pace (R_{k-W} - R_k) / W: going on at that pace it would still end
    above the incumbent at the cap, so it cannot be the selected start.
    The forecast is linear, so a start that idles on a plateau and speeds
    up later is cut too; that changes the answer only if it would have
    ended strictly below every converged start.
    """
    w = form.weight
    K = form.K
    max_iters = opts.max_iters if max_iters is None else max_iters
    grad_tol = opts.grad_tol if grad_tol is None else grad_tol
    prec = form.preconditioner()

    def pdir(g):
        return prec.solve((w * g).astype(K.dtype))

    def wdot(a, b):
        return float(np.real(np.vdot(a, w * b)))

    n0 = lp_norm(w, x0, p)
    if n0 < 1e-300:
        raise ZeroFunction("zero trial function")
    x = x0 / n0
    Kx = K @ x
    R = float(np.real(np.vdot(x, Kx)))
    if history is not None:
        history.append(R)
    g = _grad_unit(w, x, Kx, R, p)
    d = pdir(g)
    alpha = 1.0
    gnorm = math.sqrt(wdot(g, g))
    best_R, since_best = R, 0
    trail = [R]             # R after each accepted step, for the pace
    reason = "cap"
    it = 0
    for it in range(max_iters):
        gnorm = math.sqrt(wdot(g, g))
        if gnorm <= grad_tol * max(1.0, abs(R)):
            reason = "grad_tol"
            break
        slope = wdot(g, d)
        if slope <= 0.0:
            d, slope = g, wdot(g, g)
        # quadratic line energy: trials need no matvec
        Kd = K @ d
        dKx = float(np.real(np.vdot(d, Kx)))
        dKd = float(np.real(np.vdot(d, Kd)))
        a = alpha
        while True:
            xt = x - a * d
            nt = lp_norm(w, xt, p)
            if nt > 1e-300 and (_line_energy(R, dKx, dKd, a) / nt ** 2
                                <= R - 1e-4 * a * slope):
                break
            a *= 0.5
            if a < 1e-18:
                xt = None
                break
        if xt is None:
            reason = "backtrack_floor"
            break
        xt /= nt
        Kxt = K @ xt
        Rt = float(np.real(np.vdot(xt, Kxt)))
        gt = _grad_unit(w, xt, Kxt, Rt, p)
        dt = pdir(gt)
        s_v = xt - x
        sy = wdot(s_v, dt - d)
        ss = wdot(s_v, s_v)
        alpha = abs(ss / sy) if sy != 0.0 and ss > 0.0 else 2.0 * a
        if not np.isfinite(alpha) or alpha <= 0.0:
            alpha = 2.0 * a
        x, Kx, g, d, R = xt, Kxt, gt, dt, Rt
        if history is not None:
            history.append(R)
        trail.append(R)
        k = it + 1          # accepted steps
        if k >= _STAG_WINDOW:
            pace = (trail[k - _STAG_WINDOW] - R) / _STAG_WINDOW
            if R - pace * (max_iters - k) > incumbent + _TIE:
                reason = "outpaced"
                break
        if R < best_R - 1e-15 * max(1.0, abs(best_R)):
            best_R, since_best = R, 0
        else:
            since_best += 1
            if since_best >= _STAG_WINDOW:
                reason = "stagnation"
                break
    return R, x, it + 1, _Stop(reason, gnorm)


def minimize_quotient(form: AssembledForm, p: float,
                      opts: MinimizeOptions | None = None) -> MinimizerResult:
    """Minimize the discrete Sobolev quotient at exponent p >= 2.

    p = 2 uses the eigensolver path; p > 2 runs the projected gradient flow
    from one Gaussian bump per candidate center and then `restarts` random
    fields (or from `inits`, in order), returning the best final value
    (ties broken by iteration count).  Each start is given the lowest value
    of the finished starts that met the gradient tolerance, and stops as
    `outpaced` once its recent pace cannot bring it below that value by the
    cap; such a start ends above it and is never the one returned.  The
    result's `converged` flag is False when the best restart misses the
    gradient tolerance.
    """
    opts = opts or MinimizeOptions()
    check_exponent(p, form.grid.dim)
    if p == 2.0:
        return _eigen_path(form, opts)

    rng = np.random.default_rng(opts.seed)
    grid = form.grid
    inits: list[np.ndarray] = []
    for x in opts.inits:
        arr = x.values if isinstance(x, WaveFunction) else np.asarray(x)
        arr = arr[grid.free] if arr.shape[0] == grid.n_nodes else arr
        inits.append(arr.astype(complex if form.is_complex else arr.dtype))
    if not opts.inits:
        centers = opts.centers
        if not len(centers):
            if grid.domain.kind == "disk":
                centers = (grid.domain.center,)
            else:
                centers = (tuple(0.5 * (lo + hi) for lo, hi in grid.domain.bounds),)
        width = opts.bump_width or max(
            4.0 * max(grid.spacing), 0.08 * float(np.ptp(grid.points[:, 0])))
        for cpt in centers:
            bump = gaussian_bump(grid, np.asarray(cpt, dtype=float)[: grid.dim], width)
            inits.append(bump.values[grid.free].astype(
                complex if form.is_complex else float))
        for _ in range(max(0, opts.restarts)):
            v = rng.standard_normal(form.n)
            if form.is_complex:
                v = v + 1j * rng.standard_normal(form.n)
            inits.append(v)

    best = None
    incumbent = math.inf    # lowest value of a start that met grad_tol
    restart_values, restart_iterations, restart_exits = [], [], []
    for x0 in inits:
        if lp_norm(form.weight, x0, p) < 1e-300:
            x0 = rng.standard_normal(form.n).astype(x0.dtype)
        R, x, its, stop = _descend(form, x0, p, opts, incumbent=incumbent)
        restart_values.append(R)
        restart_iterations.append(its)
        restart_exits.append(stop.reason)
        ok = stop.grad_norm <= 10.0 * opts.grad_tol * max(1.0, abs(R))
        if ok:
            incumbent = min(incumbent, R)
        cand = (R, its, x, stop.grad_norm, ok)
        if best is None or (R < best[0] - _TIE) or (
                abs(R - best[0]) <= _TIE and its < best[1]):
            best = cand

    R, its, x, gnorm, ok = best
    psi = WaveFunction(grid, form.full_values(x))
    nrm = psi.norm_lp(p)
    psi = WaveFunction(grid, psi.values / nrm)
    lam = evaluate(form, psi, p).quotient
    return MinimizerResult(lam=lam, psi=psi, iterations=sum(restart_iterations),
                           el_residual=el_residual(form, lam, psi, p),
                           restart_values=restart_values,
                           restart_iterations=restart_iterations,
                           restart_exits=restart_exits, converged=ok,
                           grad_norm=gnorm)
