"""Minimization of the discrete Sobolev quotient R(psi) = Q(psi) / |psi|_p^2.

For p = 2 the quotient is a generalized Rayleigh quotient and the minimum
is the lowest eigenvalue of K x = lambda M x: real 1D problems are solved
exactly (tridiagonal), the rest by one LOBPCG solve (Knyazev, SIAM J. Sci.
Comput. 23, 2001) preconditioned by the P = K + tau M of the descent
below.  Its residual eps = |M^{-1} K x - lambda x|_M is half the gradient
norm and the Krylov-Bogoliubov radius: an eigenvalue lies within eps of
lambda.  Near-degenerate Landau-type levels do not stall it.

For p > 2 the quotient is 0-homogeneous and is minimized on the L^p unit
sphere by Polak-Ribiere+ nonlinear conjugate gradients in the metric of
the shifted operator P = K + tau M, which removes the mesh-scale
stiffness of the raw gradient flow (as for Gross-Pitaevskii ground
states: Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017).  Real
forms on 2-D boxes (the model half- and whole-planes, the waveguide
strip) solve P exactly by a one-axis fast diagonalization, and magnetic
ones in Landau gauge (the magnetic models, constant-field rectangles) by
an FFT along x1 with a capacitance correction; disks, d = 1 and the other
magnetic forms use an MMD-ordered SuperLU factorization
(`AssembledForm.preconditioner`).  Along a direction d the energy is the
quadratic

    Q(x - a d) = Q(x) - 2a Re<d, K x> + a^2 <d, K d>,

and at p = 4 the norm |x - a d|_4^4 is a quartic in a whose coefficients
are five weighted moments of x and d, so the line quotient is an exact
rational function of a and is minimized in closed form with no L^p norm.
Other p backtrack with one axpy and one L^p norm per trial.  Decreases
are formed without cancellation (`_decrease`), so they keep their sign
at the gradient tolerance.  An accepted iterate is renormalized and K x
is formed afresh (never updated by recurrence), and serves both the
quotient and the gradient: one iteration costs one preconditioner solve
and two sparse matvecs.  Each restart reports why it stopped: `grad_tol`,
`stagnation` (no decrease over a window of iterations), `cap` (iteration
limit), `backtrack_floor` (no step lowers the quotient, so the iterate
cannot move) or `outpaced` (by the forecast of its recent decreases it
would still end above the best converged start at the cap; see
`_descend`).
Multiple starts (a Gaussian bump at each candidate localization center,
then random fields) guard against spurious local minima.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import lobpcg

from .discretize import (AssembledForm, WaveFunction, abs_pow, evaluate,
                         gaussian_bump, lp_norm)
from .errors import ZeroFunction
from .geometry import check_exponent

_STAG_WINDOW = 60
_TIE = 1e-10            # restart values this close count as equal


@dataclass
class MinimizeOptions:
    """Iteration controls for the p > 2 descent and the p = 2 LOBPCG."""

    max_iters: int = 3000
    grad_tol: float = 1e-8      # on |grad|_M relative to max(1, |R|)
    restarts: int = 5
    seed: int = 0
    centers: tuple = ()         # Gaussian-bump initialization centers
    bump_width: float | None = None


@dataclass
class MinimizerResult:
    lam: float
    psi: WaveFunction
    iterations: int
    el_residual: float
    restart_values: list = field(default_factory=list)
    restart_iterations: list = field(default_factory=list)
    # per start: a _Stop.reason (grad_tol ... outpaced), or "eigen" (1D, p = 2)
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


def _normal_field(rng, form):
    """Gaussian field on the free nodes; complex on a complex form."""
    x = rng.standard_normal(form.n)
    if form.is_complex:
        x = x + 1j * rng.standard_normal(form.n)
    return x


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


def _lobpcg_eigen(form, opts):
    """LOBPCG on W^{-1/2} K W^{-1/2} in y = W^{1/2} x: (lambda, x, steps).

    Its 2-norm residual is the M-norm one, so tol = grad_tol / 2 is the
    p > 2 gradient test wherever |lambda| <= 1, and stricter above.
    """
    x0 = _normal_field(np.random.default_rng(opts.seed), form)
    s = np.sqrt(form.weight)[:, None]
    prec = form.preconditioner()
    steps = 0

    def precondition(R):
        nonlocal steps
        steps += 1
        return s * prec.solve(s[:, 0] * R[:, 0])[:, None]

    with warnings.catch_warnings():
        # a missed tolerance is reported by the caller's residual test
        warnings.filterwarnings("ignore", "(?s).*not reaching the requested")
        # scipy's loop takes maxiter + 1 preconditioned steps
        lam, y = lobpcg(lambda Y: form.K @ (Y / s) / s, s * x0[:, None],
                        M=precondition, tol=0.5 * opts.grad_tol,
                        maxiter=opts.max_iters - 1, largest=False)
    return float(lam[0]), y[:, 0] / s[:, 0], steps


def _eigen_path(form, opts):
    exact = form.grid.dim == 1 and not form.is_complex
    lam, x, its = ((*_tridiagonal_eigen(form), 1) if exact
                   else _lobpcg_eigen(form, opts))
    psi = WaveFunction(form.grid, form.full_values(x))
    psi = WaveFunction(form.grid, psi.values / psi.norm_lp(2.0))
    res = el_residual(form, lam, psi, 2.0)
    gnorm = 2.0 * res           # |grad|_M at an L^2-normalized field
    scale = opts.grad_tol * max(1.0, abs(lam))
    exit_reason = "eigen" if exact else "grad_tol" if gnorm <= scale else "cap"
    return MinimizerResult(lam=lam, psi=psi, iterations=its, el_residual=res,
                           restart_values=[lam], restart_iterations=[its],
                           restart_exits=[exit_reason],
                           converged=gnorm <= 10.0 * scale, grad_norm=gnorm)


# ---------------------------------------------------------------------------
# p > 2: preconditioned nonlinear CG with L^p renormalization
# ---------------------------------------------------------------------------

def _quartic_moments(w, x, d):
    """delta(a) = |x - a d|_4^4 - 1 at |x|_4 = 1: its a .. a^4 coefficients.

    With u = |x|^2, v = Re(conj(x) d) and s = |d|^2 per node,
    |x - a d|^2 = u - 2a v + a^2 s, so the coefficients are weighted sums
    of u v, v^2, u s, v s and s^2, taken in one pass.
    """
    if np.iscomplexobj(x) or np.iscomplexobj(d):
        u = x.real * x.real + x.imag * x.imag
        v = x.real * d.real + x.imag * d.imag
        s = d.real * d.real + d.imag * d.imag
    else:
        u, v, s = x * x, x * d, d * d
    wv, ws = w * v, w * s
    return (-4.0 * (wv @ u), 4.0 * (wv @ v) + 2.0 * (ws @ u),
            -4.0 * (ws @ v), ws @ s)


def _decrease(R, dKx, dKd, a, delta, p):
    """q(a) - R for the line quotient q(a) = Q(x - a d) / |x - a d|_p^2.

    x is L^p-normalized with R = Q(x), and |x - a d|_p^p = 1 + delta.
    With r = (1 + delta)^{2/p} - 1 taken by expm1/log1p (at p = 4,
    r = delta / (sqrt(1 + delta) + 1)), the difference is
    [(-2a dKx + a^2 dKd) - R r] / (1 + r): no two large numbers cancel,
    so the sign and size of a decrease far below R's roundoff survive.
    """
    if not delta > -1.0:
        return math.inf
    r = math.expm1(2.0 / p * math.log1p(delta))
    return (a * (a * dKd - 2.0 * dKx) - R * r) / (1.0 + r)


def _exact_step(R, dKx, dKd, n):
    """Best step of the p = 4 line quotient, as (a, |x - a d|_4) or None.

    With Q(a) = R - 2a dKx + a^2 dKd and N(a) = 1 + delta(a) (coefficients
    n from `_quartic_moments`), q = Q / sqrt(N) is stationary where
    Q' N - Q N' / 2 = 0.  Its a^5 terms cancel, leaving a quartic; every
    positive real part of its roots is a candidate, and the one with the
    most negative `_decrease` is taken.  When q falls all along the line
    its infimum is the end point a = inf, the field -d, taken when it
    lies below R.
    """
    q0, q1, q2 = R, -2.0 * dKx, dKd
    n1, n2, n3, n4 = n
    quartic = (0.5 * q2 * n3 - q1 * n4,
               q2 * n2 - 0.5 * q1 * n3 - 2.0 * q0 * n4,
               1.5 * (q2 * n1 - q0 * n3),
               0.5 * q1 * n1 + 2.0 * q2 - q0 * n2,
               q1 - 0.5 * q0 * n1)
    best = (dKd / math.sqrt(n4) - R, math.inf, n4 ** 0.25)
    for a in np.roots(quartic).real:
        if a <= 0.0:
            continue
        a = float(a)
        delta = a * (n1 + a * (n2 + a * (n3 + a * n4)))
        dec = _decrease(R, dKx, dKd, a, delta, 4.0)
        if dec < best[0]:
            best = (dec, a, (1.0 + delta) ** 0.25)
    return best[1:] if best[0] < 0.0 else None


def _armijo_step(w, x, d, p, R, dKx, dKd, slope, a):
    """Backtracking from a, one L^p norm per trial: (a, |x - a d|_p) or None."""
    while a >= 1e-18:
        nt = lp_norm(w, x - a * d, p)
        dec = _decrease(R, dKx, dKd, a, nt ** p - 1.0, p)
        if dec <= -1e-4 * a * slope:
            return a, nt
        # minimizer of the quadratic through q(0), q'(0) = -slope, q(a)
        quad = 0.5 * slope * a * a / (dec + slope * a)
        a = min(max(quad, 0.1 * a), 0.5 * a) if math.isfinite(quad) else 0.5 * a
    return None


def _forecast(trail, max_iters):
    """Forecast of R at the cap from the trail R_0 .. R_k, k >= W.

    W = _STAG_WINDOW.  With the window decreases D1 = R_{k-2W} - R_{k-W}
    and D2 = R_{k-W} - R_k, a trail whose decreases shrink (0 < D2 < D1)
    is taken to go on shrinking geometrically by rho = D2 / D1 per window,
    so the m = (max_iters - k) / W windows left gain
    D2 rho (1 - rho^m) / (1 - rho): exact on R_j = L + C r^j.  Otherwise
    the last window's pace D2 / W is taken to hold to the cap.
    """
    W = _STAG_WINDOW
    k = len(trail) - 1
    d2 = trail[k - W] - trail[k]
    m = (max_iters - k) / W
    gain = d2 * m
    if k >= 2 * W:
        d1 = trail[k - 2 * W] - trail[k - W]
        if 0.0 < d2 < d1:
            shrink = (d1 - d2) / d1     # 1 - rho, free of cancellation
            tail = -math.expm1(m * math.log1p(-shrink)) / shrink
            gain = d2 * (1.0 - shrink) * tail
    return trail[k] - gain


def _descend(form, x0, p, opts, incumbent=math.inf):
    """Preconditioned nonlinear CG on the quotient; (trail, x, iters, _Stop).

    The direction is d = z + beta d_prev with z = P^{-1} M g and the
    Polak-Ribiere+ beta = max(0, <g - g_prev, z>_M / <g_prev, z_prev>_M);
    it falls back to z when it is not a descent direction.  At p = 4 the
    line quotient is an exact rational function of the step, minimized
    in closed form (`_exact_step`) with no L^p norm; any other p
    backtracks from twice the last step with one L^p norm per trial.
    Every accepted step lowers R.  The trail holds R at the start and
    after each accepted step, so trail[-1] is the final R.  A start whose
    L^p norm overflows (|x|^p at large p) is first divided by its largest
    |x|, which leaves the 0-homogeneous quotient unchanged.

    `incumbent` is the best value a converged start has reached.  After
    k >= _STAG_WINDOW accepted steps the descent stops as `outpaced` when
    the `_forecast` of R at the cap exceeds incumbent + _TIE: it cannot be
    the selected start.  The forecast assumes the recent decreases go on
    at their pace, or keep shrinking at their rate when they shrink; a
    start that idles on a plateau and speeds up later is cut too, which
    changes the answer only if it would have ended strictly below every
    converged start.
    """
    w = form.weight
    K = form.K
    max_iters, grad_tol = opts.max_iters, opts.grad_tol
    prec = form.preconditioner()

    def pdir(g):
        return prec.solve((w * g).astype(K.dtype))

    def wdot(a, b):
        return float(np.real(np.vdot(a, w * b)))

    n0 = lp_norm(w, x0, p)
    if n0 == math.inf:
        x0 = x0 / np.max(np.abs(x0))
        n0 = lp_norm(w, x0, p)
    if n0 < 1e-300:
        raise ZeroFunction("zero trial function")
    x = x0 / n0
    Kx = K @ x
    R = float(np.real(np.vdot(x, Kx)))
    g = _grad_unit(w, x, Kx, R, p)
    z = pdir(g)
    gz = wdot(g, z)
    d = z
    a = 0.5                 # the first trial of a backtracking (p != 4) is 2a
    gnorm = math.sqrt(wdot(g, g))
    best_R, since_best = R, 0
    trail = [R]             # R after each accepted step, for the forecast
    reason = "cap"
    it = 0
    for it in range(max_iters):
        gnorm = math.sqrt(wdot(g, g))
        if gnorm <= grad_tol * max(1.0, abs(R)):
            reason = "grad_tol"
            break
        slope = wdot(g, d)
        if slope <= 0.0:
            d, slope = z, gz
        Kd = K @ d
        dKx = float(np.real(np.vdot(d, Kx)))
        dKd = float(np.real(np.vdot(d, Kd)))
        if p == 4.0:
            step = _exact_step(R, dKx, dKd, _quartic_moments(w, x, d))
        else:
            step = _armijo_step(w, x, d, p, R, dKx, dKd, slope, 2.0 * a)
        if step is None:
            reason = "backtrack_floor"
            break
        a, nt = step
        if a == math.inf:       # the line's end point: d_prev is along xt
            xt, carry = -d / nt, 0.0
        else:
            xt, carry = (x - a * d) / nt, 1.0 / nt
        Kxt = K @ xt
        Rt = float(np.real(np.vdot(xt, Kxt)))
        gt = _grad_unit(w, xt, Kxt, Rt, p)
        zt = pdir(gt)
        gzt = wdot(gt, zt)
        beta = max(0.0, (gzt - wdot(g, zt)) / gz)
        d = zt + (beta * carry) * d
        x, Kx, g, z, gz, R = xt, Kxt, gt, zt, gzt, Rt
        trail.append(R)
        if (len(trail) > _STAG_WINDOW
                and _forecast(trail, max_iters) > incumbent + _TIE):
            reason = "outpaced"
            break
        if R < best_R - 1e-15 * max(1.0, abs(best_R)):
            best_R, since_best = R, 0
        else:
            since_best += 1
            if since_best >= _STAG_WINDOW:
                reason = "stagnation"
                break
    return trail, x, it + 1, _Stop(reason, gnorm)


def minimize_quotient(form: AssembledForm, p: float,
                      opts: MinimizeOptions | None = None) -> MinimizerResult:
    """Minimize the discrete Sobolev quotient at exponent p >= 2.

    p = 2 uses the eigensolver path; p > 2 runs the CG descent from one
    Gaussian bump per candidate center (the middle of the domain when
    `centers` is empty) and then `restarts` random fields, returning the
    best final value (ties broken by iteration count).  Each start is
    given the lowest value of the finished starts that met the gradient
    tolerance, and stops as `outpaced` once the forecast of its recent
    decreases cannot bring it below that value by the cap; such a start
    ends above it and is never the one returned.  The result's
    `converged` flag is False when the best restart misses the gradient
    tolerance or its value is not finite.
    """
    opts = opts or MinimizeOptions()
    check_exponent(p)
    if p == 2.0:
        return _eigen_path(form, opts)

    rng = np.random.default_rng(opts.seed)
    grid = form.grid
    centers = opts.centers
    if not len(centers):
        centers = ((grid.domain.center,) if grid.domain.kind == "disk" else
                   (tuple(0.5 * (lo + hi) for lo, hi in grid.domain.bounds),))
    width = opts.bump_width or max(
        4.0 * max(grid.spacing), 0.08 * float(np.ptp(grid.points[:, 0])))
    starts = [gaussian_bump(grid, np.asarray(c, dtype=float)[: grid.dim],
                            width).values[grid.free].astype(form.K.dtype)
              for c in centers]
    starts += [_normal_field(rng, form) for _ in range(max(0, opts.restarts))]

    best = None
    incumbent = math.inf    # lowest value of a start that met grad_tol
    restart_values, restart_iterations, restart_exits = [], [], []
    for x0 in starts:
        if lp_norm(form.weight, x0, p) < 1e-300:
            x0 = _normal_field(rng, form)
        trail, x, its, stop = _descend(form, x0, p, opts, incumbent=incumbent)
        R = trail[-1]
        restart_values.append(R)
        restart_iterations.append(its)
        restart_exits.append(stop.reason)
        ok = (math.isfinite(R)
              and stop.grad_norm <= 10.0 * opts.grad_tol * max(1.0, abs(R)))
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
                           restart_exits=restart_exits,
                           converged=ok and math.isfinite(lam),
                           grad_norm=gnorm)
