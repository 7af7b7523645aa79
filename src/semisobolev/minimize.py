"""Minimization of the discrete Sobolev quotient R(psi) = Q(psi) / |psi|_p^2.

The quotient is 0-homogeneous and is minimized on the L^p unit sphere by
Polak-Ribiere+ nonlinear conjugate gradients in the metric of the shifted
operator P = K + tau M, which removes the mesh-scale stiffness of the raw
gradient flow (as for Gross-Pitaevskii ground states: Antoine, Levitt and
Tang, J. Comput. Phys. 343, 2017).  Real forms on 2-D boxes (the model
half-planes, the waveguide strip) solve P exactly by a one-axis
fast diagonalization, and magnetic ones in Landau gauge (the magnetic
models, constant-field rectangles) by an FFT along x1 with a capacitance
correction; disks, d = 1 and the other magnetic forms use an MMD-ordered
SuperLU factorization (`AssembledForm.preconditioner`).  Along a direction
d the energy is the quadratic

    Q(x - a d) = Q(x) - 2a Re<d, K x> + a^2 <d, K d>,

and at p = 2 and p = 4 the norm |x - a d|_p^p is a quadratic or a
quartic in a whose coefficients are weighted moments of x and d, so the
line quotient is an exact rational function of a and is minimized in
closed form with no L^p norm.  Other p backtrack, with one pass over the
per-node moments |x|^2, Re(conj(x) d) and |d|^2 per trial and one L^p
norm per accepted step (and per trial whose node powers overflow, at
large p).  Decreases are formed without cancellation
(`_decrease`), so they keep their sign at the gradient tolerance.  An
accepted iterate is renormalized and K x is formed afresh (never updated
by recurrence), and serves both the quotient and the gradient: one
iteration costs one preconditioner solve and two sparse matvecs on its
lattice, so an iteration on the lattice at twice the spacing costs about
2^-d of a fine one.  Each restart reports why it stopped: `grad_tol`,
`stagnation` (R fell by at most 1e-15 relative over the last
_STAG_WINDOW steps of its trail), `cap` (_MAX_ITERS iterations),
`backtrack_floor` (no step lowers the quotient, so the iterate cannot
move) or `outpaced` (by the forecast of its recent decreases it would
still end above the best converged start at the cap; see `_descend`).

Multiple starts (a Gaussian bump at each candidate localization center,
then random fields) guard against spurious local minima.  The minimizers
localize exponentially, so the basin a start falls into is already
decided on the lattice at twice the spacing; only the last digits of
lambda need the fine one.  Given that coarse form, every start descends
on it first, and the fine lattice polishes each distinct coarse minimum,
prolonged by multilinear interpolation (`discretize.prolong`), in
ascending order of its coarse value.  A start cut as `outpaced`, or one
ending within _TIE of a value already polished (`merged`), is not
polished.  This is the nested iteration of full multigrid (Brandt, Math.
Comp. 31, 1977), applied to the starts instead of to a linear solve.
A caller that already holds a field in the minimizer's basin (the
straight-strip minimizer zoomed onto a waveguide rung) passes it as the
one `start` in place of the bumps and random fields, and the fine lattice
polishes it alone.  Every lattice solve of the package enters through
`solve_lattice`, which builds both lattices and decides whether a coarse
stage runs.

At p = 2 the quotient is the Rayleigh quotient of K x = lambda M x and
its minimum the lowest eigenvalue.  The descent runs once, from a random
field (one start, nested like the others), whose exact line step is a
Rayleigh-Ritz step on the line (LOBPCG, Knyazev, SIAM J. Sci. Comput.
23, 2001, takes it on three vectors).  The residual eps =
|M^{-1} K x - lambda x|_M is half the gradient norm and the
Krylov-Bogoliubov radius: an eigenvalue lies within eps of lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .discretize import (AssembledForm, WaveFunction, abs_pow, evaluate,
                         gaussian_bump, lp_norm, prolong)
from .errors import LatticeOutOfRange, ZeroFunction
from .geometry import check_exponent

_MAX_ITERS = 3000       # iteration cap of one descent
_STAG_WINDOW = 60
_TIE = 1e-10            # restart values this close count as equal


@dataclass
class MinimizeOptions:
    """Controls of the one descent that serves every p; its cap is
    _MAX_ITERS.  The starts (`restarts`, `centers`, `bump_width`) act at
    p > 2 only: at p = 2 every local minimum is a ground state, so one
    random start suffices."""

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
    # per start: a _Stop.reason (grad_tol ... outpaced)
    restart_exits: list = field(default_factory=list)
    # per start, the coarse stage of a nested solve (empty without one);
    # a coarse exit is a _Stop.reason, or "merged" for an unpolished duplicate
    coarse_values: list = field(default_factory=list)
    coarse_iterations: list = field(default_factory=list)
    coarse_exits: list = field(default_factory=list)
    converged: bool = True


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
    if p == 2.0:
        return 2.0 * (Kx / w - R * x)
    return 2.0 * (Kx / w - R * abs_pow(x, p - 2.0) * x)


def el_residual(form: AssembledForm, lam: float, psi: WaveFunction, p: float) -> float:
    """Weighted L^2 norm of M^{-1} K psi - lam |psi|^{p-2} psi at L^p-normalized psi."""
    x = form.free_values(psi)
    r = _grad_unit(form.weight, x, form.K @ x, lam, p)     # twice the residual
    return 0.5 * float(np.sqrt(np.real(np.vdot(r, form.weight * r))))


def _accepted(R: float, grad_norm: float, grad_tol: float) -> bool:
    """The convergence test: R finite, |grad|_M <= 10 grad_tol max(1, |R|)."""
    return math.isfinite(R) and grad_norm <= 10.0 * grad_tol * max(1.0, abs(R))


# ---------------------------------------------------------------------------
# Preconditioned nonlinear CG with L^p renormalization
# ---------------------------------------------------------------------------

def _moments(x, d):
    """u = |x|^2, v = Re(conj(x) d) and s = |d|^2 per node, so that
    |x - a d|^2 = u - 2a v + a^2 s."""
    if np.iscomplexobj(x) or np.iscomplexobj(d):
        return (x.real * x.real + x.imag * x.imag,
                x.real * d.real + x.imag * d.imag,
                d.real * d.real + d.imag * d.imag)
    return x * x, x * d, d * d


def _quartic_moments(w, x, d):
    """delta(a) = |x - a d|_4^4 - 1 at |x|_4 = 1: its a .. a^4 coefficients,
    weighted sums of u v, v^2, u s, v s and s^2 (`_moments`)."""
    u, v, s = _moments(x, d)
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
    A delta that is not finite, or not above -1, is no step: inf.
    """
    if not -1.0 < delta < math.inf:
        return math.inf
    r = math.expm1(2.0 / p * math.log1p(delta))
    return (a * (a * dKd - 2.0 * dKx) - R * r) / (1.0 + r)


def _exact_step(R, dKx, dKd, n):
    """Best step of the p = 2 or p = 4 line quotient, as (a, |x - a d|_p) or None.

    n holds the a .. a^p coefficients of delta(a) = |x - a d|_p^p - 1, so
    p = len(n): (-2 Re<x, d>_M, <d, d>_M) at p = 2, `_quartic_moments` at
    p = 4.  With Q(a) = R - 2a dKx + a^2 dKd and N(a) = 1 + delta(a),
    q = Q / N^{2/p} is stationary where Q' N - (2/p) Q N' = 0.  Its a^{p+1}
    terms cancel, leaving a quadratic or a quartic; every positive real
    part of its roots is a candidate, and the one with the most negative
    `_decrease` is taken.  When q falls all along the line its infimum is
    the end point a = inf, the field -d, taken when it lies below R.
    """
    q0, q1, q2 = R, -2.0 * dKx, dKd
    if len(n) == 2:
        n1, n2 = n
        poly = (q2 * n1 - q1 * n2, 2.0 * (q2 - q0 * n2), q1 - q0 * n1)
        best = (dKd / n2 - R, math.inf, math.sqrt(n2))
    else:
        n1, n2, n3, n4 = n
        poly = (0.5 * q2 * n3 - q1 * n4,
                q2 * n2 - 0.5 * q1 * n3 - 2.0 * q0 * n4,
                1.5 * (q2 * n1 - q0 * n3),
                0.5 * q1 * n1 + 2.0 * q2 - q0 * n2,
                q1 - 0.5 * q0 * n1)
        best = (dKd / math.sqrt(n4) - R, math.inf, n4 ** 0.25)
    for a in map(float, np.roots(poly).real):
        if a <= 0.0:
            continue
        delta = (a * (n1 + a * n2) if len(n) == 2 else
                 a * (n1 + a * (n2 + a * (n3 + a * n4))))
        dec = _decrease(R, dKx, dKd, a, delta, float(len(n)))
        if dec < best[0]:
            best = (dec, a, (1.0 + delta) ** (1.0 / len(n)))
    return best[1:] if best[0] < 0.0 else None


def _armijo_step(w, x, d, p, R, dKx, dKd, slope, a):
    """Backtracking from a at |x|_p = 1: (a, |x - a d|_p) or None.

    Each trial takes delta(a) = |x - a d|_p^p - 1 in one pass over the
    `_moments`, node by node and without its constant term: with
    dq = a (a s - 2v) and e = (p/2) log1p(dq/u), a node adds
    w u^{p/2} expm1(e) where |e| < 1 and w ((u + dq)^{p/2} - u^{p/2})
    elsewhere, so no rounding of 1 hides the decreases near a minimum.
    Beyond |e| = 1 the two powers differ by a factor above e and do not
    cancel; the split is by e because at large p u^{p/2} underflows to 0
    where expm1(e) overflows, though dq/u is small.  Once delta < -1/2,
    1 + delta is summed as w (u + dq)^{p/2}, whose terms do not cancel.
    Where a node's power overflows its weighted one may not, so delta is
    then taken from the rescaled `lp_norm`; a trial whose delta overflows
    there too is rejected (`_decrease`) and halved.
    """
    u, v, s = _moments(x, d)
    half_p = 0.5 * p
    up = u ** half_p
    while a >= 1e-18:
        dq = a * (a * s - 2.0 * v)
        with np.errstate(all="ignore"):
            t = np.maximum(u + dq, 0.0) ** half_p   # u + dq may round below 0
            e = half_p * np.log1p(dq / u)
            delta = float(w @ np.where(np.abs(e) < 1.0, up * np.expm1(e),
                                       t - up))
            if delta < -0.5:
                delta = float(w @ t) - 1.0
            elif not delta < math.inf:
                delta = float(np.float64(lp_norm(w, x - a * d, p)) ** p) - 1.0
        dec = _decrease(R, dKx, dKd, a, delta, p)
        if dec <= -1e-4 * a * slope:
            return a, lp_norm(w, x - a * d, p)
        # minimizer of the quadratic through q(0), q'(0) = -slope, q(a)
        quad = 0.5 * slope * a * a / (dec + slope * a)
        a = min(max(quad, 0.1 * a), 0.5 * a) if delta < math.inf else 0.5 * a
    return None


def _forecast(trail):
    """Forecast of R at the cap from the trail R_0 .. R_k, k >= W.

    W = _STAG_WINDOW.  With the window decreases D1 = R_{k-2W} - R_{k-W}
    and D2 = R_{k-W} - R_k, a trail whose decreases shrink (0 < D2 < D1)
    is taken to go on shrinking geometrically by rho = D2 / D1 per window,
    so the m = (_MAX_ITERS - k) / W windows left before the cap gain
    D2 rho (1 - rho^m) / (1 - rho): exact on R_j = L + C r^j.  Otherwise
    the last window's pace D2 / W is taken to hold to the cap.
    """
    W = _STAG_WINDOW
    k = len(trail) - 1
    d2 = trail[k - W] - trail[k]
    m = (_MAX_ITERS - k) / W
    gain = d2 * m
    if k >= 2 * W:
        d1 = trail[k - 2 * W] - trail[k - W]
        if 0.0 < d2 < d1:
            shrink = (d1 - d2) / d1     # 1 - rho, free of cancellation
            # rho^m is 0 where rho is below the rounding of 1 - rho
            tail = (-math.expm1(m * math.log1p(-shrink)) / shrink
                    if shrink < 1.0 else 1.0)
            gain = d2 * (1.0 - shrink) * tail
    return trail[k] - gain


def _descend(form, x0, p, opts, incumbent=math.inf):
    """Preconditioned nonlinear CG on the quotient; (trail, x, iters, _Stop).

    The direction is d = z + beta d_prev with z = P^{-1} M g and the
    Polak-Ribiere+ beta = max(0, <g - g_prev, z>_M / <g_prev, z_prev>_M);
    it falls back to z when it is not a descent direction.  At p = 2 and
    p = 4 the line quotient is an exact rational function of the step,
    minimized in closed form (`_exact_step`) with no L^p norm; any other p
    backtracks from twice the last step (`_armijo_step`), with one pass
    over the per-node moments per trial.
    Every accepted step lowers R.  The trail holds R at the start and
    after each accepted step, so trail[-1] is the final R, and it is the
    one record both cuts below read.

    After k >= W = _STAG_WINDOW accepted steps the descent stops as
    `stagnation` when R_k lies at most 1e-15 max(1, |R_{k-W}|) below
    R_{k-W}.  `incumbent` is the best value a converged start has reached;
    the descent stops as `outpaced` when the `_forecast` of R at the cap
    exceeds incumbent + _TIE: it cannot be the selected start.  The
    forecast assumes the recent decreases go on at their pace, or keep
    shrinking at their rate when they shrink; a start that idles on a
    plateau and speeds up later is cut too, which changes the answer only
    if it would have ended strictly below every converged start.
    """
    w = form.weight
    K = form.K
    grad_tol = opts.grad_tol
    prec = form.preconditioner()

    def pdir(wg):
        return prec.solve(wg.astype(K.dtype, copy=False))

    def rdot(a, b):
        return float(np.real(np.vdot(a, b)))

    n0 = lp_norm(w, x0, p)
    if n0 < 1e-300:
        raise ZeroFunction("zero trial function")
    x = x0 / n0
    Kx = K @ x
    R = rdot(x, Kx)
    g = _grad_unit(w, x, Kx, R, p)
    wg = w * g              # each M-weighted vector is formed once
    z = pdir(wg)
    wz = w * z
    gz = rdot(g, wz)
    d = z
    a = 0.5                 # the first trial of a backtracking (p != 2, 4) is 2a
    trail = [R]             # R after each accepted step
    reason = "cap"
    for it in range(_MAX_ITERS):
        gnorm = math.sqrt(rdot(g, wg))
        if gnorm <= grad_tol * max(1.0, abs(R)):
            reason = "grad_tol"
            break
        wd = w * d
        slope = rdot(g, wd)
        if slope <= 0.0:
            d, wd, slope = z, wz, gz
        Kd = K @ d
        dKx = rdot(d, Kx)
        dKd = rdot(d, Kd)
        if p == 2.0:
            step = _exact_step(R, dKx, dKd, (-2.0 * rdot(x, wd), rdot(d, wd)))
        elif p == 4.0:
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
        Rt = rdot(xt, Kxt)
        gt = _grad_unit(w, xt, Kxt, Rt, p)
        wgt = w * gt
        zt = pdir(wgt)
        wzt = w * zt
        gzt = rdot(gt, wzt)
        beta = max(0.0, (gzt - rdot(g, wzt)) / gz)
        d = zt + (beta * carry) * d
        x, Kx, g, wg, z, wz, gz, R = xt, Kxt, gt, wgt, zt, wzt, gzt, Rt
        trail.append(R)
        if len(trail) > _STAG_WINDOW:
            if _forecast(trail) > incumbent + _TIE:
                reason = "outpaced"
                break
            old = trail[-1 - _STAG_WINDOW]
            if old - R <= 1e-15 * max(1.0, abs(old)):
                reason = "stagnation"
                break
    return trail, x, it + 1, _Stop(reason, gnorm)


def _starts(form, fine, p, opts, start=None):
    """The start fields on `form`'s free nodes: at p = 2 the random field of
    `seed`; at p > 2 one Gaussian bump per center (the middle of the domain
    when `centers` is empty), then `restarts` random fields, and a random
    field in place of a bump that vanishes on the free nodes.  The default
    bump width is that of the `fine` lattice, so a coarse lattice starts
    from the same functions.  A given `start` field is instead the one
    start, prolonged onto `form`'s lattice."""
    if start is not None:
        return [prolong(start.grid, start.values[start.grid.free],
                        form.grid).astype(form.K.dtype, copy=False)]
    rng = np.random.default_rng(opts.seed)
    if p == 2.0:
        return [_normal_field(rng, form)]
    grid = form.grid
    centers = opts.centers
    if not len(centers):
        centers = ((grid.domain.center,) if grid.domain.kind == "disk" else
                   (tuple(0.5 * (lo + hi) for lo, hi in grid.domain.bounds),))
    width = opts.bump_width or max(
        4.0 * max(fine.spacing), 0.08 * float(np.ptp(fine.points[:, 0])))
    starts = [gaussian_bump(grid, np.asarray(c, dtype=float)[: grid.dim],
                            width).values[grid.free].astype(form.K.dtype)
              for c in centers]
    starts += [_normal_field(rng, form) for _ in range(max(0, opts.restarts))]
    return [x0 if lp_norm(form.weight, x0, p) >= 1e-300 else
            _normal_field(rng, form) for x0 in starts]


class _Run(NamedTuple):
    """One descent: its final R, iterations, field and stop."""

    R: float
    its: int
    x: np.ndarray
    stop: _Stop


def _descents(form, starts, p, opts):
    """Descend each start in turn, each against the lowest value of the
    finished starts that passed `_accepted` (`_descend`'s `incumbent`);
    yields one _Run per start."""
    incumbent = math.inf
    for x0 in starts:
        trail, x, its, stop = _descend(form, x0, p, opts, incumbent=incumbent)
        R = trail[-1]
        if _accepted(R, stop.grad_norm, opts.grad_tol):
            incumbent = min(incumbent, R)
        yield _Run(R, its, x, stop)


def _distinct(runs):
    """(indices to polish, coarse exits) of the coarse runs.

    A run is polished unless it stopped as `outpaced` or ended within _TIE
    of a value already polished; that duplicate's exit becomes `merged`.
    The order is ascending in value, so the nearest polished value is the
    last one."""
    exits = [r.stop.reason for r in runs]
    keep = []
    for i in sorted(range(len(runs)), key=lambda i: runs[i].R):
        if exits[i] == "outpaced":
            continue
        if keep and abs(runs[i].R - runs[keep[-1]].R) <= _TIE:
            exits[i] = "merged"
        else:
            keep.append(i)
    return keep, exits


def minimize_quotient(form: AssembledForm, p: float,
                      opts: MinimizeOptions | None = None,
                      coarse: AssembledForm | None = None,
                      start: WaveFunction | None = None) -> MinimizerResult:
    """Minimize the discrete Sobolev quotient at exponent p >= 2.

    One CG descent serves every p and every dimension.  At p = 2 it runs
    once, from the random field of `seed`: the Rayleigh quotient has no
    local minima besides the ground states, and a real symmetric bump
    could be orthogonal to them and stop at a saddle.  At p > 2 it runs
    from one Gaussian bump per candidate center (the middle of the domain
    when `centers` is empty), then `restarts` random fields, and returns
    the best final value (ties broken by iteration count).  Each start is
    given the lowest value of the finished starts that passed the
    convergence test, and stops as `outpaced` once the forecast of its
    recent decreases cannot bring it below that value by the cap; such a
    start ends above it and is never the one returned.

    lambda is the quotient of the returned L^p-normalized field, and the
    selected restart reports it.  `converged` is the one test `_accepted`
    at that field: lambda finite and its gradient norm, 2 el_residual,
    within 10 grad_tol relative to max(1, |lambda|).

    `coarse` is the same problem assembled at twice the spacing.  Given
    it, every start descends on that lattice first; the coarse form is
    then dropped, and only the distinct coarse minima (`_distinct`) are
    prolonged and polished on `form`, in ascending order of their coarse
    value.  The `restart_*` lists describe the fine descents alone, the
    `coarse_*` lists the coarse stage, one entry per start.

    `start`, a field on any lattice in the coordinates of `form` (the
    minimizer of a model strip, zoomed), replaces those starts at every
    p: it is the one start, moved by `discretize.prolong` onto the first
    lattice that descends (`coarse` when given, else `form`).
    """
    opts = opts or MinimizeOptions()
    check_exponent(p)
    starts = _starts(form if coarse is None else coarse, form.grid, p, opts,
                     start)
    stage = [], [], []      # coarse values, iterations and exits
    if coarse is not None:
        cgrid = coarse.grid
        cruns = list(_descents(coarse, starts, p, opts))
        del coarse          # the fine stage needs only the coarse lattice
        keep, exits = _distinct(cruns)
        stage = [r.R for r in cruns], [r.its for r in cruns], exits
        starts = (prolong(cgrid, cruns[i].x, form.grid) for i in keep)
    runs = list(_descents(form, starts, p, opts))
    b = 0
    for i, run in enumerate(runs):
        if (run.R < runs[b].R - _TIE) or (
                abs(run.R - runs[b].R) <= _TIE and run.its < runs[b].its):
            b = i
    psi = WaveFunction(form.grid, form.full_values(runs[b].x))
    psi = WaveFunction(form.grid, psi.values / psi.norm_lp(p))
    lam = evaluate(form, psi, p).quotient
    runs[b] = runs[b]._replace(R=lam)
    res = el_residual(form, lam, psi, p)
    return MinimizerResult(
        lam=lam, psi=psi, iterations=sum(r.its for r in runs),
        el_residual=res, restart_values=[r.R for r in runs],
        restart_iterations=[r.its for r in runs],
        restart_exits=[r.stop.reason for r in runs],
        coarse_values=stage[0], coarse_iterations=stage[1],
        coarse_exits=stage[2],
        converged=_accepted(lam, 2.0 * res, opts.grad_tol))


def _doubled(build, spacing):
    """build(2 spacing), or None when that lattice is too small."""
    try:
        return build(2.0 * spacing if np.isscalar(spacing)
                     else tuple(2.0 * s for s in spacing))
    except LatticeOutOfRange:
        return None


def solve_lattice(build, spacing, p: float,
                  opts: MinimizeOptions | None = None,
                  start: WaveFunction | None = None) -> MinimizerResult:
    """`minimize_quotient` of build(spacing), nested in build(2 spacing).

    `build` assembles the caller's problem at a spacing (a float, or one
    per axis).  There is no coarse form when that lattice is out of range
    (LatticeOutOfRange; the fine one was built, so it has too few nodes
    per axis), or when a `start` is given: it already lies in the
    minimizer's basin, and the fine lattice polishes it.  The forms are
    built in the call, not held here, so the coarse one is freed before
    the fine stage.
    """
    return minimize_quotient(
        build(spacing), p, opts, start=start,
        coarse=None if start is not None else _doubled(build, spacing))
