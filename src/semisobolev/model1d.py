"""Exactly solvable half-line Robin model.

The model is the planar Hamiltonian system

    u' = v,   v' = u - |u|^{p-2} u,   v(0) = c u(0),

with conserved energy H(u, v) = (v^2 - u^2)/2 + |u|^p / p.  Decaying
solutions live on the zero level set of H, which fixes the initial
amplitude u0(c, p) uniquely for |c| < 1.  The constant of interest is

    lambda_c = (integral_0^inf u^p dr)^{(p-2)/p},

which interpolates between 0 (c -> -1) and the whole-line soliton value
(c -> 1).  Everything here is plain ODE work: an embedded high-order
integrator tracks the zero-energy orbit, and the L^p mass is accumulated
as an auxiliary quadrature variable of the same integrator.

The system is autonomous and its decaying zero-energy orbit with u > 0 is
unique up to translation in r: every u_c is a time translate of the one
homoclinic orbit (the shifted whole-line soliton).  Along it the phase
v/u decreases strictly, from +1 at r = -inf to -1 at r = +inf, so the
orbit launched at slope c passes slope c' < c exactly once, at a radius
r_{c'}, and from there on it is u_{c'}:

    u_{c'}(r) = u_c(r + r_{c'}),   lambda_{c'} = (M_c(inf) - M_c(r_{c'}))^{(p-2)/p},

with M_c the running L^p mass of u_c.  So one orbit, launched at the
largest slope of a sweep, carries every smaller slope of it
(`lambda_c_points`).

scipy.integrate and scipy.optimize are imported where they are called,
so a lattice subcommand, which imports this module for the p = 2
closed forms only, never loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidExponent, NoSolution, ToleranceNotMet

# The stable manifold of the origin cannot be shadowed in double precision
# below roughly sqrt(eps_mach * growth): the outgoing mode amplifies local
# integration errors as e^{+r}.  Truncating at |u|+|v| ~ 1e-6 leaves a tail
# mass below 1e-18 for every p > 2, far under the 1e-6 targets.
_ESCAPE_EPS = 1e-6
_H_TOL = 1e-10
# Spacing of the sampled orbit: the grid of the drift check, of
# `PhaseTrajectory.r` and of the closest-approach scan.  It does not steer
# the integrator, whose dense output is error-controlled between steps.
_STEP = 0.01
# Largest relative error in lambda_c accepted for a row read off an orbit
# launched at a larger slope (see `lambda_c_points`).
_READ_TOL = 1e-11


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call; kept as a
    name of this module so that work counters can wrap it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _check_p(p: float) -> None:
    if p <= 2:
        raise InvalidExponent(f"exponent must satisfy p > 2, got {p}")


def hamiltonian(u: float, v: float, p: float) -> float:
    """Conserved energy of the phase-plane system (vector-friendly)."""
    return (v * v - u * u) / 2.0 + np.abs(u) ** p / p


def initial_amplitude(c: float, p: float) -> float:
    """Unique u0 > 0 with H(u0, c*u0) = 0, i.e. (p (1 - c^2) / 2)^{1/(p-2)}.

    Raises NoSolution for |c| >= 1, where the zero level set meets the ray
    v = c u only at the origin.
    """
    _check_p(p)
    if abs(c) >= 1.0:
        raise NoSolution(f"no nontrivial zero-energy initial data for c={c}")
    return (p * (1.0 - c * c) / 2.0) ** (1.0 / (p - 2.0))


def soliton(r, p: float):
    """Closed-form whole-line soliton (p/2)^{1/(p-2)} sech^{2/(p-2)}((p-2) r / 2)."""
    r = np.asarray(r, dtype=float)
    amp = (p / 2.0) ** (1.0 / (p - 2.0))
    x = np.abs((p - 2.0) * r / 2.0)
    # stable log-cosh keeps the tail finite for large radii
    logcosh = x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
    return amp * np.exp(-(2.0 / (p - 2.0)) * logcosh)


def soliton_ode_residual(r, p: float):
    """Residual -u'' + u - u^{p-1} of the closed form, via exact derivatives.

    Used as a self-check before the closed form is trusted as an oracle.
    """
    r = np.asarray(r, dtype=float)
    u = soliton(r, p)
    # u = A cosh(a r)^{-b} with a = (p-2)/2, b = 2/(p-2); direct second derivative
    a = (p - 2.0) / 2.0
    b = 2.0 / (p - 2.0)
    t = np.tanh(a * r)
    upp = u * (a * a * b * b * t * t - a * a * b * (1.0 - t * t))
    return -upp + u - u ** (p - 1.0)


@dataclass
class PhaseTrajectory:
    """Sampled zero-energy orbit of the half-line model.

    Samples sit on a uniform grid of spacing `_STEP` up to the cut, which
    is the last sample; `lp_mass` includes the analytic remainder of
    int u^p beyond the cut.
    """

    p: float
    c: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lp_mass: float
    turning_index: int
    _dense: object = field(default=None, repr=False)


def integrate_trajectory(c: float, p: float) -> PhaseTrajectory:
    """Integrate the zero-energy orbit from (u0, c*u0).

    Uses an 8th-order embedded pair (DOP853) at rtol 1e-12, atol 1e-14 and
    lets it choose its own steps; the orbit is read off its 7th-order dense
    output, which is error-controlled between steps.  The L^p mass is
    integrated alongside (u, v) so that quadrature error is controlled by
    the same step-size machinery.  The orbit is cut where |u| + |v| first
    falls to `_ESCAPE_EPS`, or, if it never does, at its closest approach
    to the origin after the peak.  Raises ToleranceNotMet if the
    Hamiltonian, sampled every `_STEP` up to the cut, drifts above 1e-10,
    or if c < 0 and the launch point already lies inside the cut.
    """
    u0 = initial_amplitude(c, p)
    if c < 0.0 and u0 * (1.0 - c) <= _ESCAPE_EPS:
        # such an orbit never meets the near-origin event on its way in:
        # it is thrown out along the unstable manifold and counts a whole
        # lap of mass (p = 2.4, c = -0.999 gave lambda 1.49 for about 0.002)
        raise ToleranceNotMet(
            f"c={c} at p={p} starts inside the cut |u| + |v| = "
            f"{_ESCAPE_EPS:g}; the orbit cannot be followed")
    # enough room for the slow escape along the unstable manifold near
    # c = 1 plus the e^{-r} decay down to the truncation threshold
    r_max = 80.0 + 5.0 * abs(math.log(u0))

    def rhs(_, y):
        u, v = y[0], y[1]
        return (v, u - abs(u) ** (p - 2.0) * u, abs(u) ** p)

    def near_origin(_, y):
        return abs(y[0]) + abs(y[1]) - _ESCAPE_EPS

    near_origin.terminal = True
    near_origin.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, r_max),
        (u0, c * u0, 0.0),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
        events=near_origin,
    )
    if sol.t_events[0].size:
        r_end = float(sol.t_events[0][0])
    else:
        r_end = _closest_approach(sol)

    r = np.arange(0.0, r_end + _STEP / 2.0, _STEP)
    if r[-1] > r_end:
        r[-1] = r_end
    y = sol.sol(r)
    u, v = y[0], y[1]
    u_end, v_end, mass = sol.sol(r_end)

    drift = float(np.max(np.abs(hamiltonian(u, v, p))))
    if drift > _H_TOL:
        raise ToleranceNotMet(
            f"Hamiltonian drift {drift:.2e} exceeds {_H_TOL:.0e}; the "
            "integrator's rtol/atol are too loose for this orbit"
        )

    # on the stable manifold u ~ u_end e^{-(r - r_end)}, so the remaining
    # mass is u_end^p / p up to relative O(u_end^{p-2})
    tail = abs(u_end) ** p / p
    # |u| + |v| can dip and rebound between the launch ray and the orbit
    # peak; the turning index marks its last increase, after which the
    # orbit rides the stable manifold monotonically
    amp = np.abs(u) + np.abs(v)
    rising = np.nonzero(np.diff(amp) > 1e-13)[0]
    turning = int(rising[-1] + 1) if rising.size else 0
    return PhaseTrajectory(
        p=p,
        c=c,
        r=r,
        u=u,
        v=v,
        lp_mass=float(mass + tail),
        turning_index=turning,
        _dense=sol.sol,
    )


def _closest_approach(sol) -> float:
    """First local minimum of |u| + |v| after the peak of u, on the sample grid.

    Past it the numerical orbit is ejected along the unstable manifold and
    may loop back towards the origin, so a later (or global) minimum would
    count a second lap of mass.  |u| + |v| has a kink minimum at the peak
    itself (v = 0), so the scan starts at the first sample with v <= 0.
    """
    r = np.arange(0.0, sol.t[-1], _STEP)
    u, v = sol.sol(r)[:2]
    amp = np.abs(u) + np.abs(v)
    start = int(np.argmax(v <= 0.0))
    d = np.diff(amp[start:])
    rebound = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
    if rebound.size == 0:
        return float(sol.t[-1])
    return float(r[start + rebound[0] + 1])


def crossing_time(traj: PhaseTrajectory, c_target: float) -> float:
    """First radius where v/u crosses c_target from above (Lemma-style shift).

    The phase v/u decreases strictly along the orbit, so the crossing is
    unique: it is bracketed by the first `_STEP` sample with v - c u <= 0
    and its predecessor, and refined on the dense output.  Raises
    NoSolution if no sample up to the cut reaches the slope.
    """
    vals = traj.v - c_target * traj.u
    k = int(np.argmax(vals <= 0.0))
    if vals[k] > 0.0:
        raise NoSolution(f"phase never reaches slope {c_target}")
    if k == 0:
        return 0.0
    from scipy.optimize import brentq

    f = lambda r: (lambda y: y[1] - c_target * y[0])(traj._dense(r))
    return float(brentq(f, traj.r[k - 1], traj.r[k], xtol=1e-13))


def escape_time(traj: PhaseTrajectory) -> float:
    """Time T_c at which the orbit crosses v = 0 (zero for c <= 0)."""
    if traj.c <= 0.0:
        return 0.0
    return crossing_time(traj, 0.0)


@dataclass(frozen=True)
class RobinPoint:
    """One row of a lambda_c sweep (for table emission)."""

    c: float
    lam: float
    u0: float
    t_escape: float
    limited: bool = False


def lambda_c_points(cs, p: float) -> list[RobinPoint]:
    """lambda_c plus the diagnostics emitted by the CLI, for each c in cs.

    Every c must be finite with |c| < 1 (NoSolution otherwise); all are
    checked before any work.  For 0.999 < |c| < 1 the escape time diverges
    and the limiting values (whole-line constant as c -> 1, zero as
    c -> -1) are returned instead of integrating.  The other rows are read
    off one orbit, launched at the largest of them, `top`.  That orbit is
    the one decaying zero-energy orbit translated (module docstring), and
    its phase v/u falls strictly from top towards -1, so it passes every
    smaller slope c once, at r_c = `crossing_time`, and is u_c from there:

        lambda_c = (lp_mass - M(r_c))^{(p-2)/p},   T_c = T_top - r_c (c > 0),

    with M the running L^p mass of its dense output; the top row itself
    has r_c = 0.  Near the origin a residual energy H on the orbit moves
    the point of slope c, and with it lambda_c, by a relative
    2 |H| / (u^2 (1 - c^2)) at r_c.  Where that exceeds `_READ_TOL`, or
    the orbit is cut before slope c, that c is launched afresh and the
    smaller ones are read off its orbit.  This happens only for |c| near
    1, the more so as p nears 2: the sweep -0.9:0.9 makes one
    integration for p = 3, 4, 6 and 10, and -0.99:0.99 at p = 2.5 makes
    seven.
    """
    _check_p(p)
    cs = [float(c) for c in cs]
    for c in cs:
        if not abs(c) < 1.0:
            raise NoSolution(f"lambda_c undefined unless |c| < 1 (got c={c})")
    read = {}
    todo = sorted({c for c in cs if abs(c) <= 0.999}, reverse=True)
    while todo:
        traj = integrate_trajectory(todo[0], p)
        t_top = escape_time(traj)
        while todo:
            c = todo[0]
            try:
                r_c = crossing_time(traj, c)
            except NoSolution:
                break
            u, v, m = traj._dense(r_c)
            if r_c and 2.0 * abs(hamiltonian(u, v, p)) > \
                    _READ_TOL * u * u * (1.0 - c * c):
                break
            read[c] = RobinPoint(c=c, lam=(traj.lp_mass - m) ** ((p - 2.0) / p),
                                 u0=initial_amplitude(c, p),
                                 t_escape=t_top - r_c if c > 0.0 else 0.0)
            todo.pop(0)
    return [read[c] if c in read else
            RobinPoint(c=c, lam=soliton_line(p) if c > 0 else 0.0,
                       u0=initial_amplitude(c, p), t_escape=math.inf,
                       limited=True)
            for c in cs]


def lambda_c_point(c: float, p: float) -> RobinPoint:
    """`lambda_c_points` of the one slope c: its orbit is launched at c
    itself, so r_c = 0 and lambda_c = lp_mass^{(p-2)/p}."""
    return lambda_c_points([c], p)[0]


def lambda_c(c: float, p: float) -> float:
    """Half-line Robin constant ||u_c||_{L^p(R_+)}^{p-2} (see lambda_c_point)."""
    return lambda_c_point(c, p).lam


def soliton_line(p: float) -> float:
    """Whole-line constant ||u||_{L^p(R)}^{p-2} from the closed-form soliton."""
    from scipy.integrate import quad

    _check_p(p)
    half, err = quad(lambda r: float(soliton(r, p)) ** p, 0.0, np.inf,
                     epsabs=1e-14, epsrel=1e-13)
    if err > 1e-9:
        raise ToleranceNotMet(f"soliton quadrature error estimate {err:.2e}")
    return (2.0 * half) ** ((p - 2.0) / p)


def linear_eigenvalue(c: float) -> float:
    """lambda((R_+, Id, 1, 0, c), 1, 2).

    For c in (-1, 0) the single bound state e^{c r} gives 1 - c^2; for
    c >= 0 there is no spectrum below the essential threshold 1; below
    c = -1 the form is unbounded from below in the limit, value 0.
    """
    if c <= -1.0:
        return 0.0
    if c < 0.0:
        return 1.0 - c * c
    return 1.0
