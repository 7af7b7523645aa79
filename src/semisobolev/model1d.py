"""Exactly solvable half-line Robin model (R_+, Id, 1, 0, c).

The model is the planar Hamiltonian system

    u' = v,   v' = u - |u|^{p-2} u,   v(0) = c u(0),

with conserved energy H(u, v) = (v^2 - u^2)/2 + |u|^p / p.  Decaying
solutions live on the zero level set of H, which fixes the initial
amplitude u0(c, p) uniquely for |c| < 1.  The constant of interest is

    lambda_c = (integral_0^inf u^p dr)^{(p-2)/p},

which interpolates between 0 (c -> -1) and the whole-line soliton value
(c -> 1).

The system is autonomous and its decaying zero-energy orbit with u > 0 is
unique up to translation in r: with b = 2/(p-2), every u_c is the
whole-line soliton A sech^b(r/b), A^{p-2} = p/2, shifted,

    u_c(r) = A sech^b(r/b - artanh c).

The substitution t = (1 + tanh(r/b - artanh c))/2 turns its L^p mass into
an incomplete beta function, so that

    lambda_c = soliton_line(p) I_{(1+c)/2}(b+1, b+1)^{(p-2)/p},
    soliton_line(p) = (2 b A^p 4^b B(b+1, b+1))^{(p-2)/p},

with I the regularized incomplete beta function, and u_c peaks at
T_c = b artanh(c) for c > 0.  These closed forms give every number the
package publishes.  `integrate_trajectory` follows the orbit with an
embedded high-order integrator instead and is kept as their ODE oracle.

I is evaluated here by a continued fraction (`_symmetric_betainc`), so
no subcommand loads SciPy's special functions.  scipy.integrate is
imported where the ODE oracle calls it, so no subcommand loads it either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidExponent, NoSolution, ToleranceNotMet

# The stable manifold of the origin cannot be shadowed in double precision
# below roughly sqrt(eps_mach * growth): the outgoing mode amplifies local
# integration errors as e^{+r}.  Truncating at |u|+|v| ~ 1e-6 leaves a tail
# mass of about 1e-6^p / p, added back as u_end^p / p with relative error
# O(u_end^{p-2}).  Against an orbit of O(1) mass that is negligible, but not
# for one launched next to the cut: at p = 2.5, c = -0.999 (u0 = 6.2e-6)
# lambda comes out 8.5e-8 relative off the closed form.
_ESCAPE_EPS = 1e-6
_H_TOL = 1e-10
# Spacing of the sampled orbit: the grid of the drift check, of
# `PhaseTrajectory.r` and of the closest-approach scan.  It does not steer
# the integrator, whose dense output is error-controlled between steps.
_STEP = 0.01
# Lentz stops once a pair of steps moves the continued fraction by at most
# one ulp; near x = 1/2 with a = 2e6 (p = 2.000001) that takes 700 pairs.
_CF_PAIRS = 10_000
_EPS_MACH = 2.0 ** -52
_LENTZ_TINY = 1e-300
_SPLIT = 134217729.0    # 2^27 + 1: Veltkamp's splitter into 26-bit halves


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call; kept as a
    name of this module so that work counters can wrap it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _check_p(p: float) -> None:
    if not 2.0 < p < math.inf:
        raise InvalidExponent(f"exponent must satisfy 2 < p < inf, got {p}")


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
    """Integrate the zero-energy orbit from (u0, c*u0): the ODE oracle that
    the tests hold the closed forms against.

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


def escape_time(c: float, p: float) -> float:
    """Radius T_c = b artanh(c), b = 2/(p-2), of the peak of u_c (zero for
    c <= 0, where u_c decreases from r = 0)."""
    _check_p(p)
    return 2.0 * math.atanh(c) / (p - 2.0) if c > 0.0 else 0.0


@dataclass(frozen=True)
class RobinPoint:
    """One row of a lambda_c sweep (for table emission)."""

    c: float
    lam: float
    u0: float
    t_escape: float


def lambda_c_points(cs, p: float) -> list[RobinPoint]:
    """lambda_c plus the diagnostics emitted by the CLI, for each c in cs.

    Every c must be finite with |c| < 1 (NoSolution otherwise).  Each row
    takes the closed form of the module docstring,

        lambda_c = soliton_line(p) I_{(1+c)/2}(b+1, b+1)^{(p-2)/p},

    and T_c = `escape_time`.  The share I comes from `_symmetric_betainc`,
    one row at a time; against SciPy's betainc it agrees to 1e-13
    relative for p >= 2.01 and to 1e-11 for p >= 2.000001, and lambda_c
    carries that error divided by b + 1.  As p -> 2 and c -> -1 the share
    underflows (p = 2.01, c = -0.99); such a row raises ToleranceNotMet
    rather than report lambda_c = 0.
    """
    _check_p(p)
    cs = [float(c) for c in cs]
    for c in cs:
        if not abs(c) < 1.0:
            raise NoSolution(f"lambda_c undefined unless |c| < 1 (got c={c})")
    b = 2.0 / (p - 2.0)
    shares = [_symmetric_betainc(b + 1.0, c) for c in cs]
    for c, share in zip(cs, shares):
        if share < np.finfo(float).tiny:
            raise ToleranceNotMet(
                f"c={c}, p={p}: the share I_(1+c)/2(b+1, b+1) = {share:g} of "
                "the whole-line L^p mass underflows, so lambda_c cannot be "
                "computed to full precision")
    line = soliton_line(p)
    return [RobinPoint(c=c, lam=line * share ** (1.0 / (b + 1.0)),
                       u0=initial_amplitude(c, p), t_escape=escape_time(c, p))
            for c, share in zip(cs, shares)]


def _symmetric_betainc(a: float, c: float) -> float:
    """Regularized incomplete beta I_x(a, a) at x = (1 + c)/2, |c| < 1, a >= 1.

    Exactly 1/2 at c = 0.  Otherwise the tail I_t(a, a), t = (1 - |c|)/2,
    is the continued fraction of DLMF 8.17.22 by modified Lentz, times

        t^a (1-t)^a / (a B(a, a))
            = (1 - c^2)^a Gamma(a+1/2) / (2 sqrt(pi) a Gamma(a)),

    and I = 1 - tail for c > 0.  1 - c^2 is carried to twice double
    precision, so (1 - c^2)^a is good to an ulp or two at any a, where
    exp(a log(1 - c^2)) would lose |a log(1 - c^2)| ulps.  The gamma ratio
    is taken from math.gamma for a <= 170 and from its asymptotic series
    above.  Near c = 0 the fraction takes about 5 a^(1/3) pairs of steps,
    and for a >~ 1e6 it stops with up to about 1e-14 sqrt(a) of relative
    error left (1.7e-13 at a = 1e6, 1.3e-9 at a = 2e12), which lambda_c
    sees divided by a.  A fraction that has not settled in `_CF_PAIRS`
    pairs raises ToleranceNotMet (near c = 0 once p - 2 < about 2e-10).
    """
    if c == 0.0:
        return 0.5
    s = abs(c)
    t = (1.0 - s) / 2.0
    # s = hi + lo with 26-bit halves, so that hi^2, 2 hi lo and lo^2 are
    # exact and fsum rounds 1 - s^2 = w + w_lo once
    hi = s * _SPLIT
    hi -= hi - s
    lo = s - hi
    terms = [1.0, -hi * hi, -2.0 * hi * lo, -lo * lo]
    w = math.fsum(terms)
    w_lo = math.fsum(terms + [-w])
    if a <= 170.0:
        ratio = math.gamma(a + 0.5) / math.gamma(a)
    else:   # log(Gamma(a+1/2)/Gamma(a)) - log(a)/2, to O(a^-9)
        r = 1.0 / (a * a)
        ratio = math.sqrt(a) * math.exp(-(1.0 / 8.0 - r * (
            1.0 / 192.0 - r * (1.0 / 640.0 - r * 17.0 / 14336.0))) / a)
    front = (math.pow(w, a) * math.exp(a * w_lo / w) * ratio
             / (2.0 * math.sqrt(math.pi) * a))
    # Lentz's d, e and the fraction f after its first term 1 + d_1,
    # which is 1 - 2 a t/(a + 1) = (1 + a s)/(a + 1) without cancellation
    d = f = (a + 1.0) / (1.0 + a * s)
    e = 1.0
    for j in range(2, 2 * _CF_PAIRS + 2):
        m = j // 2
        num = (-(a + m) * (2.0 * a + m) if j % 2 else m * (a - m)) * t
        num /= (a + j - 1.0) * (a + j)
        d = 1.0 / (1.0 + num * d or _LENTZ_TINY)
        e = 1.0 + num / e or _LENTZ_TINY
        delta = d * e
        f *= delta
        if j % 2 and abs(delta - 1.0) <= _EPS_MACH:
            tail = front * f
            return 1.0 - tail if c > 0.0 else tail
    raise ToleranceNotMet(
        f"I_(1+c)/2(a, a) at a={a!r}, c={c}: the continued fraction has not "
        f"settled in {_CF_PAIRS} pairs of steps")


def lambda_c(c: float, p: float) -> float:
    """Half-line Robin constant ||u_c||_{L^p(R_+)}^{p-2} (see lambda_c_points)."""
    return lambda_c_points([c], p)[0].lam


def soliton_line(p: float) -> float:
    """Whole-line constant ||u||_{L^p(R)}^{p-2} of the soliton, by the
    complete beta function of the module docstring."""
    _check_p(p)
    b = 2.0 / (p - 2.0)
    # (p - 2)/p = 1/(b + 1) and A^p = (p/2)^{b+1}
    log_mass = (math.log(2.0 * b) + (b + 1.0) * math.log(p / 2.0)
                + b * math.log(4.0) + 2.0 * math.lgamma(b + 1.0)
                - math.lgamma(2.0 * b + 2.0))
    return math.exp(log_mass / (b + 1.0))

