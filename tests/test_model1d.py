"""Half-line Robin model: closed forms against the DOP853 orbit and quadrature."""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from semisobolev import model1d as m1
from semisobolev.errors import InvalidExponent, NoSolution, ToleranceNotMet


def p4_lambda(c: float) -> float:
    """p = 4 closed form: the half-line orbit is sqrt(2) sech(r - artanh(c)),
    so lambda_c = 2 (2/3 + c - c^3/3)^{1/2}, here factored as
    2 (1 + c) ((2 - c)/3)^{1/2} to keep its digits as c -> -1."""
    return 2.0 * (1.0 + c) * math.sqrt((2.0 - c) / 3.0)


def oracle_escape(traj) -> float:
    """Radius where the oracle orbit's v crosses 0, refined on its dense output."""
    k = int(np.argmax(traj.v <= 0.0))
    return brentq(lambda r: traj._dense(r)[1], traj.r[k - 1], traj.r[k],
                  xtol=1e-14)


def quad_lambda(c: float, p: float) -> float:
    """lambda_c by adaptive quadrature of the closed-form soliton from
    s0 = -artanh(c)/a, a = (p - 2)/2."""
    s0 = -math.atanh(c) / ((p - 2.0) / 2.0)
    mass, err = quad(lambda s: float(m1.soliton(s, p)) ** p, s0, np.inf,
                     epsabs=0.0, epsrel=1e-13)
    assert err <= 1e-11 * mass
    return mass ** ((p - 2.0) / p)


def sech_soliton_mass(p: float, half_line: bool = False) -> float:
    """Quadrature oracle for int |soliton|^p (exact Beta-function form)."""
    amp = (p / 2.0) ** (1.0 / (p - 2.0))
    a = (p - 2.0) / 2.0
    s = 2.0 * p / (p - 2.0)
    # int_R sech^s(a r) dr = sqrt(pi) Gamma(s/2) / (a Gamma((s+1)/2))
    full = amp ** p * math.sqrt(math.pi) * gamma_fn(s / 2.0) / (a * gamma_fn((s + 1) / 2.0))
    return full / 2.0 if half_line else full


class TestHamiltonian:
    def test_origin_is_critical(self):
        assert m1.hamiltonian(0.0, 0.0, 4.0) == 0.0

    def test_soliton_peak_on_zero_level(self):
        assert_allclose(m1.hamiltonian(math.sqrt(2.0), 0.0, 4.0), 0.0, atol=1e-15)

    @pytest.mark.parametrize("c", [-0.9, -0.3, 0.0, 0.5, 0.95])
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_initial_data_on_zero_level(self, c, p):
        u0 = m1.initial_amplitude(c, p)
        assert_allclose(m1.hamiltonian(u0, c * u0, p), 0.0, atol=1e-14)


class TestInitialAmplitude:
    def test_neumann_p4(self):
        assert_allclose(m1.initial_amplitude(0.0, 4.0), math.sqrt(2.0), rtol=1e-15)

    def test_vanishes_as_c_to_one(self):
        vals = [m1.initial_amplitude(c, 4.0) for c in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] < 0.07

    @pytest.mark.parametrize("c", [1.0, -1.0, 1.7])
    def test_no_solution_beyond_one(self, c):
        with pytest.raises(NoSolution):
            m1.initial_amplitude(c, 4.0)


class TestSolitonOracle:
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_ode_residual_self_check(self, p):
        r = np.linspace(-8.0, 8.0, 100)
        assert np.abs(m1.soliton_ode_residual(r, p)).max() <= 1e-9

    def test_p4_is_sqrt2_sech(self):
        r = np.linspace(0.0, 10.0, 50)
        assert_allclose(m1.soliton(r, 4.0), math.sqrt(2.0) / np.cosh(r), rtol=1e-13)


class TestTrajectory:
    def test_matches_sech_soliton(self):
        traj = m1.integrate_trajectory(0.0, 4.0)
        exact = m1.soliton(traj.r, 4.0)
        assert np.abs(traj.u - exact).max() <= 1e-8

    @pytest.mark.parametrize("c,p", [(0.0, 4.0), (0.5, 4.0), (-0.9, 3.0), (0.9, 6.0)])
    def test_energy_conservation(self, c, p):
        traj = m1.integrate_trajectory(c, p)
        assert np.abs(m1.hamiltonian(traj.u, traj.v, p)).max() <= 1e-10

    def test_positivity(self):
        traj = m1.integrate_trajectory(0.5, 4.0)
        assert np.all(traj.u > 0.0)

    def test_monotone_decay_after_turning(self):
        traj = m1.integrate_trajectory(0.7, 4.0)
        amp = np.abs(traj.u) + np.abs(traj.v)
        tail = amp[traj.turning_index:]
        assert np.all(np.diff(tail) <= 1e-12)
        # the turning point sits in the O(1) region, not in the decay tail
        assert amp[traj.turning_index] >= 0.3 * amp.max()

    def test_shift_property(self):
        c, cp = 0.5, 0.0
        tc = m1.integrate_trajectory(c, 4.0)
        tcp = m1.integrate_trajectory(cp, 4.0)
        # the c orbit reaches slope cp = 0 at its peak, T = artanh(c) at p = 4
        T = oracle_escape(tc)
        assert_allclose(T, m1.escape_time(c, 4.0), atol=1e-10)
        assert_allclose(T, math.atanh(c), atol=1e-10)
        ts = np.linspace(0.0, 5.0, 200)
        uc = np.array([tc._dense(T + t)[0] for t in ts])
        ucp = np.array([tcp._dense(t)[0] for t in ts])
        assert np.abs(uc - ucp).max() <= 1e-6


class TestShiftedSolitonOracle:
    """The half-line orbit is the whole-line soliton started at s0 = -artanh(c)/a,
    a = (p - 2)/2, so every CLI column has a closed form or a quadrature."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_general_p(self, p):
        cs = [float(c) for c in np.linspace(-0.9, 0.9, 13)]
        for c, pt in zip(cs, m1.lambda_c_points(cs, p)):
            assert pt.c == c
            assert abs(pt.lam - quad_lambda(c, p)) <= 1e-10
            assert abs(pt.u0 - (p / 2.0 * (1.0 - c * c)) ** (1.0 / (p - 2.0))) <= 1e-10
            t_exact = 2.0 * math.atanh(c) / (p - 2.0) if c > 0.0 else 0.0
            assert abs(pt.t_escape - t_exact) <= 1e-10


class TestOdeOracle:
    """The closed forms against the DOP853 orbit, wherever it can be followed."""

    @pytest.mark.parametrize("p,rtol", [(2.2, 1e-8), (2.5, 1e-10), (3.0, 1e-10),
                                        (4.0, 1e-10), (6.0, 1e-10), (10.0, 1e-10)])
    def test_rows_match_the_orbit(self, p, rtol):
        cs = [float(c) for c in np.linspace(-0.99, 0.99, 11)]
        followed = 0
        for c, row in zip(cs, m1.lambda_c_points(cs, p)):
            try:
                traj = m1.integrate_trajectory(c, p)
            except ToleranceNotMet:
                continue        # p = 2.2, c = -0.99 launches inside the cut
            followed += 1
            assert row.u0 == float(traj.u[0])
            assert row.lam == pytest.approx(traj.lp_mass ** ((p - 2.0) / p),
                                            rel=rtol)
            if c > 0.0:
                assert row.t_escape == pytest.approx(oracle_escape(traj),
                                                     rel=rtol)
        assert followed >= 10


class TestClosedForms:
    def test_near_two_orbits_the_walk_could_not_follow(self):
        low, high = m1.lambda_c_points([-0.99, 0.999], 2.2)
        assert low.lam == pytest.approx(quad_lambda(-0.99, 2.2), rel=1e-12)
        assert high.lam == pytest.approx(quad_lambda(0.999, 2.2), rel=1e-12)
        assert high.t_escape == pytest.approx(10.0 * math.atanh(0.999), rel=1e-12)

    def test_underflow_is_refused(self):
        # I_{0.005}(201, 201) is below the smallest double
        with pytest.raises(ToleranceNotMet, match="underflows"):
            m1.lambda_c_points([0.5, -0.99], 2.01)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 2.0, 1.5])
    def test_bad_p_is_refused(self, p):
        with pytest.raises(InvalidExponent):
            m1.lambda_c_points([0.1], p)
        with pytest.raises(InvalidExponent):
            m1.soliton_line(p)


class TestSymmetricBeta:
    """The in-package I_x(a, a), x = (1 + c)/2, against SciPy's betainc and
    exact identities."""

    CS = ([float(c) for c in np.linspace(-0.999, 0.999, 401)]
          + [s * c for c in (0.9999999, 1e-6, 0.01) for s in (1.0, -1.0)])

    @pytest.mark.parametrize("p,rtol", [
        (2.000001, 1e-11), (2.0001, 1e-11), (2.01, 1e-13), (2.05, 1e-13),
        (2.2, 1e-13), (2.5, 1e-13), (3.0, 1e-13), (4.0, 1e-13), (6.0, 1e-13),
        (10.0, 1e-13), (100.0, 1e-13), (1e3, 1e-13), (1e6, 1e-13)])
    def test_against_scipy(self, p, rtol):
        a = 2.0 / (p - 2.0) + 1.0
        tiny = np.finfo(float).tiny
        for c in self.CS:
            value = m1._symmetric_betainc(a, c)
            ref = float(betainc(a, a, (1.0 + c) / 2.0))
            # the underflow refusal of lambda_c_points agrees with SciPy's
            assert (value < tiny) == (ref < tiny), c
            if ref >= tiny:
                assert value == pytest.approx(ref, rel=rtol), c

    def test_closed_forms_at_a_one_and_two(self):
        for c in self.CS:
            x = (1.0 + c) / 2.0
            assert m1._symmetric_betainc(1.0, c) == pytest.approx(x, rel=1e-15)
            assert m1._symmetric_betainc(2.0, c) == pytest.approx(
                x * x * (3.0 - 2.0 * x), rel=2e-15)

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 201.0, 2e6])
    def test_symmetry(self, a):
        assert m1._symmetric_betainc(a, 0.0) == 0.5
        assert m1._symmetric_betainc(a, -0.0) == 0.5
        for c in self.CS:
            total = m1._symmetric_betainc(a, c) + m1._symmetric_betainc(a, -c)
            assert abs(total - 1.0) <= 2.0 * math.ulp(1.0), c

    def test_unsettled_fraction_is_refused(self, monkeypatch):
        # p = 2.01, c = 0.01 settles in 31 pairs of steps, not in 5
        assert m1.lambda_c_points([0.01], 2.01)[0].lam > 0.0
        monkeypatch.setattr(m1, "_CF_PAIRS", 5)
        with pytest.raises(ToleranceNotMet, match="not settled"):
            m1.lambda_c_points([0.01], 2.01)

    def test_next_to_two(self):
        # a = 2e12: the row is refused or right, and is cheap either way
        p, c = 2.0 + 1e-12, 1e-7
        a = 2.0 / (p - 2.0) + 1.0
        start = time.perf_counter()
        try:
            (row,) = m1.lambda_c_points([c], p)
        except ToleranceNotMet:
            row = None
        assert time.perf_counter() - start < 0.05
        if row is not None:
            ref = m1.soliton_line(p) * float(
                betainc(a, a, (1.0 + c) / 2.0)) ** (1.0 / a)
            assert row.lam == pytest.approx(ref, rel=1e-10)


class TestNoEventFallback:
    """With the near-origin event switched off the orbit is cut at its closest
    approach after the peak, not at a later approach after ejection."""

    @pytest.mark.parametrize("c", [-0.5, 0.0, 0.5, 0.9])
    def test_first_approach(self, c, monkeypatch):
        monkeypatch.setattr(m1, "_ESCAPE_EPS", 0.0)
        lam = m1.integrate_trajectory(c, 4.0).lp_mass ** 0.5
        assert abs(lam - p4_lambda(c)) <= 1e-9


class TestWorkCount:
    """A counting proxy on the integrator."""

    @pytest.mark.parametrize("c", [-0.9, 0.0, 0.5, 0.9])
    def test_nfev_per_trajectory(self, c, monkeypatch):
        real, nfev = m1.solve_ivp, []

        def counting_solve_ivp(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(m1, "solve_ivp", counting_solve_ivp)
        m1.integrate_trajectory(c, 4.0)
        assert len(nfev) == 1 and nfev[0] <= 2500


class TestSweep:
    """A sweep takes every row from the closed forms; nothing is integrated."""

    @staticmethod
    def counted(monkeypatch):
        real, launches = m1.solve_ivp, []

        def counting_solve_ivp(*args, **kwargs):
            launches.append(args[2][1] / args[2][0])
            return real(*args, **kwargs)

        monkeypatch.setattr(m1, "solve_ivp", counting_solve_ivp)
        return launches

    def test_integrates_nothing(self, monkeypatch):
        launches = self.counted(monkeypatch)
        cs = np.linspace(-0.9, 0.9, 81)
        rows = m1.lambda_c_points(cs, 4.0)
        assert launches == []
        assert [r.c for r in rows] == list(cs)
        for r in rows:
            assert r.lam == pytest.approx(p4_lambda(r.c), rel=1e-14)
            assert r.t_escape == pytest.approx(max(math.atanh(r.c), 0.0),
                                               rel=1e-14, abs=1e-14)

    def test_limited_points_integrate_nothing(self, monkeypatch):
        # slopes next to +-1 are ordinary rows with a finite escape time
        launches = self.counted(monkeypatch)
        cs = [0.9995, -0.9995, 0.99999]
        rows = m1.lambda_c_points(cs, 4.0)
        assert launches == []
        for c, r in zip(cs, rows):
            assert r.lam == pytest.approx(p4_lambda(c), rel=1e-14)
            assert r.t_escape == pytest.approx(max(math.atanh(c), 0.0), rel=1e-14)
        assert rows[0].lam < rows[2].lam < m1.soliton_line(4.0)
        assert rows[1].lam < 1e-3

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_rows_match_single_points(self, p):
        # descending, with a near-limit point and a repeat
        cs = [0.9, 0.9995, 0.6, 0.05, 0.0, -0.3, -0.3, -0.75, -0.9]
        rows = m1.lambda_c_points(cs, p)
        for c, row in zip(cs, rows):
            assert row == m1.lambda_c_points([c], p)[0]
            assert row.lam == m1.lambda_c(c, p)
            assert row.t_escape == m1.escape_time(c, p)

    def test_top_row_is_the_single_point(self):
        # the row of the largest slope is the orbit launched at that slope
        top = m1.lambda_c_points([-0.5, 0.3, 0.71], 6.0)[2]
        traj = m1.integrate_trajectory(0.71, 6.0)
        assert top.u0 == float(traj.u[0])
        assert top.lam == pytest.approx(traj.lp_mass ** (4.0 / 6.0), rel=1e-10)
        assert top.t_escape == pytest.approx(oracle_escape(traj), rel=1e-12)

    def test_deep_tail_against_quadrature(self):
        # at p = 2.5 the DOP853 orbit launched at c = -0.999 misses lambda
        # by about 1e-7 (its tail is cut at |u| + |v| = 1e-6, next to u0);
        # the closed form has no such limit
        cs = [0.9, -0.5, -0.999]
        for c, row in zip(cs, m1.lambda_c_points(cs, 2.5)):
            assert row.lam == pytest.approx(quad_lambda(c, 2.5), rel=1e-12)

    def test_launch_inside_the_cut_is_refused(self):
        # (u0, c u0) is within 1e-6 of the origin: the oracle orbit would
        # loop, so it refuses; the closed form does not need it
        with pytest.raises(ToleranceNotMet):
            m1.integrate_trajectory(-0.999, 2.4)
        low, high = m1.lambda_c_points([-0.999, 0.5], 2.4)
        assert 0.0 < low.lam < high.lam

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.0, -1.2])
    def test_bad_c_is_refused_before_any_work(self, bad, monkeypatch):
        launches = self.counted(monkeypatch)
        with pytest.raises(NoSolution):
            m1.lambda_c_points([0.5, bad, 0.0], 4.0)
        assert launches == []


class TestLambdaC:
    def test_neumann_value_vs_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the closed-form soliton
        oracle_mass, err = quad(lambda r: (math.sqrt(2.0) / math.cosh(r)) ** 4,
                                0.0, 40.0, epsabs=1e-13)
        assert err < 1e-7
        assert_allclose(oracle_mass, 8.0 / 3.0, rtol=1e-12)
        lam = m1.lambda_c(0.0, 4.0)
        assert abs(lam - oracle_mass ** 0.5) <= 1e-12
        assert_allclose(lam, 4.0 / math.sqrt(6.0), rtol=1e-15)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_strictly_increasing(self, p):
        cs = np.linspace(-0.9, 0.9, 13)
        vals = [m1.lambda_c(c, p) for c in cs]
        assert np.all(np.diff(vals) > 0.0)

    def test_limit_c_to_one(self):
        lam = m1.lambda_c(0.999, 4.0)
        assert abs(lam / (4.0 / math.sqrt(3.0)) - 1.0) <= 0.01

    def test_limit_c_to_minus_one(self):
        assert m1.lambda_c(-0.999, 4.0) <= 0.01 * m1.soliton_line(4.0)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_sandwich(self, p):
        line = m1.soliton_line(p)
        for c in (-0.8, 0.0, 0.8):
            lam = m1.lambda_c(c, p)
            assert 0.0 < lam < line

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            m1.lambda_c(1.0, 4.0)
        with pytest.raises(NoSolution):
            m1.lambda_c(-1.5, 4.0)

    def test_point_diagnostics(self):
        (pt,) = m1.lambda_c_points([0.5], 4.0)
        assert pt.t_escape == pytest.approx(math.atanh(0.5), rel=1e-15)
        assert pt.u0 == m1.initial_amplitude(0.5, 4.0)
        (near,) = m1.lambda_c_points([0.9995], 4.0)
        assert near.lam == pytest.approx(m1.soliton_line(4.0), rel=1e-6)
        assert near.t_escape == pytest.approx(math.atanh(0.9995), rel=1e-15)


class TestSolitonLine:
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_against_beta_function_oracle(self, p):
        oracle = sech_soliton_mass(p) ** ((p - 2.0) / p)
        assert_allclose(m1.soliton_line(p), oracle, rtol=1e-13)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0])
    def test_against_quadrature(self, p):
        half, err = quad(lambda r: float(m1.soliton(r, p)) ** p, 0.0, np.inf,
                         epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-11
        assert_allclose(m1.soliton_line(p), (2.0 * half) ** ((p - 2.0) / p),
                        rtol=1e-14)

    def test_p4_closed_form(self):
        assert m1.soliton_line(4.0) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_half_line_relation(self, p):
        # the c = 0 trajectory is half of the symmetric soliton
        assert_allclose(m1.soliton_line(p),
                        2.0 ** (1.0 - 2.0 / p) * m1.lambda_c(0.0, p), rtol=1e-14)

