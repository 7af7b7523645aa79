"""Field algebra, de Gennes constant, exponent validation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.stats import ortho_group

from semisobolev import geometry as ge
from semisobolev.errors import InvalidExponent, NotSkew


class TestTrPlus:
    def test_2x2(self):
        assert ge.tr_plus(ge.field_matrix_2d(-1.5)) == pytest.approx(1.5)

    def test_block_diag_4x4(self):
        B = np.zeros((4, 4))
        B[0, 1], B[1, 0] = 2.0, -2.0
        B[2, 3], B[3, 2] = 0.7, -0.7
        assert ge.tr_plus(B) == pytest.approx(2.7)

    def test_random_5x5_vs_eigensolver_oracle(self, rng):
        for _ in range(5):
            M = rng.standard_normal((5, 5))
            B = M - M.T
            oracle = np.linalg.eigvals(B).imag
            oracle = oracle[oracle > 0].sum()
            assert abs(ge.tr_plus(B) - oracle) <= 1e-10

    def test_orthogonal_conjugation_invariance(self, rng):
        M = rng.standard_normal((4, 4))
        B = M - M.T
        for _ in range(5):
            Q = ortho_group.rvs(4, random_state=rng)
            assert abs(ge.tr_plus(Q.T @ B @ Q) - ge.tr_plus(B)) <= 1e-10

    def test_zero_iff_zero(self):
        assert ge.tr_plus(np.zeros((3, 3))) == 0.0

    def test_not_skew(self):
        with pytest.raises(NotSkew):
            ge.tr_plus(np.eye(3))


class TestLorentzPotential:
    def test_constant_field_is_half_b_dx(self):
        B = ge.field_matrix_2d(2.0)
        x0 = np.array([0.3, -0.2])
        x = np.array([1.0, 0.7])
        assert_allclose(ge.lorentz_potential(B, x0, x),
                        ge.linear_gauge(B, x0)(x)[0], rtol=1e-14)

    def test_vanishes_at_base_point(self):
        Bf = lambda x: ge.field_matrix_2d(1.0 + x[0] ** 2)
        x0 = np.array([0.4, 0.1])
        assert_allclose(ge.lorentz_potential(Bf, x0, x0), 0.0, atol=1e-15)

    def test_quadratic_field_vs_fine_trapezoid(self):
        Bf = lambda x: ge.field_matrix_2d(1.0 + x[0] ** 2 + 0.5 * x[1] ** 2)
        x0 = np.array([0.2, -0.3])
        x = np.array([0.9, 0.8])
        dx = x - x0
        ts = np.linspace(0.0, 1.0, 100001)
        vals = np.array([t * (np.asarray(Bf(x0 + t * dx)).T @ dx) for t in ts])
        oracle = trapezoid(vals, ts, axis=0)
        assert np.abs(ge.lorentz_potential(Bf, x0, x) - oracle).max() <= 1e-10


class TestLinearApprox:
    def test_zero_at_base(self):
        B = ge.field_matrix_2d(1.0)
        assert_allclose(ge.linear_gauge(B, [1.0, 2.0])([1.0, 2.0]), 0.0)

    def test_discrete_curl_recovers_field(self):
        B = ge.field_matrix_2d(1.3)
        A = ge.linear_gauge(B, x0=[0.5, -0.5])
        assert_allclose(ge.magnetic_matrix_at(A, [0.2, 0.7], 2), B, atol=1e-9)


class TestDeGennes:
    def test_in_unit_interval(self):
        th = ge.de_gennes_constant()
        assert 0.0 < th < 1.0

    def test_known_value(self):
        assert abs(ge.de_gennes_constant() - 0.5901) <= 1e-3

    def test_cached(self):
        assert ge.de_gennes_constant() is not None
        assert ge.de_gennes_constant() == ge.de_gennes_constant()

    def test_neumann_oscillator_at_zero_frequency(self):
        # even Hermite ground state is Neumann-admissible: mu(0) = 1
        assert abs(ge._degennes_mu(0.0) - 1.0) <= 1e-5

    def test_minimum_at_sqrt_theta(self):
        # the fiber minimum sits at xi = sqrt(Theta0)
        th = ge.de_gennes_constant()
        assert ge._degennes_mu(np.sqrt(th)) <= th + 1e-6


class TestNeumannLowerBound:
    def test_d2_field_enters_parallel_slot(self):
        b = 2.0
        nlb = ge.neumann_lower_bound(ge.field_matrix_2d(b))
        assert_allclose(nlb, ge.de_gennes_constant() * b, rtol=1e-12)

    def test_d3_tangent_field(self):
        B = np.zeros((3, 3))
        B[1, 2], B[2, 1] = 1.4, -1.4   # B_par = (0, 1.4)
        assert_allclose(ge.neumann_lower_bound(B),
                        ge.de_gennes_constant() * 1.4, rtol=1e-12)

    def test_d3_normal_field_gives_landau(self):
        B = np.zeros((3, 3))
        B[0, 1], B[1, 0] = 1.0, -1.0   # tangential block only
        assert ge.neumann_lower_bound(B) == pytest.approx(1.0)


class TestExponent:
    def test_accepts_subcritical(self):
        assert ge.check_exponent(4.0, 2) == 4.0
        assert ge.check_exponent(2.0, 1) == 2.0
        assert ge.check_exponent(5.9, 3) == 5.9

    def test_rejects_supercritical_3d(self):
        with pytest.raises(InvalidExponent):
            ge.check_exponent(6.0, 3)

    def test_rejects_below_two(self):
        with pytest.raises(InvalidExponent):
            ge.check_exponent(1.5, 2)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite(self, p):
        # nan fails no comparison and inf passes p >= 2
        with pytest.raises(InvalidExponent):
            ge.check_exponent(p, 1)


class TestGeometrySpec:
    def test_field_evaluation(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=lambda pts: pts[:, 0],
                               gamma=-0.3)
        pts = np.array([[0.5, 0.0], [0.1, 0.2]])
        assert_allclose(spec.v_at(pts), [0.5, 0.1])
        assert_allclose(spec.gamma_at(pts), [-0.3, -0.3])

    def test_field_at_with_exact_callback(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=0.0,
                               A=ge.linear_gauge(ge.field_matrix_2d(2.0)),
                               B=lambda pts: np.full(len(np.atleast_2d(pts)), 2.0))
        assert_allclose(spec.field_at([0.3, 0.4]), ge.field_matrix_2d(2.0))

    def test_field_at_numeric_curl(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=0.0,
                               A=ge.linear_gauge(ge.field_matrix_2d(2.0)))
        assert_allclose(spec.field_at([0.3, 0.4]), ge.field_matrix_2d(2.0),
                        atol=1e-8)
