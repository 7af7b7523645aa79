"""Planar field, gauges, de Gennes constant, exponent validation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from semisobolev import geometry as ge
from semisobolev.errors import ConfigError, InvalidExponent


def _neumann_fiber(xi: float) -> float:
    """Ground eigenvalue of -u'' + (t - xi)^2 u on (0, 12), u'(0) = 0,
    u(12) = 0, by lumped-mass linear finite elements on 4,001 nodes."""
    t = np.linspace(0.0, 12.0, 4001)
    st = t[1] - t[0]
    w = np.full(len(t), st)
    w[0] = st / 2.0
    main = np.full(len(t), 2.0 / st)
    main[0] = 1.0 / st
    main += w * (t - xi) ** 2
    dinv = 1.0 / np.sqrt(w[:-1])
    off = np.full(len(t) - 2, -1.0 / st) * dinv[:-1] * dinv[1:]
    return float(eigh_tridiagonal(main[:-1] * dinv * dinv, off,
                                  select="i", select_range=(0, 0))[0][0])


class TestLinearApprox:
    def test_zero_at_base(self):
        assert_allclose(ge.symmetric_gauge(1.0, [1.0, 2.0])([1.0, 2.0]), 0.0)

    def test_discrete_curl_recovers_field(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0),
                               A=ge.symmetric_gauge(1.3, x0=[0.5, -0.5]))
        assert_allclose(spec.b_at([[0.2, 0.7], [-0.4, 0.1]]), 1.3, atol=1e-9)

    def test_differs_from_landau_by_a_gradient(self):
        # symmetric - Landau = (b/2) grad(x1 x2) for x0 = 0
        b = 0.7
        pts = np.array([[0.3, -1.2], [2.0, 0.5]])
        diff = ge.symmetric_gauge(b)(pts) - ge.landau_gauge(b)(pts)
        assert_allclose(diff, 0.5 * b * pts[:, ::-1], rtol=1e-14)


class TestDeGennes:
    def test_in_unit_interval(self):
        th = ge.de_gennes_constant()
        assert 0.0 < th < 1.0

    def test_known_value(self):
        assert abs(ge.de_gennes_constant() - 0.5901061249) <= 1e-10

    def test_cached(self):
        assert ge.de_gennes_constant() is not None
        assert ge.de_gennes_constant() == ge.de_gennes_constant()

    def test_neumann_oscillator_at_zero_frequency(self):
        # even Hermite ground state is Neumann-admissible: mu(0) = 1
        assert abs(_neumann_fiber(0.0) - 1.0) <= 1e-5

    def test_minimum_at_sqrt_theta(self):
        # the fiber minimum sits at xi = sqrt(Theta0), with value Theta0;
        # the lattice is O(st^2) = 1e-6 high
        th = ge.de_gennes_constant()
        mu = [_neumann_fiber(math.sqrt(th) + d) for d in (-0.05, 0.0, 0.05)]
        assert abs(mu[1] - th) <= 2e-6
        assert mu[1] < min(mu[0], mu[2])


class TestExponent:
    def test_accepts_subcritical(self):
        assert ge.check_exponent(4.0) == 4.0
        assert ge.check_exponent(2.0) == 2.0

    def test_rejects_below_two(self):
        with pytest.raises(InvalidExponent):
            ge.check_exponent(1.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite(self, p):
        # nan fails no comparison and inf passes p >= 2
        with pytest.raises(InvalidExponent):
            ge.check_exponent(p)


class TestGeometrySpec:
    def test_field_evaluation(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=lambda pts: pts[:, 0],
                               gamma=-0.3)
        pts = np.array([[0.5, 0.0], [0.1, 0.2]])
        assert_allclose(spec.v_at(pts), [0.5, 0.1])
        assert_allclose(spec.gamma_at(pts), [-0.3, -0.3])

    def test_b_at_with_exact_callback(self):
        # the callback wins over the potential, and keeps its sign
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=0.0,
                               A=ge.symmetric_gauge(2.0),
                               B=lambda pts: -1.5 - np.atleast_2d(pts)[:, 0])
        assert_allclose(spec.b_at([[0.3, 0.4], [0.5, 0.0]]), [-1.8, -2.0])

    def test_b_at_numeric_curl(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=0.0,
                               A=ge.landau_gauge(-2.0, 0.3))
        assert_allclose(spec.b_at([0.3, 0.4]), [-2.0], atol=1e-8)

    @pytest.mark.parametrize("spec", [
        ge.GeometrySpec(domain=ge.disk(1.0)),
        ge.GeometrySpec(domain=ge.line(2.0), A=lambda pts: pts,
                        B=lambda pts: np.ones(len(pts))),
    ], ids=["no-field", "d1"])
    def test_b_at_is_zero_without_field(self, spec):
        pts = np.zeros((3, spec.dim))
        assert_allclose(spec.b_at(pts), np.zeros(3))

    @pytest.mark.parametrize("key, field", [
        ("V", {"V": lambda pts: 1.0 / pts[:, 0]}),
        ("gamma", {"gamma": math.inf}),
        ("B", {"A": ge.landau_gauge(1.0), "B": lambda pts: np.log(pts[:, 0])}),
    ])
    def test_non_finite_values_name_the_key(self, key, field):
        # Dirichlet data is a face, so no value may be infinite, gamma
        # included; the message names the key and the first bad point
        spec = ge.GeometrySpec(domain=ge.disk(1.0), **field)
        at = {"V": spec.v_at, "gamma": spec.gamma_at, "B": spec.b_at}[key]
        with pytest.raises(ConfigError, match=rf"^{key}: value -?inf at x = \(.*\) is not finite"):
            with np.errstate(divide="ignore"):
                at(np.array([[0.5, 0.0], [0.0, 0.5]]))
