"""Quotient minimization: gradients, eigen oracles, flow behavior."""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import SuperLU, eigsh

from semisobolev import asymptotics
from semisobolev import geometry as ge
from semisobolev import discretize as dz
from semisobolev import minimize as mz
from semisobolev import model1d as m1
from semisobolev import waveguide as wg
from semisobolev.config import load_geometry
from semisobolev.minimize import (MinimizeOptions, el_residual,
                                  minimize_quotient, quotient_gradient)


@pytest.fixture(scope="module")
def robin_1d():
    spec = ge.GeometrySpec(domain=ge.half_line(18.0), V=1.0, gamma=0.0)
    grid = dz.build_grid(spec, 0.01)
    return spec, grid, dz.assemble(spec, 1.0, grid)


@pytest.fixture(scope="module")
def short_strip():
    # the straight Dirichlet strip of `straight_reference`, cut at |s| <= 4:
    # nearly flat along s, so a random start creeps toward the center
    return wg.assemble_waveguide_form(wg.constant_profile(1.0), 1.0, 4.0,
                                      s_halfwidth=4.0)


STRIP_OPTS = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=3,
                             centers=((0.0, 0.0),), bump_width=1.0)


@pytest.fixture(scope="module")
def magnetic_2d():
    spec = ge.GeometrySpec(domain=ge.half_plane(5.0, 5.0), V=0.0,
                           A=ge.symmetric_gauge(1.0),
                           gamma=0.0)
    grid = dz.build_grid(spec, 0.2)
    return spec, grid, dz.assemble(spec, 1.0, grid)


class TestGradient:
    def test_vanishes_at_eigenstate(self, robin_1d):
        _, g, f = robin_1d
        res = minimize_quotient(f, 2.0)
        gr = quotient_gradient(f, res.psi, 2.0)
        norm = math.sqrt(float(np.real(np.sum(g.weight * np.abs(gr.values) ** 2))))
        assert norm <= 1e-7

    def test_finite_difference_pairing(self, magnetic_2d, rng):
        _, g, f = magnetic_2d
        psi = dz.random_field(g, rng)
        delta = dz.random_field(g, rng)
        gr = quotient_gradient(f, psi, 4.0)
        eps = 1e-6
        qp = dz.evaluate(f, dz.WaveFunction(g, psi.values + eps * delta.values), 4.0).quotient
        qm = dz.evaluate(f, dz.WaveFunction(g, psi.values - eps * delta.values), 4.0).quotient
        num = (qp - qm) / (2 * eps)
        ana = float(np.real(np.sum(g.weight * np.conj(gr.values) * delta.values)))
        assert abs(num - ana) <= 1e-6 * max(1.0, abs(num))

    def test_minus_one_homogeneous(self, magnetic_2d, rng):
        _, g, f = magnetic_2d
        psi = dz.random_field(g, rng)
        g1 = quotient_gradient(f, psi, 4.0)
        g2 = quotient_gradient(f, dz.WaveFunction(g, 3.0 * psi.values), 4.0)
        assert_allclose(g2.values, g1.values / 3.0, rtol=1e-11, atol=1e-13)


class TestMinimize1D:
    def test_p4_matches_model1d_under_refinement(self):
        errs = []
        for s in (0.02, 0.01):
            spec = ge.GeometrySpec(domain=ge.half_line(18.0), V=1.0, gamma=0.0)
            g = dz.build_grid(spec, s)
            f = dz.assemble(spec, 1.0, g)
            res = minimize_quotient(f, 4.0, MinimizeOptions(
                grad_tol=1e-9, restarts=1, seed=0, centers=((0.0,),)))
            errs.append(abs(res.lam - m1.lambda_c(0.0, 4.0)))
        assert errs[-1] <= 1e-3
        assert errs[1] < errs[0]

    def test_robin_p4_against_model(self):
        spec = ge.GeometrySpec(domain=ge.half_line(16.0), V=1.0, gamma=-0.4)
        g = dz.build_grid(spec, 0.01)
        f = dz.assemble(spec, 1.0, g)
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-9, restarts=1, centers=((0.0,),)))
        assert abs(res.lam - m1.lambda_c(-0.4, 4.0)) <= 2e-4

    def test_line_p3_against_soliton(self):
        # brute-force lattice minimization vs the closed-form whole-line
        # soliton at a p with no polynomial closed form
        spec = ge.GeometrySpec(domain=ge.line(10.0), V=1.0, gamma=0.0)
        g = dz.build_grid(spec, 0.01)
        f = dz.assemble(spec, 1.0, g)
        res = minimize_quotient(f, 3.0, MinimizeOptions(
            grad_tol=1e-9, restarts=1, centers=((0.0,),)))
        assert res.converged
        assert abs(res.lam - m1.soliton_line(3.0)) <= 1e-5   # O(spacing^2)

    def test_result_contract(self, robin_1d):
        _, _, f = robin_1d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-8, restarts=1, centers=((0.0,),)))
        assert res.converged
        assert abs(res.psi.norm_lp(4.0) - 1.0) <= 1e-12
        assert res.el_residual <= 10.0 * 1e-8 * max(1.0, res.lam)
        assert res.lam > 0


class TestMinimize2D:
    def test_constant_potential_p2(self):
        # Dirichlet truncation adds the exact box kinetic offset 2 (pi/2L)^2
        spec = ge.GeometrySpec(domain=ge.plane(10.0), V=1.0)
        g = dz.build_grid(spec, 0.25)
        f = dz.assemble(spec, 1.0, g)
        lam = minimize_quotient(f, 2.0).lam
        offset = 2.0 * (math.pi / 20.0) ** 2
        assert abs(lam - 1.0) <= 2.0 * offset
        assert lam > 1.0

    def test_p2_flow_cross_check(self, magnetic_2d, rng, monkeypatch):
        _, g, f = magnetic_2d
        eig = minimize_quotient(f, 2.0, MinimizeOptions(seed=1))
        x0 = (rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n))
        monkeypatch.setattr(mz, "_MAX_ITERS", 4000)
        trail, _, _, _ = mz._descend(f, x0, 2.0, MinimizeOptions(
            grad_tol=1e-10))
        R = trail[-1]
        assert abs(R - eig.lam) <= 1e-8 * max(1.0, abs(eig.lam))

    def test_phase_invariance_of_initialization(self, magnetic_2d):
        _, g, f = magnetic_2d
        bump = dz.gaussian_bump(g, (0.0, 0.0), 0.8).values[g.free]
        opts = MinimizeOptions(grad_tol=1e-9)
        r1 = mz._descend(f, bump.astype(complex), 4.0, opts)[0][-1]
        r2 = mz._descend(f, np.exp(1j * 0.77) * bump, 4.0, opts)[0][-1]
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r1)

    def test_monotone_iterates(self, magnetic_2d):
        _, g, f = magnetic_2d
        x0 = dz.gaussian_bump(g, (0.0, 0.0), 0.8).values[g.free]
        trail, _, _, _ = mz._descend(f, x0.astype(complex), 4.0,
                                     MinimizeOptions(grad_tol=1e-8))
        hist = np.array(trail)
        assert len(hist) > 3
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_variational_upper_bound(self, magnetic_2d, rng):
        _, g, f = magnetic_2d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-8, restarts=1, centers=((0.0, 0.0),)))
        for _ in range(5):
            trial = dz.random_field(g, rng)
            assert res.lam <= dz.evaluate(f, trial, 4.0).quotient + 1e-8

    def test_restart_stability_translation_invariant(self, monkeypatch):
        # whole-line soliton valley is flat: every restart reaches the
        # same value
        spec = ge.GeometrySpec(domain=ge.line(10.0), V=1.0)
        g = dz.build_grid(spec, 0.02)
        f = dz.assemble(spec, 1.0, g)
        monkeypatch.setattr(mz, "_MAX_ITERS", 6000)
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-9, restarts=3, seed=4))
        vals = np.array(res.restart_values)
        assert (vals.max() - vals.min()) / vals.min() <= 1e-4


BOX_CFG = ("domain = rectangle\nbounds = -1 1 -1 1\nV = 1.0\n"
           "B = constant 1.0\ngamma = 0\n")
ROBIN_RECTANGLE_CFG = ("domain = rectangle\nbounds = -1 1 -1 1\nV = 1.0\n"
                       "gamma = -0.5\n")
ROBIN_DISK_CFG = "domain = disk\nradius = 1.0\nV = 1.0\ngamma = -0.5\n"


def _load(directory, text):
    path = directory / "geometry.cfg"
    path.write_text(text)
    return load_geometry(str(path))[0]


@pytest.fixture(scope="module")
def magnetic_box(tmp_path_factory):
    """The magnetic Neumann box: B = 1 on [-1, 1]^2, V = 1."""
    return _load(tmp_path_factory.mktemp("box"), BOX_CFG)


class TestEigenOracle:
    # one case per preconditioner: Fourier-capacitance (the magnetic box),
    # tensor (a field-free Robin rectangle) and SuperLU (a Robin disk)
    @pytest.mark.parametrize("cfg, h, solver", [
        pytest.param(BOX_CFG, 0.2, dz._FourierSolve, id="0.2"),
        pytest.param(BOX_CFG, 0.05, dz._FourierSolve, id="0.05"),
        pytest.param(ROBIN_RECTANGLE_CFG, 0.2, dz._TensorSolve,
                     id="robin-rectangle"),
        pytest.param(ROBIN_DISK_CFG, 0.2, SuperLU, id="robin-disk")])
    def test_matches_shift_invert(self, tmp_path, cfg, h, solver):
        spec = _load(tmp_path, cfg)
        g = dz.build_grid(spec, asymptotics.default_mesh_rule(h))
        f = dz.assemble(spec, h, g)
        assert isinstance(f.preconditioner(), solver)
        res = minimize_quotient(f, 2.0)
        M = sp.diags(f.weight.astype(f.K.dtype)).tocsc()
        lam = eigsh(f.K.tocsc(), k=1, M=M, sigma=0.0, which="LM")[0][0]
        assert res.converged and res.restart_exits == ["grad_tol"]
        # Krylov-Bogoliubov: an eigenvalue lies within el_residual of lam
        assert abs(res.lam - lam) <= res.el_residual
        assert abs(res.lam - lam) <= 1e-9 * lam

    def test_1d_p2_matches_the_tridiagonal(self, robin_1d):
        # the real 1-D p = 2 solve is the descent of every other form; its
        # oracle is the lowest eigenvalue of M^{-1/2} K M^{-1/2}, which is
        # tridiagonal on the half line
        _, _, f = robin_1d
        res = minimize_quotient(f, 2.0)
        assert res.converged and res.restart_exits == ["grad_tol"]
        assert res.restart_iterations == [res.iterations]
        dinv = 1.0 / np.sqrt(f.weight)
        lam = eigh_tridiagonal(f.K.diagonal() * dinv * dinv,
                               f.K.diagonal(1) * dinv[:-1] * dinv[1:],
                               eigvals_only=True, select="i",
                               select_range=(0, 0))[0]
        assert abs(res.lam - lam) <= res.el_residual
        assert abs(res.lam - lam) <= 1e-9 * abs(lam)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_capped_solve_is_unconverged(self, magnetic_box, monkeypatch,
                                         recwarn, p):
        g = dz.build_grid(magnetic_box, asymptotics.default_mesh_rule(0.2))
        f = dz.assemble(magnetic_box, 0.2, g)
        monkeypatch.setattr(mz, "_MAX_ITERS", 3)
        opts = MinimizeOptions()
        res = minimize_quotient(f, p, opts)
        assert not res.converged
        assert set(res.restart_exits) == {"cap"}
        assert res.restart_iterations == [3] * len(res.restart_exits)
        # one rule at the returned field, whose value the selected restart
        # reports
        gnorm = 2.0 * el_residual(f, res.lam, res.psi, p)
        assert res.converged == (
            gnorm <= 10.0 * opts.grad_tol * max(1.0, abs(res.lam)))
        assert res.lam in res.restart_values
        # the flag, not a warning, reports the miss
        assert not [w for w in recwarn if "tolerance" in str(w.message)]


class TestResidual:
    def test_eigenpair_residual(self, robin_1d):
        _, _, f = robin_1d
        res = minimize_quotient(f, 2.0)
        assert el_residual(f, res.lam, res.psi, 2.0) <= 1e-8

    def test_perturbation_grows_linearly(self, robin_1d, rng):
        _, g, f = robin_1d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-10, restarts=1, centers=((0.0,),)))
        noise = rng.standard_normal(g.n_nodes)
        rs = []
        for eps in (1e-5, 2e-5, 4e-5):
            pert = dz.WaveFunction(g, res.psi.values + eps * noise)
            pert = dz.WaveFunction(g, pert.values / pert.norm_lp(4.0))
            rs.append(el_residual(f, res.lam, pert, 4.0))
        assert rs[0] > 10 * res.el_residual
        assert_allclose(rs[1] / rs[0], 2.0, rtol=0.15)
        assert_allclose(rs[2] / rs[1], 2.0, rtol=0.15)

    def test_zero_function(self, robin_1d):
        _, g, f = robin_1d
        from semisobolev.errors import ZeroFunction
        with pytest.raises(ZeroFunction):
            quotient_gradient(f, dz.WaveFunction(g, np.zeros(g.n_nodes)), 4.0)


class TestExitReasons:
    def test_iteration_cap(self, magnetic_2d, monkeypatch):
        _, _, f = magnetic_2d
        monkeypatch.setattr(mz, "_MAX_ITERS", 3)
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            restarts=1, centers=((0.0, 0.0),)))
        assert res.restart_exits == ["cap", "cap"]
        assert res.restart_iterations == [3, 3]
        assert res.iterations == 6
        assert len(res.restart_values) == 2

    def test_bump_start_converges(self, magnetic_2d):
        _, _, f = magnetic_2d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-8, restarts=0, centers=((0.0, 0.0),)))
        assert res.restart_exits[0] in ("grad_tol", "stagnation")
        assert res.restart_iterations == [res.iterations]

    def test_outpaced_start_leaves_the_answer(self, short_strip):
        both = minimize_quotient(short_strip, 4.0, STRIP_OPTS)
        bump = minimize_quotient(short_strip, 4.0,
                                 dataclasses.replace(STRIP_OPTS, restarts=0))
        assert both.restart_exits == ["grad_tol", "outpaced"]
        assert both.restart_iterations[1] < mz._MAX_ITERS
        assert both.restart_values[1] > both.restart_values[0] + mz._TIE
        assert both.lam == bump.lam
        assert np.array_equal(both.psi.values, bump.psi.values)
        assert both.converged and bump.converged
        assert both.el_residual == bump.el_residual

    def test_first_start_is_never_cut(self, short_strip, monkeypatch):
        # a bump at s = 2 creeps toward the center; the cap is below its
        # own stop (1,148 iterations), the centered bump converges in 15
        monkeypatch.setattr(mz, "_MAX_ITERS", 150)
        opts = dataclasses.replace(STRIP_OPTS, restarts=0)
        first = minimize_quotient(short_strip, 4.0, dataclasses.replace(
            opts, centers=((2.0, 0.0), (0.0, 0.0))))
        second = minimize_quotient(short_strip, 4.0, dataclasses.replace(
            opts, centers=((0.0, 0.0), (2.0, 0.0))))
        # no start has converged before the first one: nothing to outpace
        assert first.restart_exits == ["cap", "grad_tol"]
        assert second.restart_exits == ["grad_tol", "outpaced"]

    @pytest.mark.usefixtures("fresh_reference")
    def test_straight_reference_work(self, monkeypatch):
        iterations = []

        def counting(form, p, opts, coarse=None, start=None):
            res = minimize_quotient(form, p, opts, coarse, start)
            iterations.append(res.iterations + sum(res.coarse_iterations))
            return res

        monkeypatch.setattr(mz, "minimize_quotient", counting)
        # p = 4 solves one truncation, in 49 coarse and fine iterations:
        # the off-center random start ends `merged` after 21 coarse
        # iterations, the bump after 16.  p = 2 is a closed form and solves
        # nothing
        for p, truncations, bound in ((4.0, 1, 60), (2.0, 0, 0)):
            iterations.clear()
            wg.straight_reference(p)
            assert len(iterations) == truncations
            assert sum(iterations) <= bound

    @pytest.mark.parametrize("R", [0.0, math.nan])
    def test_vanished_or_non_finite_start_is_unconverged(self, magnetic_2d,
                                                         monkeypatch, R):
        # a start normalized to the zero field (R = 0, then 0/0) or one
        # ending at a non-finite R is never reported as converged
        _, _, f = magnetic_2d

        def vanished(form, x0, p, opts, incumbent):
            return [R], np.zeros_like(x0), 1, mz._Stop("grad_tol", 0.0)

        monkeypatch.setattr(mz, "_descend", vanished)
        with np.errstate(invalid="ignore"):
            res = minimize_quotient(f, 4.0, MinimizeOptions(restarts=0))
        assert res.restart_exits == ["grad_tol"]
        assert not res.converged

    def test_overflowing_start_is_rescaled(self, magnetic_2d, monkeypatch):
        # |x|^6 overflows at |x| ~ 1e200; the 0-homogeneous quotient and
        # the whole descent are those of the start divided by its max |x|
        _, _, f = magnetic_2d
        x0 = np.random.default_rng(1).standard_normal(f.n) + 0j
        monkeypatch.setattr(mz, "_MAX_ITERS", 5)
        opts = MinimizeOptions()
        with np.errstate(over="ignore"):
            big = mz._descend(f, 1e200 * x0, 6.0, opts)[0]
        assert_allclose(big, mz._descend(f, x0, 6.0, opts)[0], rtol=1e-13)

    def test_neumann_disk_rung_converges(self):
        # R = 3 rung of the unit-disk Neumann ladder: every start converges,
        # the random one to a boundary state below the rim bump
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=0.0)
        (row,) = asymptotics.large_domain(spec, 4.0, [3.0])
        assert row.converged
        assert row.lam == pytest.approx(0.11404484277, rel=1e-9)


class TestForecast:
    W = mz._STAG_WINDOW

    @pytest.mark.parametrize("k", [2 * mz._STAG_WINDOW, 7 * mz._STAG_WINDOW + 13])
    def test_exact_on_a_geometric_trail(self, k):
        # R_j = L + C r^j: the two-window tail lands on R at the cap
        L, C, r, cap = 5.0, 0.3, 0.993, 3000
        trail = [L + C * r ** j for j in range(k + 1)]
        assert mz._forecast(trail, cap) == pytest.approx(L + C * r ** cap,
                                                         rel=1e-14)

    def test_collapsed_decreases_forecast_the_last_value(self):
        # D2 below the rounding of D1 (1 - rho rounds to 1): rho^m is 0 and
        # the forecast is the trail's last value, not a math domain error
        W = self.W
        trail = [100.0 - 90.0 * j / W for j in range(W + 1)]
        trail += [10.0] * (W - 1) + [math.nextafter(10.0, 0.0)]
        assert mz._forecast(trail, 3000) == trail[-1]

    def test_linear_pace_when_decreases_do_not_shrink(self):
        # a steady slide and an accelerating one keep the linear forecast;
        # decreases that shrink by parts in 1e14 give the same value
        cap = 500
        steady = [1.0 - 1e-4 * j for j in range(3 * self.W + 1)]
        assert mz._forecast(steady, cap) == pytest.approx(1.0 - 1e-4 * cap,
                                                          rel=1e-13)
        nearly = [1.0 - 1e-4 * j * (1.0 - 1e-16 * j)
                  for j in range(3 * self.W + 1)]
        assert mz._forecast(nearly, cap) == pytest.approx(1.0 - 1e-4 * cap,
                                                          rel=1e-13)
        faster = [1.0 - 1e-6 * j * j for j in range(3 * self.W + 1)]
        k = 3 * self.W
        pace = (faster[k - self.W] - faster[k]) / self.W
        assert mz._forecast(faster, cap) == pytest.approx(
            faster[k] - pace * (cap - k), rel=1e-13)


class TestHotPath:
    @staticmethod
    def _line(f, x, p=4.0):
        """x / |x|_p, its R, the preconditioned gradient d, Re<d, K x>,
        <d, K d> and the a .. a^p coefficients of |x - a d|_p^p - 1
        (p = 2: -2 Re<x, d>_M and <d, d>_M; p = 4: the quartic moments)."""
        x = x / dz.lp_norm(f.weight, x, p)
        Kx = f.K @ x
        R = float(np.real(np.vdot(x, Kx)))
        g = mz._grad_unit(f.weight, x, Kx, R, p)
        d = f.preconditioner().solve(f.weight * g)
        dKx = float(np.real(np.vdot(d, Kx)))
        dKd = float(np.real(np.vdot(d, f.K @ d)))
        if p == 2.0:
            n = (-2.0 * float(np.real(np.vdot(x, f.weight * d))),
                 float(np.real(np.vdot(d, f.weight * d))))
        else:
            n = mz._quartic_moments(f.weight, x, d)
        return x, R, d, dKx, dKd, n

    def _check_line(self, magnetic_2d, p):
        """The line quotient in closed form against `evaluate`, and the
        exact step along the preconditioned gradient below it everywhere
        on the line; a real Robin and a magnetic half plane."""
        spec = ge.GeometrySpec(domain=ge.half_plane(5.0, 5.0), V=1.0,
                               gamma=-0.5)
        robin = dz.assemble(spec, 1.0, dz.build_grid(spec, 0.2))
        for f in (robin, magnetic_2d[2]):
            pts = f.grid.points[f.grid.free]
            x = np.exp(-((pts - 0.3) ** 2).sum(axis=1) / 4.5)
            if f.is_complex:
                x = x * np.exp(0.5j * pts[:, 0])
            x, R, d, dKx, dKd, n = self._line(f, x, p)

            def line(a):
                delta = a * sum(c * a ** k for k, c in enumerate(n))
                return R + mz._decrease(R, dKx, dKd, a, delta, p)

            for a in (1e-6, 0.3, 5.0, -0.7):
                psi = dz.WaveFunction(f.grid, f.full_values(x - a * d))
                direct = dz.evaluate(f, psi, p).quotient
                assert abs(line(a) - direct) <= 1e-13 * abs(direct)
            a_star, nt = mz._exact_step(R, dKx, dKd, n)
            psi = dz.WaveFunction(f.grid, f.full_values(x - a_star * d))
            assert nt == pytest.approx(psi.norm_lp(p), rel=1e-13)
            for a in np.geomspace(1e-4, 1e4, 81):
                assert line(a_star) <= line(a) + 1e-14 * abs(R)

    def test_line_energy(self, magnetic_2d):
        self._check_line(magnetic_2d, 4.0)

    def test_p2_line_energy(self, magnetic_2d):
        # the Rayleigh quotient along the line: a quadratic over a quadratic
        self._check_line(magnetic_2d, 2.0)

    def test_exact_step_takes_the_end_point(self):
        # the line quotient rises to a maximum near a = 1, then falls
        # toward its limit dKd / sqrt(n4) at a = inf and stays above it:
        # the best step is that end point, the field -d
        R, dKx, dKd = 1.0, -0.1909, 0.3970
        n = (-1.6370, 0.3213, -0.8052, 2.0193)
        assert mz._exact_step(R, dKx, dKd, n) == (math.inf, n[3] ** 0.25)
        end = dKd / math.sqrt(n[3]) - R
        for a in np.geomspace(1e-3, 1e6, 37):
            delta = a * (n[0] + a * (n[1] + a * (n[2] + a * n[3])))
            assert mz._decrease(R, dKx, dKd, a, delta, 4.0) > end

    def test_p2_exact_step_takes_the_end_point(self):
        # K = diag(0, 1), M = I, x = (0.6, 0.8), d = -(0.62, 0.78): x - a d
        # turns toward the ground state e1 for every a > 0 but reaches only
        # the direction of -d, so the Rayleigh quotient falls all along the
        # line to dKd / <d, d> at a = inf: the best step is the field -d
        R, dKx, dKd = 0.64, -0.624, 0.6084
        n = (1.992, 0.9928)         # -2 <x, d>, <d, d>
        assert mz._exact_step(R, dKx, dKd, n) == (math.inf, math.sqrt(n[1]))
        end = dKd / n[1] - R
        for a in np.geomspace(1e-3, 1e6, 37):
            delta = a * (n[0] + a * n[1])
            assert end < mz._decrease(R, dKx, dKd, a, delta, 2.0) < 0.0

    def test_end_point_step_moves_to_minus_d(self, magnetic_2d, monkeypatch):
        # an end-point step a = inf replaces x by -d / |d|_4, whose
        # quotient is <d, K d> / |d|_4^2
        _, _, f = magnetic_2d
        x0 = dz.gaussian_bump(f.grid, (0.0, 0.0), 0.8).values[f.grid.free]
        x, R, d, dKx, dKd, n = self._line(f, x0.astype(complex))
        monkeypatch.setattr(mz, "_exact_step", lambda R, dKx, dKd, n:
                            (math.inf, n[3] ** 0.25))
        monkeypatch.setattr(mz, "_MAX_ITERS", 1)
        trail, x1, _, _ = mz._descend(f, x, 4.0, MinimizeOptions())
        nd = dz.lp_norm(f.weight, d, 4.0)
        assert trail[1] == pytest.approx(dKd / nd ** 2, rel=1e-12)
        assert_allclose(x1, -d / nd, rtol=1e-12, atol=1e-15)

    def test_decrease_keeps_its_sign_at_grad_tol(self):
        # at a grad_tol-converged minimizer the best step lowers R by about
        # 1e-19, far below R's roundoff; the closed form keeps that decrease
        # against an exact rational reference, a direct |x - a d|_4^2
        # comparison with R does not
        spec = ge.GeometrySpec(domain=ge.half_line(18.0), V=1.0, gamma=0.0)
        f = dz.assemble(spec, 1.0, dz.build_grid(spec, 0.05))
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-8, restarts=0, centers=((0.0,),)))
        assert res.restart_exits == ["grad_tol"]
        x, R, d, dKx, dKd, n = self._line(f, f.free_values(res.psi))
        a, _ = mz._exact_step(R, dKx, dKd, n)
        delta = a * (n[0] + a * (n[1] + a * (n[2] + a * n[3])))
        dec = mz._decrease(R, dKx, dKd, a, delta, 4.0)

        K = f.K.tocoo()

        def exact_quotient(a):
            y = [Fraction(xi) - Fraction(a) * Fraction(di)
                 for xi, di in zip(x.tolist(), d.tolist())]
            Q = sum(Fraction(v) * y[i] * y[j] for i, j, v in
                    zip(K.row.tolist(), K.col.tolist(), K.data.tolist()))
            N = sum(Fraction(wi) * yi ** 4 for wi, yi in zip(f.weight.tolist(), y))
            return (Decimal(Q.numerator) / Decimal(Q.denominator)
                    / (Decimal(N.numerator) / Decimal(N.denominator)).sqrt())

        with localcontext() as ctx:
            ctx.prec = 60
            exact = float(exact_quotient(a) - exact_quotient(0.0))
        assert -1e-16 * R < exact < 0.0
        assert abs(dec - exact) <= 1e-3 * abs(exact)
        xa = x - a * d
        naive = float(xa @ (f.K @ xa)) / dz.lp_norm(f.weight, xa, 4.0) ** 2 - R
        assert abs(naive - exact) > abs(exact)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_lp_kernel(self, p, complex_, rng):
        w = rng.uniform(0.1, 1.0, 500)
        x = rng.standard_normal(500)
        if complex_:
            x = x + 1j * rng.standard_normal(500)
        ref = w @ np.abs(x) ** p
        assert abs(w @ dz.abs_pow(x, p) - ref) <= 1e-13 * ref
        assert abs(dz.lp_norm(w, x, p) - ref ** (1.0 / p)) <= 1e-13 * ref ** (1.0 / p)

    def test_work_per_iteration(self, magnetic_2d, rng, monkeypatch):
        _, _, f = magnetic_2d

        class CountingMatrix:
            def __init__(self, K):
                self.K, self.matvecs = K, 0

            def __matmul__(self, x):
                self.matvecs += 1
                return self.K @ x

            def __getattr__(self, name):
                return getattr(self.K, name)

        class CountingLU:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, b):
                self.solves += 1
                return self.lu.solve(b)

        norms = []

        def counting_lp_norm(w, x, p):
            norms.append(1)
            return dz.lp_norm(w, x, p)

        monkeypatch.setattr(mz, "lp_norm", counting_lp_norm)
        monkeypatch.setattr(mz, "_MAX_ITERS", 40)
        x0 = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        for p in (4.0, 3.0):
            K, lu = CountingMatrix(f.K), CountingLU(f.preconditioner())
            form = dataclasses.replace(f, K=K, _prec=lu)
            norms.clear()
            trail, _, its, stop = mz._descend(form, x0, p, MinimizeOptions())
            assert stop.reason == "cap"
            steps = len(trail) - 1              # accepted steps
            trials = len(norms) - 1             # line-search trials
            assert steps == its == 40
            if p == 4.0:
                assert trials == 0              # closed-form line search
            else:
                assert trials > steps           # the run did backtrack
            assert lu.solves == steps + 1       # one per iterate, none per trial
            assert K.matvecs <= 2 * its + 1


class TestNested:
    """Every start descends on the lattice at twice the spacing first; the
    distinct coarse minima are polished on the fine one."""

    def test_waveguide_rung_agrees_with_the_direct_solve(self):
        prof = wg.gaussian_profile(0.5, 0.0, 1.0)
        opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=5,
                               centers=((0.0, 0.0),), bump_width=0.3)

        def form(spacing):
            return wg.assemble_waveguide_form(prof, 0.2, 4.0, 3.0, spacing)

        spacing = wg._spacing(prof, 0.2)
        direct = minimize_quotient(form(spacing), 4.0, opts)
        nested = mz.solve_lattice(form, spacing, 4.0, opts)
        assert direct.converged and nested.converged
        assert nested.lam == pytest.approx(direct.lam, rel=1e-9)
        assert len(nested.coarse_values) == len(nested.coarse_exits) == 2
        assert nested.iterations == sum(nested.restart_iterations)
        assert nested.iterations < direct.iterations

    def test_magnetic_half_plane_p2_agrees_with_the_direct_solve(self):
        # the Fourier-preconditioned p = 2 model of the magnetic box's edges
        spec = ge.GeometrySpec(domain=ge.half_plane(4.0, 5.0), V=1.0,
                               A=ge.landau_gauge(1.0), gamma=0.0)

        def form(s):
            return dz.assemble(spec, 1.0, dz.build_grid(spec, s))

        opts = MinimizeOptions(grad_tol=1e-7)
        direct = minimize_quotient(form(0.1), 2.0, opts)
        nested = mz.solve_lattice(form, 0.1, 2.0, opts)
        assert direct.converged and nested.converged
        assert nested.lam == pytest.approx(direct.lam, rel=1e-9)
        assert nested.restart_values == [nested.lam]
        assert nested.coarse_exits == ["grad_tol"]
        assert nested.coarse_values[0] != nested.lam

    def test_too_small_halved_lattice_runs_no_coarse_stage(self):
        # 9 nodes per axis at s = 0.25 on [0, 2]; the halved lattice has 5
        spec = ge.GeometrySpec(domain=ge.rectangle(((0.0, 2.0), (0.0, 2.0))))
        build = lambda s: dz.assemble(spec, 1.0, dz.build_grid(spec, s))
        res = mz.solve_lattice(build, 0.25, 2.0)
        assert res.coarse_values == res.coarse_iterations == res.coarse_exits == []
        res = mz.solve_lattice(build, 0.1, 2.0)
        assert len(res.coarse_values) == len(res.coarse_iterations) == 1

    @pytest.mark.parametrize("p", [4.0, 2.0])
    def test_a_start_skips_the_coarse_strip(self, p):
        # a start already lies in the minimizer's basin, at every p: the
        # fine strip polishes it alone
        prof = wg.constant_profile(1.0)
        spacing = wg._spacing(prof, 1.0)

        def form(s):
            return wg.assemble_waveguide_form(prof, 1.0, p, 4.0, s)

        cold = mz.solve_lattice(form, spacing, p, STRIP_OPTS)
        warm = mz.solve_lattice(form, spacing, p, STRIP_OPTS, start=cold.psi)
        assert len(cold.coarse_iterations) == (2 if p > 2.0 else 1)
        assert warm.coarse_iterations == []
        assert warm.converged
        assert warm.lam == pytest.approx(cold.lam, rel=1e-9)

    def test_neumann_rungs_keep_the_lower_basin(self):
        # R = 3 (h = 1/9): the bump at (1, 0) has the lowest coarse value but
        # polishes to the higher of two rim basins; the random start, next
        # in coarse order, polishes to the lower one.  Polishing only the
        # best coarse start would return 0.1140514599
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=0.0)
        centers = ((1.0, 0.0), (0.0, 0.0))
        res = asymptotics._rung(spec, 1.0 / 9.0, 4.0, centers)
        assert res.converged
        assert res.lam == pytest.approx(0.114044842772, rel=1e-9)
        assert res.restart_values[0] == pytest.approx(0.1140514599, rel=1e-9)
        assert res.coarse_exits == ["grad_tol"] * 3
        order = sorted(range(3), key=res.coarse_values.__getitem__)
        assert order == [0, 2, 1]
        # R = 2 (h = 1/4): the random start ends on the bump's coarse value
        # and is not polished again
        res = asymptotics._rung(spec, 0.25, 4.0, centers)
        assert res.coarse_exits == ["grad_tol", "grad_tol", "merged"]
        assert abs(res.coarse_values[2] - res.coarse_values[0]) <= mz._TIE
        assert len(res.restart_values) == 2
        assert res.lam == pytest.approx(0.358998662418, rel=1e-9)

    def test_outpaced_coarse_start_is_not_polished(self, short_strip):
        # the random start on the short strip creeps toward the center; on
        # the coarse strip it is cut, so one fine descent runs
        coarse = wg.assemble_waveguide_form(
            wg.constant_profile(1.0), 1.0, 4.0, s_halfwidth=4.0,
            spacing=tuple(2.0 * s for s in short_strip.grid.spacing))
        res = minimize_quotient(short_strip, 4.0, STRIP_OPTS, coarse=coarse)
        assert res.coarse_exits == ["grad_tol", "outpaced"]
        assert res.restart_exits == ["grad_tol"]
        direct = minimize_quotient(short_strip, 4.0, STRIP_OPTS)
        assert res.lam == pytest.approx(direct.lam, rel=1e-9)
