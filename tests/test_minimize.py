"""Quotient minimization: gradients, eigen paths, flow behavior."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semisobolev import geometry as ge
from semisobolev import discretize as dz
from semisobolev import minimize as mz
from semisobolev import model1d as m1
from semisobolev import waveguide as wg
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
                           A=ge.linear_gauge(ge.field_matrix_2d(1.0)),
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

    def test_p2_flow_cross_check(self, magnetic_2d, rng):
        _, g, f = magnetic_2d
        eig = minimize_quotient(f, 2.0, MinimizeOptions(seed=1))
        from semisobolev.minimize import _descend
        x0 = (rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n))
        R, _, _, _ = _descend(f, x0, 2.0, MinimizeOptions(grad_tol=1e-10,
                                                          max_iters=4000))
        assert abs(R - eig.lam) <= 1e-8 * max(1.0, abs(eig.lam))

    def test_phase_invariance_of_initialization(self, magnetic_2d):
        _, g, f = magnetic_2d
        bump = dz.gaussian_bump(g, (0.0, 0.0), 0.8)
        r1 = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-9, inits=(bump.values.astype(complex),)))
        r2 = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-9, inits=(np.exp(1j * 0.77) * bump.values,)))
        assert abs(r1.lam - r2.lam) <= 1e-10 * max(1.0, r1.lam)

    def test_monotone_iterates(self, magnetic_2d):
        _, g, f = magnetic_2d
        x0 = dz.gaussian_bump(g, (0.0, 0.0), 0.8).values[g.free]
        hist = []
        mz._descend(f, x0.astype(complex), 4.0, MinimizeOptions(grad_tol=1e-8),
                    history=hist)
        hist = np.array(hist)
        assert len(hist) > 3
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_variational_upper_bound(self, magnetic_2d, rng):
        _, g, f = magnetic_2d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-8, restarts=1, centers=((0.0, 0.0),)))
        for _ in range(5):
            trial = dz.random_field(g, rng)
            assert res.lam <= dz.evaluate(f, trial, 4.0).quotient + 1e-8

    def test_restart_stability_translation_invariant(self):
        # whole-line soliton valley is flat: every restart reaches the
        # same value
        spec = ge.GeometrySpec(domain=ge.line(10.0), V=1.0)
        g = dz.build_grid(spec, 0.02)
        f = dz.assemble(spec, 1.0, g)
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            grad_tol=1e-9, restarts=3, seed=4, max_iters=6000))
        vals = np.array(res.restart_values)
        assert (vals.max() - vals.min()) / vals.min() <= 1e-4


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
    def test_iteration_cap(self, magnetic_2d, rng):
        _, _, f = magnetic_2d
        res = minimize_quotient(f, 4.0, MinimizeOptions(
            max_iters=3, restarts=1, centers=((0.0, 0.0),)))
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

    def test_eigen_path_reports(self, robin_1d):
        _, _, f = robin_1d
        res = minimize_quotient(f, 2.0)
        assert res.restart_exits == ["eigen"]
        assert res.restart_iterations == [res.iterations]

    def test_outpaced_start_leaves_the_answer(self, short_strip):
        both = minimize_quotient(short_strip, 4.0, STRIP_OPTS)
        bump = minimize_quotient(short_strip, 4.0,
                                 dataclasses.replace(STRIP_OPTS, restarts=0))
        assert both.restart_exits == ["grad_tol", "outpaced"]
        assert both.restart_iterations[1] < STRIP_OPTS.max_iters
        assert both.restart_values[1] > both.restart_values[0] + mz._TIE
        assert both.lam == bump.lam
        assert np.array_equal(both.psi.values, bump.psi.values)
        assert both.converged and bump.converged
        assert both.grad_norm == bump.grad_norm

    def test_first_start_is_never_cut(self, short_strip):
        bump = dz.gaussian_bump(short_strip.grid, np.zeros(2), 1.0)
        x0 = np.random.default_rng(3).standard_normal(short_strip.n)
        opts = dataclasses.replace(STRIP_OPTS, max_iters=300)
        first = minimize_quotient(short_strip, 4.0,
                                  dataclasses.replace(opts, inits=(x0, bump)))
        second = minimize_quotient(short_strip, 4.0,
                                   dataclasses.replace(opts, inits=(bump, x0)))
        # no start has converged before the first one: nothing to outpace
        assert first.restart_exits == ["cap", "grad_tol"]
        assert second.restart_exits == ["grad_tol", "outpaced"]

    @pytest.mark.usefixtures("fresh_reference")
    def test_straight_reference_work(self, monkeypatch):
        iterations = []

        def counting(form, p, opts):
            res = minimize_quotient(form, p, opts)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(wg, "minimize_quotient", counting)
        wg.straight_reference(4.0)
        # two truncations; unless it is outpaced, the off-center random
        # start at s_halfwidth = 12 runs to its 3,000-iteration cap
        assert len(iterations) == 2
        assert sum(iterations) <= 400


class TestHotPath:
    def test_line_energy(self, magnetic_2d, rng):
        _, _, f = magnetic_2d
        K = f.K
        x = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        d = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        Q = float(np.real(np.vdot(x, K @ x)))
        dKx = float(np.real(np.vdot(d, K @ x)))
        dKd = float(np.real(np.vdot(d, K @ d)))
        for a in (1e-6, 0.3, 5.0):
            xa = x - a * d
            direct = float(np.real(np.vdot(xa, K @ xa)))
            line = mz._line_energy(Q, dKx, dKd, a)
            assert abs(line - direct) <= 1e-12 * abs(direct)

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
        K, lu = CountingMatrix(f.K), CountingLU(f.preconditioner())
        form = dataclasses.replace(f, K=K, _prec=lu)
        x0 = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        hist = []
        _, _, its, stop = mz._descend(form, x0, 4.0, MinimizeOptions(max_iters=40),
                                      history=hist)
        assert stop.reason == "cap"
        steps = len(hist) - 1               # accepted steps
        trials = len(norms) - 1             # line-search trials
        assert steps == its == 40
        assert trials > steps               # the run did backtrack
        assert lu.solves == steps + 1       # one per iterate, none per trial
        assert K.matvecs <= 2 * its + 1
