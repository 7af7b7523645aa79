"""Homogeneous model constants and the concentration function."""

import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semisobolev import asymptotics
from semisobolev import discretize as dz
from semisobolev import geometry as ge
from semisobolev import minimize as mz
from semisobolev import model1d as m1
from semisobolev import models
from semisobolev import waveguide as wg
from semisobolev.config import load_geometry
from semisobolev.errors import AssumptionViolated, LatticeOutOfRange
from semisobolev.minimize import MinimizeOptions, minimize_quotient

BOX_CFG = str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
              / "box.cfg")
# Townes mass N_c = ||Q||_2^2 of the 2D ground state -Delta Q + Q = Q^3
# (Weinstein, CMP 87, 1983): the p = 4 whole-plane constant is (2 N_c)^{1/2}
TOWNES_MASS = 11.700896524559647


class TestInteriorConstant:
    def test_p2_landau(self):
        assert models.interior_constant(1.0, 0.0, 2.0) == pytest.approx(1.0)
        assert models.interior_constant(0.7, 0.25, 2.0) == pytest.approx(0.95)

    def test_p2_pure_potential(self):
        assert models.interior_constant(0.0, 2.5, 2.0, dim=2) == pytest.approx(2.5)

    def test_not_positive(self):
        # the p = 2 value is returned whatever its sign, as in
        # boundary_constant; at p > 2 a non-positive one raises
        assert models.interior_constant(0.0, -0.5, 2.0, dim=2) == -0.5
        with pytest.raises(AssumptionViolated):
            models.interior_constant(0.0, -0.5, 4.0, dim=2)
        with pytest.raises(AssumptionViolated):
            models.interior_constant(0.0, 0.0, 4.0, dim=1)

    def test_field_is_a_nonnegative_scalar(self):
        with pytest.raises(ValueError):
            models.interior_constant(0.5, 1.0, 4.0, dim=1)
        with pytest.raises(ValueError):
            models.boundary_constant(0.5, 1.0, 0.0, 4.0, dim=1)
        with pytest.raises(ValueError):
            models.interior_constant(-1.0, 1.0, 2.0)

    def test_d1_p4_is_soliton_line(self):
        v = models.interior_constant(0.0, 1.0, 4.0, dim=1)
        assert v == pytest.approx(m1.soliton_line(4.0), rel=1e-12)

    def test_scaling_consistency_direct_solve(self):
        # the V-scaling shortcut agrees with a direct radial solve: at V = 2
        # the lattice is the V = 1 lattice zoomed by 1/sqrt(2), so the
        # scaling holds to rounding
        fast = models.interior_constant(0.0, 2.0, 4.0, dim=2)
        direct = models._radial_value(4.0, 0.0, 2.0)
        assert fast == pytest.approx(direct, rel=1e-12)

    def test_radial_value_is_second_order_to_townes(self, monkeypatch):
        # the radial lattice at dr = 1/50 and 1/100 of the model scale:
        # the error falls fourfold, and Richardson meets Townes to 1e-7
        exact = math.sqrt(2.0 * TOWNES_MASS)
        lams = []
        for steps in (50, 100):
            monkeypatch.setattr(models, "_cache", {})
            monkeypatch.setattr(models, "_RADIAL_STEPS", steps)
            lams.append(models._radial_value(4.0, 0.0, 1.0))
        coarse, fine = lams
        assert math.log2((coarse - exact) / (fine - exact)) >= 1.9
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-7

    @pytest.mark.parametrize("v", [-0.9, 0.0, 1.0, 5.0])
    def test_radial_field_term_gives_landau(self, v):
        # at p = 2 the radial form with potential v + r^2/4 has the Landau
        # ground state e^{-r^2/4} at energy 1 + v
        lam = models._radial_value(2.0, 1.0, v)
        assert lam == pytest.approx(1.0 + v, abs=1e-5)

    @pytest.mark.parametrize("p, v", [(2.5, 0.0), (4.0, -0.9), (4.0, 1.0),
                                      (10.0, 1.0)])
    def test_radial_value_meets_the_landau_lattice(self, p, v, monkeypatch):
        # the magnetic radial value at dr and dr/2 against the 2-D Landau
        # lattice at scale/8 and scale/16 on plane(5 scale): the Richardson
        # values agree to 5e-4, and the lattice, low by its mesh error, is
        # not above the radial upper bound.  At p = 10 the minimizer is too
        # peaked for Richardson at these spacings (radial 4.44455, lattice
        # 4.00898 and 4.40474), so only the one-sided bound is checked: the
        # lattice rises with refinement and stays below the radial value
        scale = 1.0 / math.sqrt(1.0 + max(v, 0.0))
        radial = []
        for steps in (100, 200):
            monkeypatch.setattr(models, "_cache", {})
            monkeypatch.setattr(models, "_RADIAL_STEPS", steps)
            radial.append(models._radial_value(p, 1.0, v))
        spec = ge.GeometrySpec(domain=ge.plane(5.0 * scale), V=v,
                               A=ge.landau_gauge(1.0), gamma=0.0)
        opts = MinimizeOptions(grad_tol=1e-7, restarts=0,
                               centers=((0.0, 0.0),))
        lattice = []
        for n in (8, 16):
            form = dz.assemble(spec, 1.0, dz.build_grid(spec, scale / n))
            res = minimize_quotient(form, p, opts)
            assert res.converged
            lattice.append(res.lam)
        assert lattice[1] <= radial[0]
        if p == 10.0:
            assert lattice[0] < lattice[1]
            return
        richardson = [(4.0 * fine - coarse) / 3.0
                      for coarse, fine in (radial, lattice)]
        assert richardson[0] == pytest.approx(richardson[1], rel=5e-4)


class TestBoundaryConstant:
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("c", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_d1_closed_forms(self, c, p):
        # V = 2.5 exercises the zoom scaling V^e, e = 1 - d/2 + d/p
        e = 0.5 + 1.0 / p
        for V in (1.0, 2.5):
            b = models.boundary_constant(0.0, V, c * math.sqrt(V), p, dim=1)
            assert b == pytest.approx(V ** e * m1.lambda_c(c, p), rel=1e-12)
            i = models.interior_constant(0.0, V, p, dim=1)
            assert i == pytest.approx(V ** e * m1.soliton_line(p), rel=1e-12)

    @pytest.mark.parametrize("c", [-0.4, 0.0, 0.3])
    def test_d1_matches_model1d(self, c):
        b = models.boundary_constant(0.0, 1.0, c, 4.0, dim=1)
        assert b == pytest.approx(m1.lambda_c(c, 4.0), rel=1e-12)

    @pytest.mark.parametrize("V, gamma", [(1.0, -1.2), (1.0, -1.0), (-0.5, 0.0),
                                          (0.0, 0.3)])
    def test_d1_not_positive(self, V, gamma):
        # gamma <= -sqrt(V) or V <= 0: no positive constant
        with pytest.raises(AssumptionViolated):
            models.boundary_constant(0.0, V, gamma, 4.0, dim=1)

    @pytest.mark.parametrize("V, gamma", [(1.0, -1.2), (1.0, -1.0), (-0.5, 0.3),
                                          (0.0, 0.3)])
    def test_d2_not_positive(self, V, gamma, monkeypatch):
        # the same bound as in d = 1, raised before any lattice is built
        monkeypatch.setattr(models, "_grid_value", None)
        with pytest.raises(AssumptionViolated):
            models.boundary_constant(0.0, V, gamma, 4.0, dim=2)

    @pytest.mark.usefixtures("fresh_reference")
    @pytest.mark.parametrize("V", [-1.0, -0.7])
    def test_d2_magnetic_not_positive(self, V):
        # at b = 1 the p = 2 half-plane lattice value is not positive, also
        # where b + V is (-0.0859 at V = -0.7): p = 4 raises, solving no
        # p = 4 lattice, where it returned -1.87215 and -0.38336
        assert models.boundary_constant(1.0, V, 0.0, 2.0) <= 0.0
        with pytest.raises(AssumptionViolated):
            models.boundary_constant(1.0, V, 0.0, 4.0)
        assert [key[1] for key in models._cache] == [2.0]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("V, gamma, value", [
        (-0.5, 0.3, -0.5), (-0.5, -0.3, -0.59), (1.0, -1.5, -1.25),
        (1.0, -1.0, 0.0), (0.0, 0.3, 0.0)])
    def test_p2_closed_form_not_positive(self, V, gamma, value, dim):
        # V0 - gamma0^2 for gamma0 < 0, V0 otherwise, whatever the sign
        lam = models.boundary_constant(0.0, V, gamma, 2.0, dim=dim)
        assert lam == pytest.approx(value, rel=1e-15, abs=1e-15)

    def test_d2_neumann_flat(self):
        assert models.boundary_constant(0.0, 1.0, 0.0, 2.0, dim=2) == pytest.approx(1.0)

    def test_d2_p2_negative_gamma_closed_form(self):
        v = models.boundary_constant(0.0, 1.0, -0.5, 2.0, dim=2)
        assert v == pytest.approx(0.75)

    def test_d2_magnetic_between_bounds(self):
        for b in (0.6, 1.0):
            lam = models.boundary_constant(b, 0.0, 0.0, 2.0, dim=2)
            # Theta0 |b| from below (the d = 2 Neumann half-plane bound)
            assert ge.de_gennes_constant() * b <= lam * 1.02
            assert lam <= b * 1.02   # Tr+ B from above
            assert abs(lam - ge.de_gennes_constant() * b) <= 0.03 * b

    def test_gamma_monotone_and_concave_d1(self):
        gammas = np.linspace(-0.9, 0.9, 9)
        vals = np.array([models.boundary_constant(0.0, 1.0, g, 4.0, dim=1)
                         for g in gammas])
        assert np.all(np.diff(vals) > 0.0)
        # lambda_c = 2 (2/3 + c - c^3/3)^{1/2} at p = 4 is concave here
        assert np.all(np.diff(vals, 2) < 0.0)

    def test_boundary_below_interior(self):
        for c in (-0.5, 0.0, 0.5):
            bd = models.boundary_constant(0.0, 1.0, c, 4.0, dim=1)
            it = models.interior_constant(0.0, 1.0, 4.0, dim=1)
            assert bd < it

    def test_d2_field_free_below_interior(self):
        # at large gamma the truncated half plane squeezes its minimizer
        # against the truncation (4.86443 at b = 0, gamma = 1.5; 5.39207
        # at b = 1, gamma = 3); the constant is capped by the interior one
        # at the same b and V, so it does not fall as gamma grows
        for b, gammas in ((0.0, (1.0, 1.5)), (1.0, (1.0, 3.0))):
            interior = models.interior_constant(b, 1.0, 4.0)
            low, high = (models.boundary_constant(b, 1.0, g, 4.0)
                         for g in gammas)
            assert high <= interior
            assert low <= high

    def test_neumann_half_plane_lattice_agrees(self):
        # the reflected radial value against the 2-D half-plane lattice
        lattice = models._half_space_value(4.0, 0.0, 1.0, 0.0)
        radial = models.boundary_constant(0.0, 1.0, 0.0, 4.0)
        assert lattice == pytest.approx(radial, rel=1e-3)

    def test_robin_layer_spaces_the_normal_axis_only(self, monkeypatch):
        # gamma = 100: the Robin layer of depth 1/101 sets the normal
        # spacing 1/1010, the boundary axis keeps scale/12; 193 x 5,051
        # nodes, where one spacing for both axes gave 81.6M
        lattices = []

        def stub(key, form, spacing, centers=()):
            if key[0] != "rad":     # the p > 2 interior cap is a 1-D form
                form(spacing)
            return 1.0

        monkeypatch.setattr(models, "_grid_value", stub)
        monkeypatch.setattr(models, "build_grid", lambda spec, spacing: (
            lattices.append((spec.domain, spacing))))
        monkeypatch.setattr(models, "assemble", lambda spec, h, grid: None)
        models.boundary_constant(0.0, 1.0, 100.0, 4.0)
        (dom, spacing), = [(d, s) for d, s in lattices if d.dim == 2]
        assert spacing == pytest.approx((1.0 / 12.0, 1.0 / 1010.0), rel=1e-12)
        counts = [round((hi - lo) / s) + 1
                  for (lo, hi), s in zip(dom.bounds, spacing)]
        assert counts == [193, 5051]
        assert math.prod(counts) <= dz._MAX_NODES

    def test_oversized_model_lattice_is_refused(self):
        # gamma = 1e4 sizes the half-plane model at 96.5M nodes: the grid
        # builder raises before it allocates any per-node array
        tracemalloc.start()
        try:
            with pytest.raises(LatticeOutOfRange, match="nodes"):
                models.boundary_constant(0.0, 1.0, 1e4, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestIntBord:
    """Boundary against interior constants: the paper's comparison."""

    def test_d1_neumann_halving(self):
        boundary = models.boundary_constant(0.0, 1.0, 0.0, 4.0, dim=1)
        interior = models.interior_constant(0.0, 1.0, 4.0, dim=1)
        assert boundary < interior
        assert_allclose(boundary / interior, 2.0 ** (-0.5), rtol=1e-12)

    def test_symmetrization_bound(self):
        # boundary = 2^{2/p-1} interior at gamma = 0 with B = 0: the
        # radial minimizer reflects evenly across the boundary
        for p in (3.0, 4.0, 6.0):
            boundary = models.boundary_constant(0.0, 1.0, 0.0, p, dim=2)
            interior = models.interior_constant(0.0, 1.0, p, dim=2)
            assert boundary == pytest.approx(
                2.0 ** (2.0 / p - 1.0) * interior, rel=1e-12)

    def test_escape_for_large_gamma(self):
        # for gamma >= 1 the half-line minimizing sequence escapes to
        # infinity, and the infimum is the whole-line soliton value
        for p in (3.0, 4.0, 6.0):
            boundary = models.boundary_constant(0.0, 1.0, 1.5, p, dim=1)
            assert boundary == m1.soliton_line(p)


class TestConcentrationMap:
    def test_constant_geometry_all_argmin(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=None or 0.0,
                               A=ge.symmetric_gauge(1.0),
                               B=lambda pts: np.ones(len(np.atleast_2d(pts))))
        pts = [(0.0, 0.0), (0.3, 0.0), (0.0, -0.4)]
        cmap = models.concentration_map(spec, pts, 2.0)
        assert len(cmap.argmin) == 3
        for s in cmap.samples:
            assert s.value == pytest.approx(2.0)  # Tr+ B + V = 1 + 1

    def test_variable_field_argmin_at_center(self):
        def Bfield(pts):
            pts = np.atleast_2d(pts)
            return 1.0 + pts[:, 0] ** 2

        def A(pts):
            pts = np.atleast_2d(pts)
            out = np.zeros_like(pts)
            out[:, 1] = pts[:, 0] + pts[:, 0] ** 3 / 3.0
            return out

        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=0.0, A=A, B=Bfield)
        pts = [(0.0, 0.0), (0.5, 0.0), (0.8, 0.0), (-0.6, 0.1)]
        cmap = models.concentration_map(spec, pts, 2.0)
        assert len(cmap.argmin) == 1
        assert_allclose(cmap.argmin[0].x, [0.0, 0.0])
        assert cmap.inf_value == pytest.approx(1.0)

    def test_boundary_dip_attracts(self):
        # strongly negative gamma on one arc pulls the boundary constants
        # below every interior value
        def gam(pts):
            pts = np.atleast_2d(pts)
            th = np.arctan2(pts[:, 1], pts[:, 0])
            return -0.1 - 0.8 * np.exp(-(th / 0.5) ** 2)

        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=gam)
        pts = [(0.0, 0.0), (0.4, 0.2), (1.0, 0.0), (0.0, 1.0)]
        cmap = models.concentration_map(spec, pts, 4.0)
        kinds = {tuple(s.x): s for s in cmap.samples}
        assert kinds[(1.0, 0.0)].kind == "boundary"
        assert kinds[(0.0, 1.0)].kind == "boundary"
        assert all(s.kind == "boundary" for s in cmap.argmin)
        assert kinds[(1.0, 0.0)].value < kinds[(0.0, 1.0)].value
        assert all(s.converged for s in cmap.samples)

    def test_assumption_violated(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=-1.0, gamma=0.0)
        with pytest.raises(AssumptionViolated):
            models.concentration_map(spec, [(0.0, 0.0)], 4.0)

    def test_assumption_violated_reports_the_value(self):
        # the boundary p = 2 value at V = 1, gamma = -1.5 is 1 - 2.25
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=-1.5)
        with pytest.raises(AssumptionViolated, match=r"-1\.250e\+00"):
            models.concentration_map(spec, [(0.0, 0.0), (1.0, 0.0)], 4.0)

    def test_assumption_is_checked_before_any_p_above_2(self, monkeypatch):
        # every p = 2 value comes first: the interior sample's p = 4
        # constant, a radial solve, is never reached, and x prints as floats
        monkeypatch.setattr(models, "_grid_value", None)
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=-1.5)
        with pytest.raises(AssumptionViolated, match=r"at x=\(1\.0, 0\.0\)"):
            models.concentration_map(spec, [(0.0, 0.0), (1.0, 0.0)], 4.0)

    def test_outside_mask(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=0.0)
        cmap = models.concentration_map(spec, [(0.0, 0.0)], 2.0)
        # M_eps is the disk of radius _EPS = 0.2 about the one sample
        pts = np.array([[0.1, 0.0], [0.19, 0.0], [0.21, 0.0], [0.5, 0.0]])
        out = cmap.outside_m_eps(pts)
        assert list(out) == [False, False, True, True]


class TestCache:
    @pytest.mark.parametrize("converged", [False, True])
    def test_only_converged_values_are_cached(self, converged, monkeypatch):
        calls = []

        def fake_minimize(form, p, opts, coarse=None, start=None):
            # a bump at the origin, which the reference's tail check reads
            calls.append(p)
            psi = dz.gaussian_bump(form.grid, np.zeros(form.grid.dim), 1.0)
            return types.SimpleNamespace(lam=1.25, converged=converged,
                                         psi=psi)

        monkeypatch.setattr(models, "_cache", {})
        monkeypatch.setattr(models, "_unconverged", 0)
        monkeypatch.setattr(mz, "minimize_quotient", fake_minimize)
        # the straight-strip reference shares the memo, one solve a call
        for _ in range(2):
            assert models._radial_value(4.0, 0.0, 1.0) == 1.25
            assert models._half_space_value(4.0, 0.0, 1.0, 0.0) == 1.25
            assert wg.straight_reference(4.0) == 1.25
        assert len(models._cache) == (3 if converged else 0)
        # only the reference keeps its field, the start of the rungs
        assert [r.psi is None for r in models._cache.values()] == (
            [True, True, False] if converged else [])
        assert len(calls) == (3 if converged else 6)
        assert models._unconverged == (0 if converged else 6)

    def test_one_solve_per_key_whatever_the_environment(self, monkeypatch):
        # the magnetic box has one boundary key at p = 2, the constant
        # field at gamma = 0; its 16 edge samples solve it once and the
        # interior samples take the Landau value.  At p = 4 the p = 2 and
        # p = 4 boundary keys are the two 2-D lattices, and every interior
        # sample and the boundary cap share one radial form
        calls = []
        real = mz.minimize_quotient

        def counting(form, p, opts=None, coarse=None, start=None):
            calls.append(form.grid.dim)
            return real(form, p, opts, coarse, start)

        monkeypatch.setattr(mz, "minimize_quotient", counting)
        spec, _ = load_geometry(BOX_CFG)
        for p, dims in ((2.0, [2]), (4.0, [1, 2, 2])):
            monkeypatch.setattr(models, "_cache", {})
            calls.clear()
            cmap = models.concentration_map(
                spec, asymptotics.default_sample_points(spec), p)
            assert sum(s.kind == "boundary" for s in cmap.samples) == 16
            assert sorted(calls) == dims


class TestFourierPath:
    """The magnetic half-plane models are built in Landau gauge, so their
    lattices take the exact Fourier-capacitance preconditioner, and its
    constants equal the SuperLU ones within the solve tolerance."""

    def test_model_lattices_take_the_fourier_path(self, monkeypatch):
        forms = []

        def coarse(key, form, spacing, centers=()):
            if key[0] != "rad":     # the p > 2 interior cap is a 1-D form
                forms.append(form(np.multiply(4, spacing)))
            return 1.0

        monkeypatch.setattr(models, "_grid_value", coarse)
        # the p = 4 call builds its p = 2 key too, whose sign it checks
        models.boundary_constant(1.0, 1.0, -0.3, 4.0)
        models.boundary_constant(1.0, 1.0, 0.0, 2.0)
        assert len(forms) == 3
        for form in forms:
            assert form.is_complex
            assert isinstance(form.preconditioner(), dz._FourierSolve)

    @pytest.mark.parametrize("kind, p, gamma", [
        ("half", 2.0, 0.0), ("half", 2.0, -0.3), ("half", 4.0, 0.0),
        ("whole", 4.0, 0.0)])
    def test_constant_equals_superlu(self, kind, p, gamma, monkeypatch):
        # b = 1, V = 1 on test-size versions of the model lattices
        dom = ge.half_plane(4.0, 5.0) if kind == "half" else ge.plane(4.0)
        spec = ge.GeometrySpec(domain=dom, V=1.0, A=ge.landau_gauge(1.0),
                               gamma=gamma)
        opts = MinimizeOptions(grad_tol=1e-7, restarts=1,
                               centers=((0.0, 0.0),) if kind == "half" else ())

        def solve():
            form = dz.assemble(spec, 1.0, dz.build_grid(spec, 0.15))
            return minimize_quotient(form, p, opts), form.preconditioner()

        fourier, prec = solve()
        assert isinstance(prec, dz._FourierSolve)
        monkeypatch.setattr(dz._FourierSolve, "build", lambda *args: None)
        superlu, prec = solve()
        assert not isinstance(prec, dz._FourierSolve)
        assert fourier.converged and superlu.converged
        assert abs(fourier.lam - superlu.lam) <= opts.grad_tol * superlu.lam
