"""Two-scale sliding partitions: quadratic sum, gradient bounds, selection."""

import numpy as np
import pytest

from semisobolev import geometry as ge
from semisobolev import discretize as dz
from semisobolev import partition as pt
from semisobolev.errors import InvalidScales


@pytest.fixture(scope="module")
def box_form():
    spec = ge.GeometrySpec(domain=ge.plane(3.0), V=1.0, gamma=0.0)
    grid = dz.build_grid(spec, 0.06)
    return spec, grid, dz.assemble(spec, 0.1, grid)


@pytest.fixture(scope="module")
def localized_field(box_form):
    _, grid, _ = box_form
    rng = np.random.default_rng(11)
    psi = dz.gaussian_bump(grid, (0.2, -0.1), 0.8)
    return dz.WaveFunction(grid,
                           psi.values * (1.0 + 0.3 * rng.standard_normal(grid.n_nodes)))


class TestFamily:
    def test_invalid_scales(self):
        with pytest.raises(InvalidScales):
            pt.build_partition(0.2, 0.5, 0.1, 1)
        with pytest.raises(InvalidScales):
            pt.build_partition(0.5, 0.3, 1.5, 1)

    def test_template_plateau_and_support(self):
        fam = pt.build_partition(0.5, 1.0 / 3.0, 0.1, 1)
        x = np.linspace(-fam.plateau, fam.plateau, 11)
        assert np.all(fam.template(x) == 1.0)
        beyond = fam.plateau + fam.layer
        assert np.all(fam.template(np.array([beyond, beyond + 0.1, -beyond])) == 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_quadratic_sum_identity(self, dim, rng):
        fam = pt.build_partition(0.5, 1.0 / 3.0, 0.1, dim,
                                 tau=rng.uniform(0, 1, dim))
        pts = rng.uniform(-4, 4, size=(10000, dim))
        assert np.abs(fam.overlap(pts) - 1.0).max() <= 1e-12

    def test_gradient_bound_h_independent(self, rng):
        pts = rng.uniform(-2, 2, size=(4000, 2))
        consts = []
        for h in (0.1, 0.05, 0.025):
            fam = pt.build_partition(0.5, 1.0 / 3.0, h, 2)
            consts.append(fam.grad_sq_sum(pts).max() * h ** (2 * 0.5))
        consts = np.array(consts)
        assert consts.max() / consts.min() <= 1.2
        assert consts.max() <= 50.0

    def test_cell_gradient_mass_scaling(self):
        alpha, rho, d = 0.5, 1.0 / 3.0, 2
        consts = []
        for h in (0.1, 0.05, 0.025):
            fam = pt.build_partition(alpha, rho, h, d)
            consts.append(fam.cell_grad_mass() / (h ** (rho * d) * h ** (-alpha - rho)))
        consts = np.array(consts)
        assert consts.max() / consts.min() <= 1.6
        assert consts.max() <= 200.0

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0, 17.3])
    def test_template_integrals_match_adaptive_quadrature(self, p):
        from scipy.integrate import quad
        fam = pt.build_partition(0.5, 1.0 / 3.0, 0.1, 1)
        ramp = quad(lambda t: np.cos(0.5 * np.pi * pt._smoothstep(t)) ** p,
                    0.0, 1.0, epsabs=1e-14)[0]
        lp = 2.0 * fam.plateau + 2.0 * fam.layer * ramp
        assert abs(fam.template_lp_mass(p) - lp) <= 1e-13 * lp
        grad = quad(lambda t: (0.5 * np.pi * pt._smoothstep_d(t)
                               * np.sin(0.5 * np.pi * pt._smoothstep(t))) ** 2,
                    0.0, 1.0, epsabs=1e-14)[0] * 2.0 / fam.layer
        assert abs(fam.template_grad_mass() - grad) <= 1e-13 * grad
        # chi^2 ramps pair with their mirror images to 1: one period exactly
        assert fam.template_lp_mass(2.0) == pytest.approx(
            2.0 * fam.plateau + fam.layer, rel=1e-15)

    def test_translation_covariance(self):
        fam0 = pt.build_partition(0.5, 1.0 / 3.0, 0.1, 1, tau=(0.0,))
        fam1 = pt.build_partition(0.5, 1.0 / 3.0, 0.1, 1, tau=(0.3,))
        x = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(fam1.cell_values(x[:, None], (0,)),
                                   fam0.cell_values((x - 0.3)[:, None], (0,)),
                                   atol=1e-14)


class TestIMS:
    def test_identity_exact(self, box_form, localized_field):
        _, grid, form = box_form
        fam = pt.build_partition(0.5, 1.0 / 3.0, form.h, 2, tau=(0.07, 0.13))
        defect = pt.ims_identity_defect(form, localized_field, fam)
        assert defect <= 1e-10

    def test_identity_magnetic(self, rng):
        spec = ge.GeometrySpec(domain=ge.plane(2.0), V=0.0,
                               A=ge.symmetric_gauge(1.0))
        grid = dz.build_grid(spec, 0.08)
        form = dz.assemble(spec, 0.2, grid)
        psi = dz.random_field(grid, rng)
        fam = pt.build_partition(0.5, 0.4, 0.2, 2, tau=(0.02, -0.05))
        assert pt.ims_identity_defect(form, psi, fam) <= 1e-10


class TestTranslationSelection:
    def test_constant_field_accepts_everything(self, box_form):
        _, grid, form = box_form
        ones = dz.WaveFunction(grid, np.ones(grid.n_nodes))
        rep = pt.find_translation(form, ones, 0.5, 1.0 / 3.0, 4.0,
                                  n_samples=40, seed=2)
        assert rep.fraction == 1.0

    def test_localized_field_fraction(self, box_form, localized_field):
        _, _, form = box_form
        rep = pt.find_translation(form, localized_field, 0.5, 1.0 / 3.0, 4.0,
                                  n_samples=200, seed=3)
        assert rep.fraction >= 1.0 / 3.0 - 0.05
        assert rep.accepted >= 1
        assert rep.tau.shape == (2,)

    def test_each_field_is_calibrated_on_itself(self):
        # C'' is 3 times the mean IMS energy defect over the translations
        # the scan draws, normalized by h^{2-rho-alpha} |psi|_2^2: a second
        # field on the same form gets its own constant
        spec = ge.GeometrySpec(domain=ge.plane(2.0), V=1.0, gamma=0.0)
        grid = dz.build_grid(spec, 0.1)
        form = dz.assemble(spec, 0.1, grid)
        alpha, rho, n, seed = 0.5, 1.0 / 3.0, 10, 1
        rng = np.random.default_rng(5)
        fields = [dz.WaveFunction(grid, dz.gaussian_bump(grid, c, w).values
                                  * (1.0 + 0.3 * rng.standard_normal(grid.n_nodes)))
                  for c, w in (((0.2, -0.1), 0.8), ((-0.4, 0.3), 0.4))]
        step = pt.build_partition(alpha, rho, form.h, 2).step
        taus = np.random.default_rng(seed).uniform(0.0, step, size=(n, 2))
        consts = []
        for psi in fields:
            mean = np.mean([pt._ims_remainder(
                form, psi, pt.build_partition(alpha, rho, form.h, 2, tau=tau))
                for tau in taus])
            c = (3.0 * max(mean, 0.0) / (form.h ** (2.0 - rho - alpha)
                                         * psi.norm_lp(2.0) ** 2) + 1e-12)
            rep = pt.find_translation(form, psi, alpha, rho, 4.0,
                                      n_samples=n, seed=seed)
            assert rep.c_energy == (3.0 * c if rep.rescaled else c)
            consts.append(c)
        assert consts[0] != pytest.approx(consts[1], rel=1e-3)

    def test_defect_signs(self, box_form, localized_field):
        # localized L^p mass never exceeds the total (quadratic partition),
        # and the tensor overlap the scan uses gives the cell-by-cell mass
        _, grid, form = box_form
        fam = pt.build_partition(0.5, 1.0 / 3.0, form.h, 2, tau=(0.1, 0.1))
        w, v = grid.weight, localized_field.values
        bounds = [(c.min(), c.max()) for c in grid.points.T]
        loc = sum(float(w @ np.abs(fam.cell_values(grid.points, k) * v) ** 4)
                  for k in fam.cells_for_box(bounds))
        assert loc <= localized_field.norm_lp(4.0) ** 4 + 1e-12
        mass = float((w * np.abs(v) ** 4) @ fam.overlap(grid.points, q=4.0))
        assert abs(mass - loc) <= 1e-12
