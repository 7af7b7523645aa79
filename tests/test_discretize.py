"""Lattice discretization: grids, links, gauge covariance, diamagnetism."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.integrate import dblquad, quad

from semisobolev import geometry as ge
from semisobolev import discretize as dz
from semisobolev import waveguide as wg
from semisobolev.config import parse_geometry
from semisobolev.errors import LatticeOutOfRange, ZeroFunction


@pytest.fixture(scope="module")
def magnetic_form():
    spec = ge.GeometrySpec(domain=ge.half_plane(3.0), V=0.5,
                           A=ge.symmetric_gauge(1.0),
                           gamma=-0.3)
    grid = dz.build_grid(spec, 0.1)
    return spec, grid, dz.assemble(spec, 0.5, grid)


def _robin(g):
    """The Robin nodes: free nodes with surface weight."""
    return g.free & (g.surface_weight > 0.0)


class TestGrids:
    def test_unit_square(self):
        spec = ge.GeometrySpec(domain=ge.rectangle(((0, 1), (0, 1))))
        g = dz.build_grid(spec, 0.1)
        assert g.n_nodes == 121
        assert int(_robin(g).sum()) == 40
        assert abs(g.weight.sum() - 1.0) <= 1e-12
        assert abs(g.surface_weight.sum() - 4.0) <= 1e-12

    def test_half_space_one_robin_face(self):
        spec = ge.GeometrySpec(domain=ge.half_plane(2.0, 2.0))
        g = dz.build_grid(spec, 0.25)
        assert np.any(_robin(g)) and not np.all(g.free)
        robin_pts = g.points[_robin(g)]
        assert np.all(robin_pts[:, 1] == 0.0)
        # truncation corners of the robin face are pinned, not robin
        assert not np.any(np.abs(robin_pts[:, 0]) == 2.0)

    def test_1d_half_line(self):
        spec = ge.GeometrySpec(domain=ge.half_line(5.0))
        g = dz.build_grid(spec, 0.05)
        assert _robin(g)[0] and not g.free[-1]
        assert abs(g.weight.sum() - 5.0) <= 1e-12

    def test_disk_area_and_perimeter(self):
        spec = ge.GeometrySpec(domain=ge.disk(1.0, (0.3, -0.2)))
        g = dz.build_grid(spec, 0.04)
        assert abs(g.weight.sum() - math.pi) <= 1e-10
        assert abs(g.surface_weight.sum() - 2 * math.pi) <= 1e-10

    @pytest.mark.parametrize("R, center, s", [
        (1.0, (0.3, -0.2), 0.13), (0.77, (-0.4, 0.25), 0.1),
        (1.3, (0.05, 0.6), 0.17)])
    def test_disk_weights_cell_by_cell(self, R, center, s):
        # every lattice cell the rim cuts: the closed form against quad of
        # the cell's clipped chord length; then the weights against the
        # hand-off of each excluded cell's area to its nearest included
        # 3 x 3 neighbour (the first in row-major order on ties), cell by
        # cell
        g = dz.build_grid(ge.GeometrySpec(domain=ge.disk(R, center)), s)
        n = int(math.ceil(R / s)) + 1
        X, Y = np.meshgrid(center[0] + s * np.arange(-n, n + 1) - center[0],
                           center[1] + s * np.arange(-n, n + 1) - center[1],
                           indexing="ij")
        r = np.hypot(X, Y)
        inside = r <= R + 1e-12 * R

        def chord(u, v0, v1):
            root = math.sqrt(max(R * R - u * u, 0.0))
            return max(0.0, min(v1, root) - max(v0, -root))

        def A(u, v):
            return dz._lower_left_area(u, v, R)

        area = np.zeros(r.shape)
        signs = set()
        for (i, j), x in np.ndenumerate(X):
            y = Y[i, j]
            x0, x1, y0, y1 = x - s / 2, x + s / 2, y - s / 2, y + s / 2
            near = math.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))
            far = max(math.hypot(u, v) for u in (x0, x1) for v in (y0, y1))
            if far <= R:
                area[i, j] = s * s
            if not near < R < far:
                continue
            lo, hi = max(x0, -R), min(x1, R)
            kinks = [k for v in (y0, y1) if abs(v) < R
                     for k in (-math.sqrt(R * R - v * v),
                               math.sqrt(R * R - v * v)) if lo < k < hi]
            area[i, j] = quad(chord, lo, hi, args=(y0, y1), points=kinks or None,
                              epsabs=1e-16, epsrel=1e-13, limit=200)[0]
            closed = A(x1, y1) - A(x0, y1) - A(x1, y0) + A(x0, y0)
            assert abs(closed - area[i, j]) <= 1e-12 * s * s, (x, y)
            signs.add((np.sign(x), np.sign(y)))
        # rim cells in all four quadrants and on both lines through the centre
        assert signs >= {(1, 1), (-1, 1), (-1, -1), (1, -1),
                         (0, 1), (0, -1), (1, 0), (-1, 0)}
        weight = area.copy()
        for i, j in zip(*np.nonzero(~inside & (area > 0.0))):
            _, k, m = min((r[k, m], k, m) for k in (i - 1, i, i + 1)
                          for m in (j - 1, j, j + 1) if inside[k, m])
            weight[k, m] += area[i, j]
        assert_allclose(g.weight, weight[inside], rtol=0.0, atol=1e-12 * s * s)

    def test_lattice_budget(self):
        # the node count is checked before any per-node array exists
        for dom in (ge.plane(3.0), ge.disk(1.0)):
            with pytest.raises(LatticeOutOfRange, match="1e-05"):
                dz.build_grid(ge.GeometrySpec(domain=dom), 1e-5)

    def test_too_small(self):
        spec = ge.GeometrySpec(domain=ge.rectangle(((0, 1), (0, 1))))
        with pytest.raises(LatticeOutOfRange, match="has 3 < 8 nodes"):
            dz.build_grid(spec, 0.4)

    def test_dirichlet_gamma_pins_boundary(self):
        spec, _ = parse_geometry("domain = rectangle\nbounds = 0 1 0 1\n"
                                 "gamma = dirichlet\n")
        g = dz.build_grid(spec, 0.1)
        assert not np.any(_robin(g))


class TestLinkPhase:
    def test_zero_field(self):
        th = dz.link_phase(None, [[0.0, 0.0]], [[0.1, 0.0]], 0.5)
        assert th[0] == 0.0

    def test_constant_potential_exact(self):
        A = lambda pts: np.tile([0.7, -0.4], (len(np.atleast_2d(pts)), 1))
        th = dz.link_phase(A, [[0.2, 0.3]], [[0.2 + 0.05, 0.3]], 0.25)
        assert_allclose(th[0], 0.7 * 0.05 / 0.25, rtol=1e-14)

    def test_linear_potential_matches_gauss_quadrature(self, rng):
        A = ge.symmetric_gauge(1.0)
        a = rng.uniform(-1, 1, size=(20, 2))
        b = a + 0.01 * rng.standard_normal((20, 2))
        th = dz.link_phase(A, a, b, 1.0)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = (nodes + 1) / 2
        oracle = np.zeros(20)
        for tk, wk in zip(t, weights / 2):
            pts = a + tk * (b - a)
            oracle += wk * np.einsum("ij,ij->i", A(pts), b - a)
        assert np.abs(th - oracle).max() <= 1e-12


class TestAssembleEvaluate:
    def test_constant_function_neumann_zero_energy(self):
        spec = ge.GeometrySpec(domain=ge.rectangle(((0, 1), (0, 1))))
        g = dz.build_grid(spec, 0.1)
        f = dz.assemble(spec, 1.0, g)
        psi = dz.WaveFunction(g, np.ones(g.n_nodes))
        res = dz.evaluate(f, psi, 2.0)
        assert abs(res.energy) <= 1e-12
        assert res.quotient <= 1e-12

    def test_1d_robin_reproduces_linear_eigenvalue(self):
        from semisobolev.minimize import minimize_quotient
        from semisobolev.models import boundary_constant
        for c in (-0.5, -0.25):
            spec = ge.GeometrySpec(domain=ge.half_line(30.0), V=1.0, gamma=c)
            g = dz.build_grid(spec, 0.01)
            f = dz.assemble(spec, 1.0, g)
            lam = minimize_quotient(f, 2.0).lam
            assert abs(lam - boundary_constant(0.0, 1.0, c, 2.0, dim=1)) <= 5e-5

    def test_zero_function(self):
        spec = ge.GeometrySpec(domain=ge.rectangle(((0, 1), (0, 1))))
        g = dz.build_grid(spec, 0.1)
        f = dz.assemble(spec, 1.0, g)
        with pytest.raises(ZeroFunction):
            dz.evaluate(f, dz.WaveFunction(g, np.zeros(g.n_nodes)), 2.0)

    def test_gaussian_energy_matches_analytic(self):
        # free energy of exp(-|x|^2) on a box that contains its support
        spec = ge.GeometrySpec(domain=ge.plane(5.0), V=0.0)
        exact = dblquad(lambda y, x: 4 * (x * x + y * y) * np.exp(-2 * (x * x + y * y)),
                        -5, 5, -5, 5, epsabs=1e-12)[0]
        errs = []
        for s in (0.1, 0.05):
            g = dz.build_grid(spec, s)
            f = dz.assemble(spec, 1.0, g)
            psi = dz.gaussian_bump(g, (0.0, 0.0), 1.0 / math.sqrt(2.0))
            errs.append(abs(f.energy(psi) - exact))
        assert errs[0] <= 2e-2
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_hermitian_real_energy(self, magnetic_form, rng):
        _, g, f = magnetic_form
        x = f.free_values(dz.random_field(g, rng))
        q = np.vdot(x, f.K @ x)
        assert abs(q.imag) <= 1e-12 * abs(q.real)
        herm = (f.K - f.K.getH()).data
        assert np.abs(herm).max() <= 1e-14 if len(herm) else True

    def test_quotient_mesh_convergence(self):
        # fixed smooth field, Robin box: observed order >= 1.8
        spec = ge.GeometrySpec(domain=ge.rectangle(((0, 1), (0, 1))),
                               V=1.0, gamma=0.4)
        psi_fn = lambda pts: np.exp(pts[:, 0]) * np.cos(1.3 * pts[:, 1])
        vals = []
        for s in (0.04, 0.02, 0.01):
            g = dz.build_grid(spec, s)
            f = dz.assemble(spec, 1.0, g)
            psi = dz.WaveFunction(g, psi_fn(g.points))
            vals.append(dz.evaluate(f, psi, 4.0).quotient)
        rich = vals[2] + (vals[2] - vals[1]) / 3.0
        e1, e2 = abs(vals[1] - rich), abs(vals[2] - rich)
        assert math.log2(e1 / e2) >= 1.8


    @pytest.mark.parametrize("case", ["robin_disk", "landau_rectangle_gauged",
                                      "half_line", "waveguide_strip"])
    def test_energy_is_links_plus_potential_plus_robin(self, case, rng):
        # x^H K x against the edge sum of kinetic_energy and the node sums
        # h V w |x|^2 and h^{3/2} gamma surface_weight |x|^2
        phi = None
        if case == "robin_disk":
            spec = ge.GeometrySpec(domain=ge.disk(1.0, (0.2, -0.1)),
                                   V=lambda x: 1.0 + x[:, 0] * x[:, 1],
                                   gamma=lambda x: -0.5 + 0.2 * x[:, 0])
            h, s = 0.05, 0.04
        elif case == "landau_rectangle_gauged":
            spec = ge.GeometrySpec(domain=ge.rectangle(((-1, 1), (-1, 1.5))),
                                   V=1.0, A=ge.landau_gauge(1.0, 0.3),
                                   gamma=0.4)
            h, s = 0.1, 0.05
            phi = lambda x: np.sin(x[:, 0]) * x[:, 1]
        elif case == "half_line":
            spec = ge.GeometrySpec(domain=ge.half_line(4.0),
                                   V=lambda x: 1.0 + x[:, 0] ** 2, gamma=-0.7)
            h, s = 0.2, 0.01
        if case == "waveguide_strip":
            form = wg.assemble_waveguide_form(wg.gaussian_profile(0.5, 0.0, 1.0),
                                              0.2, 4.0)
            # assembled at h = 1 from the plain strip, V = gamma = 0
            spec = ge.GeometrySpec(domain=form.grid.domain)
        else:
            form = dz.assemble(spec, h, dz.build_grid(spec, s), gauge_phi=phi)
        g = form.grid
        psi = dz.random_field(g, rng)
        x = form.free_values(psi)
        pts, sq = g.points[g.free], np.abs(x) ** 2
        robin = g.surface_weight[g.free] > 0.0
        assert robin.any() == (case != "waveguide_strip")
        expected = (dz.kinetic_energy(form, psi)
                    + np.sum(form.h * spec.v_at(pts) * g.weight[g.free] * sq)
                    + np.sum(form.h ** 1.5 * spec.gamma_at(pts[robin])
                             * g.surface_weight[g.free][robin] * sq[robin]))
        energy = np.vdot(x, form.K @ x)
        assert abs(energy.imag) <= 1e-12 * abs(energy.real)
        assert energy.real == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", [1e14, 1e30, 1e150])
    def test_potential_lost_to_rounding_is_refused(self, h):
        # a Neumann interval with V = 1: at h / s^2 past 1/eps the potential
        # h V w rounds away against h^2 / s, and the form would read 0; at
        # h = 1e14 the Robin term of gamma = 1 would still register at the
        # ends, but gamma = 0 there
        spec = ge.GeometrySpec(domain=ge.interval(-1.0, 1.0, ("robin", "robin")),
                               V=1.0)
        grid = dz.build_grid(spec, 0.02)
        with pytest.raises(LatticeOutOfRange, match="round away"):
            dz.assemble(spec, h, grid)
        # a V below rounding is no error, nor is a form without V and gamma
        tiny = dataclasses.replace(spec, V=1e-300)
        assert dz.assemble(tiny, 1.0, grid).pot_floor > 0.0
        assert dz.assemble(dataclasses.replace(spec, V=0.0), h, grid).n == 101

    def test_robin_term_lost_to_rounding_is_refused(self):
        # V = 0, gamma = 1: h^{3/2} against h^2 / s at the two ends
        spec = ge.GeometrySpec(domain=ge.interval(-1.0, 1.0, ("robin", "robin")),
                               V=0.0, gamma=1.0)
        grid = dz.build_grid(spec, 0.02)
        assert dz.assemble(spec, 1e14, grid).n == 101
        with pytest.raises(LatticeOutOfRange, match="round away"):
            dz.assemble(spec, 1e40, grid)

    def test_overflowing_form_is_refused(self):
        spec = ge.GeometrySpec(domain=ge.interval(-1.0, 1.0, ("robin", "robin")),
                               V=1.0)
        with pytest.raises(LatticeOutOfRange, match="overflows"):
            dz.assemble(spec, 1e155, dz.build_grid(spec, 0.02))

def _preconditioner_form(case):
    """(form, expected path) for TestPreconditioner."""
    if case == "waveguide_strip":
        return wg.assemble_waveguide_form(wg.gaussian_profile(0.5, 0.0, 1.0),
                                          0.2, 4.0)
    if case == "disk":
        spec = ge.GeometrySpec(domain=ge.disk(1.0), V=1.0, gamma=-0.5)
        h, spacing = 0.05, 0.04
    elif case == "magnetic_box":   # symmetric gauge
        spec = ge.GeometrySpec(domain=ge.rectangle(((-1, 1), (-1, 1))),
                               V=1.0, A=ge.symmetric_gauge(1.0))
        h, spacing = 0.1, 0.05
    elif case == "landau_half_plane":
        spec = ge.GeometrySpec(domain=ge.half_plane(3.0), V=0.5,
                               A=ge.landau_gauge(1.0), gamma=-0.3)
        h, spacing = 0.5, 0.1
    elif case == "landau_whole_plane":
        spec = ge.GeometrySpec(domain=ge.plane(3.0), V=1.0,
                               A=ge.landau_gauge(1.0))
        h, spacing = 1.0, 0.1
    elif case == "landau_rectangle":   # Robin on all four faces
        spec = ge.GeometrySpec(domain=ge.rectangle(((-1, 1), (-1, 1.5))),
                               V=1.0, A=ge.landau_gauge(1.0, 0.3), gamma=0.4)
        h, spacing = 0.1, 0.05
    elif case == "landau_box_v_xy":
        spec = ge.GeometrySpec(domain=ge.rectangle(((-1, 1), (-1, 1))),
                               V=lambda pts: 1.0 + pts[:, 0] * pts[:, 1],
                               A=ge.landau_gauge(1.0), gamma=0.3)
        h, spacing = 0.1, 0.05
    elif case == "half_plane":
        spec = ge.GeometrySpec(domain=ge.half_plane(3.0), V=1.0, gamma=-0.5)
        h, spacing = 0.5, 0.1
    elif case == "whole_plane":
        spec = ge.GeometrySpec(domain=ge.plane(3.0), V=1.0)
        h, spacing = 1.0, 0.1
    elif case == "box_v_xy":
        spec = ge.GeometrySpec(domain=ge.rectangle(((-1, 1), (-1, 1))),
                               V=lambda pts: 1.0 + pts[:, 0] * pts[:, 1],
                               gamma=0.3)
        h, spacing = 0.1, 0.05
    else:   # half_plane_gamma_x: gamma varies along the Robin face
        spec = ge.GeometrySpec(domain=ge.half_plane(3.0), V=1.0,
                               gamma=lambda pts: -0.5 + 0.2 * np.sin(pts[:, 0]))
        h, spacing = 0.5, 0.1
    return dz.assemble(spec, h, dz.build_grid(spec, spacing))


TENSOR = ("waveguide_strip", "half_plane", "whole_plane")
FOURIER = ("landau_half_plane", "landau_whole_plane", "landau_rectangle")
SUPERLU = ("disk", "magnetic_box", "box_v_xy", "half_plane_gamma_x",
           "landau_box_v_xy")
COMPLEX = FOURIER + ("magnetic_box", "landau_box_v_xy")


def _shift(f):
    """tau w: P = K + diag(tau w), the preconditioned operator."""
    return f.preconditioner_shift() * f.weight


def _shifted(f):
    return f.K + sp.diags(_shift(f))


class TestPreconditioner:
    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls, real = [], sp.linalg.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sp.linalg, "splu", counting)
        return calls

    @pytest.mark.parametrize("case", TENSOR + FOURIER + SUPERLU)
    def test_solve_residual(self, case, rng, splu_calls):
        f = _preconditioner_form(case)
        assert f.is_complex == (case in COMPLEX)
        P = _shifted(f)
        b = rng.standard_normal(f.n).astype(f.K.dtype)
        if f.is_complex:
            b = b + 1j * rng.standard_normal(f.n)
        x = f.preconditioner().solve(b)
        if case in TENSOR + FOURIER:
            assert splu_calls == []
            assert np.linalg.norm(P @ x - b) <= 1e-12 * np.linalg.norm(b)
        else:
            assert splu_calls == [1]
            assert np.linalg.norm(P @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("case", ["box_v_xy", "half_plane_gamma_x"])
    def test_structure_check_rejects(self, case):
        # real forms on a full free block: the block is there, the split not
        f = _preconditioner_form(case)
        block = dz._free_block(f.grid)
        assert block is not None
        assert dz._TensorSolve.build(f.K, _shift(f), f.weight, block) is None

    def test_perturbed_entry_is_rejected(self, splu_calls):
        f = _preconditioner_form("half_plane")
        K = f.K.tolil()
        k = f.n // 2
        K[k, k] *= 1.0 + 1e-8
        g = dataclasses.replace(f, K=K.tocsr(), _prec=None)
        assert dz._TensorSolve.build(g.K, _shift(g), g.weight,
                                     dz._free_block(g.grid)) is None
        g.preconditioner()
        assert splu_calls == [1]

    @pytest.mark.parametrize("case, cls", [("half_plane", dz._TensorSolve),
                                           ("landau_half_plane", dz._FourierSolve)])
    def test_off_stencil_entry_is_rejected(self, case, cls, rng, splu_calls):
        # a Hermitian pair at offset 2, off the stencil 0, +-1, +-m1 whose
        # diagonals the split is fitted to and checked on
        f = _preconditioner_form(case)
        assert isinstance(f.preconditioner(), cls)
        K = f.K.tolil()
        k = f.n // 2
        K[k, k + 2] = 0.01 * f.K[k, k] * (1.0 + 0.5j if f.is_complex else 1.0)
        K[k + 2, k] = np.conj(K[k, k + 2])
        g = dataclasses.replace(f, K=K.tocsr(), _prec=None)
        P = _shifted(g)
        args = (g.K, _shift(g)) + (() if g.is_complex else (g.weight,))
        assert cls.build(*args, dz._free_block(g.grid)) is None
        b = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        b = b if g.is_complex else b.real
        x = g.preconditioner().solve(b)
        assert splu_calls == [1]
        assert np.linalg.norm(P @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_factor_is_exposed(self):
        # the bidiagonal Cholesky factor of the j-major tridiagonal
        f = _preconditioner_form("whole_plane")
        prec = f.preconditioner()
        m0, m1 = dz._free_block(f.grid)
        assert prec.L.shape == (f.n, f.n)
        assert sp.tril(prec.L, -2).nnz == sp.triu(prec.L, 1).nnz == 0
        assert prec.L.nnz == 2 * f.n - m1   # no coupling between the blocks
        assert (prec.U != prec.L.T).nnz == 0

    @pytest.mark.parametrize("case", ["magnetic_box", "landau_box_v_xy"])
    def test_fourier_check_rejects(self, case):
        # complex forms on a full free block whose columns differ
        f = _preconditioner_form(case)
        block = dz._free_block(f.grid)
        assert block is not None
        assert dz._FourierSolve.build(f.K, _shift(f), block) is None

    def test_perturbed_interior_entry_is_rejected_fourier(self, splu_calls):
        f = _preconditioner_form("landau_half_plane")
        assert isinstance(f.preconditioner(), dz._FourierSolve)
        K = f.K.tolil()
        k = f.n // 2   # a node of an interior column
        K[k, k] *= 1.0 + 1e-8
        g = dataclasses.replace(f, K=K.tocsr(), _prec=None)
        assert dz._FourierSolve.build(g.K, _shift(g), dz._free_block(g.grid)) is None
        g.preconditioner()
        assert splu_calls == [1]

    def test_end_columns_are_free(self, rng):
        # the capacitance correction takes any Hermitian end column
        f = _preconditioner_form("landau_half_plane")
        K = f.K.tolil()
        K[0, 0] *= 1.3
        K[f.n - 2, f.n - 1], K[f.n - 1, f.n - 2] = 0.2 - 0.1j, 0.2 + 0.1j
        g = dataclasses.replace(f, K=K.tocsr(), _prec=None)
        P = _shifted(g)
        b = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        x = g.preconditioner().solve(b)
        assert isinstance(g.preconditioner(), dz._FourierSolve)
        assert np.linalg.norm(P @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_fourier_factor_is_exposed(self):
        # the bidiagonal Cholesky factor of the k-major tridiagonal
        f = _preconditioner_form("landau_whole_plane")
        prec = f.preconditioner()
        m0, m1 = dz._free_block(f.grid)
        assert isinstance(prec, dz._FourierSolve)
        assert prec.L.shape == (f.n, f.n)
        assert sp.tril(prec.L, -2).nnz == sp.triu(prec.L, 1).nnz == 0
        assert prec.L.nnz == 2 * f.n - m0   # one block per mode
        assert (prec.U != prec.L.T).nnz == 0

    def test_green_blocks_in_bins(self, rng, monkeypatch):
        # a fine axis makes the semiseparable factors span more than the
        # exponent range of a double; the bins keep the solve exact
        f = _preconditioner_form("landau_half_plane")
        monkeypatch.setattr(dz._FourierSolve, "_RANGE", 5.0)
        P = _shifted(f)
        b = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        x = f.preconditioner().solve(b)
        assert np.linalg.norm(P @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestGauge:
    def test_constant_phase(self, magnetic_form, rng):
        spec, g, f = magnetic_form
        psi = dz.random_field(g, rng)
        phi = lambda pts: np.full(len(np.atleast_2d(pts)), 1.234)
        fs = dz.assemble(spec, f.h, g, gauge_phi=phi)
        q0 = f.energy(psi)
        q1 = fs.energy(dz.gauge_transform(psi, phi, f.h))
        assert abs(q1 - q0) <= 1e-12 * abs(q0)

    def test_linear_and_random_phases(self, magnetic_form, rng):
        spec, g, f = magnetic_form
        for _ in range(10):
            coef = rng.standard_normal(5)
            phi = lambda pts, c=coef: (
                c[0] * pts[:, 0] + c[1] * pts[:, 1]
                + c[2] * np.sin(pts[:, 0]) * np.cos(pts[:, 1])
                + c[3] * pts[:, 0] * pts[:, 1] + c[4])
            psi = dz.random_field(g, rng)
            fs = dz.assemble(spec, f.h, g, gauge_phi=phi)
            q0 = f.energy(psi)
            q1 = fs.energy(dz.gauge_transform(psi, phi, f.h))
            assert abs(q1 - q0) <= 1e-12 * abs(q0)

    def test_shifted_spec_continuum_limit(self):
        # the continuum shift A -> A + grad(phi) agrees with exact node
        # differences up to the midpoint-rule error O(s^2) per edge
        spec = ge.GeometrySpec(domain=ge.plane(2.0), V=0.0,
                               A=ge.symmetric_gauge(1.0))
        phi = lambda pts: np.sin(pts[:, 0]) * pts[:, 1]
        grad_phi = lambda pts: np.stack(
            [np.cos(pts[:, 0]) * pts[:, 1], np.sin(pts[:, 0])], axis=-1)
        sspec = dz.shifted_spec(spec, grad_phi)
        g = dz.build_grid(spec, 0.05)
        f_exact = dz.assemble(spec, 1.0, g, gauge_phi=phi)
        f_cont = dz.assemble(sspec, 1.0, g)
        dth = np.abs(f_exact.edge_phase - f_cont.edge_phase).max()
        assert dth <= 2e-5


class TestDiamagnetic:
    def test_hundred_random_fields(self, magnetic_form, rng):
        _, g, f = magnetic_form
        for _ in range(100):
            psi = dz.random_field(g, rng)
            k_abs = dz.kinetic_energy(f, dz.WaveFunction(g, np.abs(psi.values)),
                                      magnetic=False)
            k_mag = dz.kinetic_energy(f, psi, magnetic=True)
            assert k_abs <= k_mag * (1.0 + 1e-12) + 1e-15


class TestMagneticTranslation:
    def test_lattice_translation_invariance(self):
        b, h = 1.0, 1.0
        spec = ge.GeometrySpec(domain=ge.plane(6.0), V=0.0,
                               A=ge.symmetric_gauge(b))
        g = dz.build_grid(spec, 0.2)
        f = dz.assemble(spec, h, g)
        bump = dz.gaussian_bump(g, (-1.0, -0.5), 0.6)
        mask = np.linalg.norm(g.points - [-1.0, -0.5], axis=1) < 3.0
        psi = dz.WaveFunction(g, bump.values * mask)
        x0 = np.array([3 * 0.2, 2 * 0.2])
        A_x0 = 0.5 * b * np.array([-x0[1], x0[0]])   # symmetric gauge at x0
        shift = np.round((g.points - x0) / 0.2).astype(int)
        # build tau psi by index shift (exact lattice translation)
        idx = {(i, j): k for k, (i, j) in
               enumerate(np.round(g.points / 0.2).astype(int))}
        vals = np.zeros(g.n_nodes, dtype=complex)
        for k, (i, j) in enumerate(shift):
            src = idx.get((i, j))
            if src is not None:
                vals[k] = psi.values[src]
        tau_psi = dz.WaveFunction(
            g, np.exp(1j * (g.points @ A_x0) / h) * vals)
        r0 = dz.evaluate(f, psi, 4.0)
        r1 = dz.evaluate(f, tau_psi, 4.0)
        assert abs(r1.quotient / r0.quotient - 1.0) <= 1e-10


class TestExports:
    def test_wavefunction_rows(self):
        spec = ge.GeometrySpec(domain=ge.half_line(5.0))
        g = dz.build_grid(spec, 0.5)
        psi = dz.WaveFunction(g, np.linspace(0, 1, g.n_nodes) * (1 + 1j))
        rows = list(dz.wavefunction_rows(psi))
        assert len(rows) == g.n_nodes
        assert len(rows[0]) == 4  # x, re, im, abs


class TestProlong:
    """Multilinear prolongation from the lattice at twice the spacing."""

    @staticmethod
    def affine(grid, dtype):
        slope = np.array([0.7, -1.3])[: grid.dim]
        x = grid.points[grid.free]
        if dtype is complex:
            return (1.5 + 1.0j) + (x @ slope) * (2.0 - 0.5j)
        return 1.5 + x @ slope

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("domain, spacing", [
        (ge.interval(-1.0, 2.0, ("robin", "robin")), 0.013),
        (ge.rectangle(((-1.0, 1.3), (0.0, 2.0))), 0.05),
        (ge.rectangle(((0.0, 4.0), (-1.0, 1.0))), (0.03, 0.05))])
    def test_affine_fields_on_boxes(self, domain, spacing, dtype):
        # every node of a Robin box is free; the two lattices need not nest
        spec = ge.GeometrySpec(domain=domain, V=1.0)
        fine = dz.build_grid(spec, spacing)
        coarse = dz.build_grid(spec, np.multiply(2.0, spacing))
        out = dz.prolong(coarse, self.affine(coarse, dtype), fine)
        assert out.dtype == np.dtype(dtype)
        assert_allclose(out, self.affine(fine, dtype), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("R, s", [(1.0, 0.05), (2.3, 0.07)])
    def test_affine_fields_inside_a_masked_disk(self, R, s, dtype):
        center = np.array([0.3, -0.2])
        spec = ge.GeometrySpec(domain=ge.disk(R, tuple(center)), V=1.0)
        fine, coarse = dz.build_grid(spec, s), dz.build_grid(spec, 2.0 * s)
        # the coarse nodes are fine nodes, and keep their values
        index = {tuple(k) for k in np.rint((fine.points - center) / s).astype(int)}
        assert all(tuple(k) in index for k in
                   np.rint((coarse.points - center) / s).astype(int))
        out = dz.prolong(coarse, self.affine(coarse, dtype), fine)
        # exact where the coarse cell lies in the disk; zero outside it
        # pulls the rim nodes down
        r = np.hypot(*(fine.points[fine.free] - center).T)
        inner = r <= R - 2.0 * s * math.sqrt(2.0)
        assert inner.sum() > 0.7 * len(r)
        assert_allclose(out[inner], self.affine(fine, dtype)[inner],
                        rtol=1e-13, atol=1e-13)

    def test_pinned_nodes_count_as_zero(self):
        # a Dirichlet strip: the interpolant vanishes on the walls and
        # keeps the coarse values on the nodes the lattices share
        spec = ge.GeometrySpec(domain=ge.strip(-1.0, 1.0), V=0.0)
        fine, coarse = dz.build_grid(spec, 0.05), dz.build_grid(spec, 0.1)
        field = lambda g: np.cos(0.5 * np.pi * g.points[g.free, 1]) + 0.0
        out = dz.prolong(coarse, field(coarse), fine)
        shared = np.all(np.abs(np.rint(fine.points[fine.free] / 0.1) * 0.1
                               - fine.points[fine.free]) < 1e-12, axis=1)
        assert_allclose(out[shared], field(fine)[shared], atol=1e-14)
        next_to_wall = np.abs(np.abs(fine.points[fine.free, 0]) - 0.95) < 1e-12
        assert next_to_wall.any()
        assert np.all(np.abs(out[next_to_wall]) < np.abs(field(fine)[next_to_wall]))

    @staticmethod
    def reference(coarse, x, fine):
        """Node by node: the cell of each fine node on the coarse lattice,
        its 2^d corner values (zero where pinned or masked out) and the
        multilinear weights."""
        # cells are counted from one spacing below the lowest coarse node,
        # where prolong's zero padding starts, so both round f alike
        s = np.asarray(coarse.spacing)
        origin = coarse.points.min(axis=0) - s
        key = lambda p: tuple(int(k) for k in np.rint((p - origin) / s))
        value = {key(p): v for p, v in zip(coarse.points[coarse.free], x)}
        out = []
        for p in fine.points[fine.free]:
            u = (p - origin) / s
            cell = np.floor(u)
            f = u - cell
            total = 0.0
            for corner in np.ndindex(*(2,) * coarse.dim):
                w = np.prod([fj if c else 1.0 - fj for c, fj in zip(corner, f)])
                total += w * value.get(tuple(int(k) for k in cell + corner), 0.0)
            out.append(total)
        return np.array(out)

    @pytest.mark.parametrize("domain, spacing", [
        (ge.strip(-1.0, 1.0), 0.05),
        (ge.rectangle(((0.0, 4.0), (-1.0, 1.0)),
                      (("dirichlet", "robin"), ("robin", "dirichlet"))),
         (0.03, 0.05)),
        (ge.disk(1.3, (0.3, -0.2)), 0.07)],
        ids=["dirichlet-strip", "anisotropic-rectangle", "masked-disk"])
    def test_random_fields_match_the_node_by_node_interpolant(
            self, domain, spacing, rng):
        spec = ge.GeometrySpec(domain=domain, V=1.0)
        fine = dz.build_grid(spec, spacing)
        coarse = dz.build_grid(spec, np.multiply(2.0, spacing))
        x = rng.standard_normal(coarse.n_free) + 1j * rng.standard_normal(coarse.n_free)
        assert_allclose(dz.prolong(coarse, x, fine),
                        self.reference(coarse, x, fine), rtol=0, atol=1e-14)
