"""Waveguide reduction: the strip form's edge weights and the reference cache."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from semisobolev import discretize as dz
from semisobolev import geometry as ge
from semisobolev import waveguide as wg
from semisobolev.errors import NoConvergence


def test_energy_is_the_weighted_edge_sum():
    prof = wg.gaussian_profile(0.5, 0.0, 1.0)
    h, p = 0.5, 4.0
    form = wg.assemble_waveguide_form(prof, h, p, s_halfwidth=2.0)
    # the plain Dirichlet strip at the waveguide's resolution: s-spacing
    # h a_max / 14, 41 transverse nodes
    spec = ge.GeometrySpec(domain=ge.strip(-2.0, 2.0), V=0.0, gamma=0.0)
    plain = dz.build_grid(spec, (h * prof.a_max / 14.0, 2.0 / 40.0))
    assert (plain.n_nodes, plain.n_free) == (form.grid.n_nodes, form.n)
    a, b = plain.edges[:, 0], plain.edges[:, 1]
    a_mid = prof(0.5 * (plain.points[a, 0] + plain.points[b, 0]))
    mult = np.where(plain.edge_axis == 0, h * h * a_mid ** (1.0 - 2.0 / p),
                    a_mid ** (-1.0 - 2.0 / p))
    rng = np.random.default_rng(4)
    psi = dz.WaveFunction(plain, rng.standard_normal(plain.n_nodes))
    v = psi.values
    expected = float(mult * plain.edge_coeff @ (v[b] - v[a]) ** 2)
    assert form.energy(psi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.usefixtures("fresh_reference")
class TestStraightReference:
    @staticmethod
    def solver(converged, calls):
        def fake(form, p, opts, coarse=None):
            calls.append(form.n)
            return SimpleNamespace(lam=5.0, converged=converged, el_residual=1.0)
        return fake

    def test_unconverged_solve_raises_and_is_not_cached(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wg, "minimize_quotient", self.solver(False, calls))
        with pytest.raises(NoConvergence):
            wg.straight_reference(4.0)
        assert len(calls) == 1
        monkeypatch.setattr(wg, "minimize_quotient", self.solver(True, calls))
        assert wg.straight_reference(4.0) == 5.0     # a miss: solved again
        assert len(calls) == 3                       # truncation 12, then 24
        assert wg.straight_reference(4.0) == 5.0     # now a hit
        assert len(calls) == 3


def test_mass_outside_is_fixed_by_the_stop(monkeypatch):
    # the h = 0.1 rung at the sweep's grad_tol 1e-9 against a re-solve at
    # 1e-11: the printed mass outside the bump is a converged figure
    monkeypatch.setattr(wg, "straight_reference", lambda p: 1.0)
    prof = wg.gaussian_profile(0.5, 0.0, 1.0)
    (row,) = wg.waveguide_sweep(prof, 4.0, [0.1])
    real = wg.minimize_quotient
    monkeypatch.setattr(wg, "minimize_quotient",
                        lambda form, p, opts, coarse=None: real(
                            form, p, dataclasses.replace(opts, grad_tol=1e-11),
                            coarse))
    (tight,) = wg.waveguide_sweep(prof, 4.0, [0.1])
    assert row.converged and tight.converged
    assert row.mass_outside == pytest.approx(tight.mass_outside, rel=1e-6)


def test_flat_gaussian_is_the_straight_strip():
    # amp = 0, the edge of the admitted amp >= 0, is the constant strip
    (row,) = wg.waveguide_sweep(wg.gaussian_profile(0.0, 0.0, 1.0), 4.0, [0.2])
    assert row.converged
    assert row.ratio == pytest.approx(1.0, abs=1e-9)


def test_strip_set_up_peak_memory():
    # the h = 0.1 strip rung (58,188 free nodes): its form and tensor
    # preconditioner peak at 30.9 MB of traced allocation; the bound fails
    # a K assembled from duplicate COO entries with a split checked by a
    # sparse Kronecker rebuild (49.6 MB)
    prof = wg.gaussian_profile(0.5, 0.0, 1.0)
    tracemalloc.start()
    try:
        form = wg.assemble_waveguide_form(prof, 0.1, 4.0)
        prec = form.preconditioner()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.n == 58188 and isinstance(prec, dz._TensorSolve)
    assert peak <= 38e6
