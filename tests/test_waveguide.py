"""Waveguide reduction: the strip form's edge weights and the reference cache."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from semisobolev import discretize as dz
from semisobolev import geometry as ge
from semisobolev import minimize as mz
from semisobolev import models
from semisobolev import waveguide as wg
from semisobolev.minimize import MinimizeOptions, minimize_quotient


def _edge_weights(prof, h, p, grid):
    """h^2 a^{1-2/p} on s-edges and a^{-1-2/p} on t-edges, with a
    evaluated at every edge's own midpoint; an s-edge's end points
    differ in s."""
    s_a, s_b = grid.points[grid.edges[:, 0], 0], grid.points[grid.edges[:, 1], 0]
    a_mid = prof(0.5 * (s_a + s_b))
    return np.where(s_a != s_b, h * h * a_mid ** (1.0 - 2.0 / p),
                    a_mid ** (-1.0 - 2.0 / p))


def _plain_strip(s_half, spacing):
    spec = ge.GeometrySpec(domain=ge.strip(-s_half, s_half), V=0.0, gamma=0.0)
    return spec, dz.build_grid(spec, spacing)


def test_energy_is_the_weighted_edge_sum():
    prof = wg.gaussian_profile(0.5, 0.0, 1.0)
    h, p = 0.5, 4.0
    form = wg.assemble_waveguide_form(prof, h, p, s_halfwidth=2.0)
    # the plain Dirichlet strip at the waveguide's resolution: s-spacing
    # h a_max / 14, 41 transverse nodes
    _, plain = _plain_strip(2.0, (h * prof.a_max / 14.0, 2.0 / 40.0))
    assert (plain.n_nodes, plain.n_free) == (form.grid.n_nodes, form.n)
    a, b = plain.edges[:, 0], plain.edges[:, 1]
    mult = _edge_weights(prof, h, p, plain)
    rng = np.random.default_rng(4)
    psi = dz.WaveFunction(plain, rng.standard_normal(plain.n_nodes))
    v = psi.values
    expected = float(mult * plain.edge_coeff @ (v[b] - v[a]) ** 2)
    assert form.energy(psi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("prof, h, s_half", [
    (wg.gaussian_profile(0.5, 0.0, 1.0), 0.2, None),   # the ladder's rungs
    (wg.gaussian_profile(0.5, 0.0, 1.0), 0.1, None),
    (wg.constant_profile(1.0), 1.0, 12.0),             # the two references
    (wg.constant_profile(1.0), 1.0, 24.0),
], ids=["h0.2", "h0.1", "reference12", "reference24"])
def test_column_weights_are_the_per_edge_weights(prof, h, s_half):
    # the profile is weighed once per s-column and repeated per edge; K is
    # bitwise that of the profile evaluated at every edge's midpoint
    p = 4.0
    spacing = wg._spacing(prof, h)
    form = wg.assemble_waveguide_form(prof, h, p, s_half, spacing)
    spec, plain = _plain_strip(s_half or 8.0 * prof.width, spacing)
    expected = dz.assemble(spec, 1.0, dataclasses.replace(
        plain, edge_coeff=plain.edge_coeff * _edge_weights(prof, h, p, plain)))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(form.K, attr), getattr(expected.K, attr))


def test_start_at_a_minimizer_stays_there():
    # a converged minimizer, given back as the one start on its own form,
    # is accepted at once with the same lambda
    opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=3,
                           centers=((0.0, 0.0),), bump_width=1.0)
    for p in (4.0, 2.0):
        form = wg.assemble_waveguide_form(wg.constant_profile(1.0), 1.0, p,
                                          s_halfwidth=4.0)
        cold = minimize_quotient(form, p, opts)
        warm = minimize_quotient(form, p, opts, start=cold.psi)
        assert cold.converged and warm.converged
        assert warm.lam == pytest.approx(cold.lam, rel=1e-12, abs=0.0)
        assert warm.iterations <= 2
        assert warm.restart_exits == ["grad_tol"]


@pytest.mark.usefixtures("fresh_reference")
class TestStraightReference:
    @staticmethod
    def solver(converged, calls, lam=lambda k: 5.0):
        def fake(form, p, opts, coarse=None, start=None):
            calls.append((form.n, start))
            return SimpleNamespace(lam=lam(len(calls)), converged=converged,
                                   el_residual=1.0,
                                   psi=f"minimizer {len(calls)}")
        return fake

    def test_unconverged_solve_is_counted_and_not_cached(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mz, "minimize_quotient",
                            self.solver(False, calls, lambda k: 4.0))
        assert wg.straight_reference(4.0) == 4.0     # a miss at truncation 12
        assert (len(calls), models._unconverged, models._cache) == (1, 1, {})
        monkeypatch.setattr(mz, "minimize_quotient", self.solver(True, calls))
        assert wg.straight_reference(4.0) == 5.0     # not stored: solved again
        assert len(calls) == 3                       # truncation 12, then 24
        # the doubling starts from the minimizer at truncation 12
        assert [start for _, start in calls] == [None, None, "minimizer 2"]
        assert {k: r.lam for k, r in models._cache.items()} == {
            ("strip", 4.0): 5.0}
        assert wg.straight_reference(4.0) == 5.0     # now a hit
        assert (len(calls), models._unconverged) == (3, 1)

    def test_unsettled_value_is_counted_and_not_cached(self, monkeypatch):
        # every truncation converges, but each moves the value by 1%, more
        # than _REF_TOL: after _REF_DOUBLINGS doublings it is still a miss
        calls = []
        monkeypatch.setattr(mz, "minimize_quotient",
                            self.solver(True, calls, lambda k: 1.01 ** k))
        assert wg.straight_reference(4.0) == 1.01 ** (wg._REF_DOUBLINGS + 1)
        assert len(calls) == wg._REF_DOUBLINGS + 1
        assert (models._unconverged, models._cache) == (1, {})
        wg.straight_reference(4.0)
        assert len(calls) == 2 * (wg._REF_DOUBLINGS + 1)
        assert models._unconverged == 2

    def test_doubling_continues_from_the_last_minimizer(self, monkeypatch):
        solves = []
        real = mz.minimize_quotient

        def recording(form, p, opts, coarse=None, start=None):
            res = real(form, p, opts, coarse, start)
            solves.append((opts, res))
            return res

        monkeypatch.setattr(mz, "minimize_quotient", recording)
        ref = wg.straight_reference(4.0)
        assert ref == pytest.approx(5.120754663328114, rel=1e-12, abs=0.0)
        (_, first), (opts, doubling) = solves
        assert len(first.coarse_iterations) == 2      # bump and random start
        # p = 4: one start, polished on the fine strip alone
        assert doubling.coarse_iterations == []
        assert doubling.restart_exits == ["grad_tol"]
        cold = wg._solve(wg.constant_profile(1.0), 1.0, 4.0, opts, 24.0)
        assert cold.converged
        assert doubling.lam == ref
        assert ref == pytest.approx(cold.lam, rel=1e-12, abs=0.0)

    def test_p2_reference(self):
        # the lattice counterpart of pi^2/4 = 2.4674011; its doublings keep
        # the coarse stage, since the p = 2 ground state spreads with them
        assert wg.straight_reference(2.0) == pytest.approx(
            2.467203933626499, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the first truncation stops as backtrack_floor (stagnation under "
        "threaded BLAS) at el_residual about 3.5e-7, above the 5e-8 "
        "acceptance (ROADMAP item 14, case 4)"))
    def test_p6_reference_converges(self, monkeypatch):
        solves = []
        real = mz.minimize_quotient

        def recording(form, p, opts, coarse=None, start=None):
            solves.append(real(form, p, opts, coarse, start))
            return solves[-1]

        monkeypatch.setattr(mz, "minimize_quotient", recording)
        assert math.isfinite(wg.straight_reference(6.0))
        first = solves[0]
        assert first.converged, (first.restart_exits, first.el_residual)
        if models._unconverged:     # a miss for another reason fails
            pytest.fail("the p = 6 reference missed after its first truncation")


def test_mass_outside_is_fixed_by_the_stop(monkeypatch):
    # the h = 0.1 rung at the sweep's grad_tol 1e-9 against a re-solve at
    # 1e-11, both from the zoomed reference minimizer (stored at 1e-9 by
    # the first sweep): the printed mass outside the bump is a converged
    # figure
    prof = wg.gaussian_profile(0.5, 0.0, 1.0)
    (row,) = wg.waveguide_sweep(prof, 4.0, [0.1])
    real = mz.minimize_quotient
    monkeypatch.setattr(mz, "minimize_quotient",
                        lambda form, p, opts, coarse=None, start=None: real(
                            form, p, dataclasses.replace(opts, grad_tol=1e-11),
                            coarse, start))
    (tight,) = wg.waveguide_sweep(prof, 4.0, [0.1])
    assert row.converged and tight.converged
    assert row.mass_outside == pytest.approx(tight.mass_outside, rel=1e-6)


@pytest.fixture
def rung_solves(monkeypatch):
    """The minimizer results of the rungs of the test's sweeps at p = 4,
    the reference stored before the recording starts."""
    wg.straight_reference(4.0)
    assert models.stored(("strip", 4.0)) is not None
    solves = []
    real = mz.minimize_quotient

    def recording(form, p, opts, coarse=None, start=None):
        solves.append(real(form, p, opts, coarse, start))
        return solves[-1]

    monkeypatch.setattr(mz, "minimize_quotient", recording)
    return solves


def test_constant_rungs_are_the_zoomed_reference(rung_solves):
    # the constant strip at h is the reference strip zoomed by h: each rung
    # starts at its minimizer and takes 2 fine iterations, with no coarse
    # stage (a bump and a random field took 12 fine and 135 coarse ones)
    rows = wg.waveguide_sweep(wg.constant_profile(1.0), 4.0, [0.5, 0.25])
    assert len(rung_solves) == 2
    for row, res in zip(rows, rung_solves):
        assert row.converged
        assert row.ratio / row.target == pytest.approx(1.0, abs=1e-9)
        assert res.coarse_iterations == []
        assert res.iterations <= 3


@pytest.mark.parametrize("prof, h_list, lams, ratios", [
    # the ladder of the benchmark
    (wg.gaussian_profile(0.5, 0.0, 1.0), [0.2, 0.1],
     [1.53823455346, 1.08168376276], [1.00754593405, 1.00197664892]),
    # maxima 1.5 at s = -2 and 1.49 at s = 2: the zoomed reference sits on
    # the higher one and the rungs keep the values of a bump and a random
    # start on the coarse strip
    (wg.table_profile([-6.0, -2.0, 0.0, 2.0, 6.0], [1.0, 1.5, 1.2, 1.49, 1.0]),
     [1.0, 0.5, 0.25], [3.59323653267, 2.47794852135, 1.72954947244],
     [1.0525508745, 1.02651326889, 1.01325854458]),
], ids=["gaussian", "two-maxima"])
def test_rungs_from_the_reference_keep_their_values(rung_solves, prof, h_list,
                                                    lams, ratios):
    rows = wg.waveguide_sweep(prof, 4.0, h_list)
    assert [r.lam for r in rows] == pytest.approx(lams, abs=1e-10)
    assert [r.ratio / r.target for r in rows] == pytest.approx(ratios, abs=1e-10)
    assert all(r.converged for r in rows)
    for res in rung_solves:
        assert res.coarse_iterations == []
        assert len(res.restart_exits) == 1


def test_flat_gaussian_is_the_straight_strip():
    # amp = 0, the edge of the admitted amp >= 0, is the constant strip
    (row,) = wg.waveguide_sweep(wg.gaussian_profile(0.0, 0.0, 1.0), 4.0, [0.2])
    assert row.converged
    assert row.ratio / row.target == pytest.approx(1.0, abs=1e-9)


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
