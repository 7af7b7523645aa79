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
    (wg.constant_profile(1.0), 1.0, 12.0),             # the reference
    (wg.constant_profile(1.0), 1.0, 24.0),             # its longer check
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
    def solver(calls, converged=True, center=0.0, lam=5.0):
        """A fake solve returning lam and the L^p-normalized bump of width 1
        at s = center on the strip lattice, which the tail check reads."""
        def fake(form, p, opts, coarse=None, start=None):
            calls.append(start)
            psi = dz.gaussian_bump(form.grid, (center, 0.0), 1.0)
            psi.values /= psi.norm_lp(p)
            return SimpleNamespace(lam=lam, converged=converged,
                                   el_residual=1.0, psi=psi)
        return fake

    def test_unconverged_solve_is_counted_and_not_cached(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mz, "minimize_quotient",
                            self.solver(calls, converged=False, lam=4.0))
        assert wg.straight_reference(4.0) == 4.0     # a miss: one solve
        assert (len(calls), models._unconverged, models._cache) == (1, 1, {})
        monkeypatch.setattr(mz, "minimize_quotient", self.solver(calls))
        assert wg.straight_reference(4.0) == 5.0     # not stored: solved again
        assert calls == [None, None]                 # each from its own starts
        assert {k: r.lam for k, r in models._cache.items()} == {
            ("strip", 4.0): 5.0}
        assert wg.straight_reference(4.0) == 5.0     # now a hit
        assert (len(calls), models._unconverged) == (2, 1)

    def test_tail_mass_is_counted_and_not_cached(self, monkeypatch):
        # a converged field with L^p mass on the outer quarter |s| > 9 of
        # the truncation |s| <= 12 is a miss; the same bump at the centre
        # is stored
        calls = []
        monkeypatch.setattr(mz, "minimize_quotient",
                            self.solver(calls, center=10.0))
        assert wg.straight_reference(4.0) == 5.0
        assert (len(calls), models._unconverged, models._cache) == (1, 1, {})
        monkeypatch.setattr(mz, "minimize_quotient", self.solver(calls))
        wg.straight_reference(4.0)
        assert (len(calls), models._unconverged) == (2, 1)
        assert list(models._cache) == [("strip", 4.0)]

    def test_one_truncation_meets_the_longer_strip(self, monkeypatch):
        # p = 4: one nested solve at s_halfwidth 12, whose bump and random
        # starts descend on the coarse strip first; a cold solve at 24
        # gives the same lambda (7.5e-14 relative)
        solves = []
        real = mz.minimize_quotient

        def recording(form, p, opts, coarse=None, start=None):
            res = real(form, p, opts, coarse, start)
            solves.append((opts, res))
            return res

        monkeypatch.setattr(mz, "minimize_quotient", recording)
        ref = wg.straight_reference(4.0)
        assert ref == pytest.approx(5.1207546633281105, rel=1e-12, abs=0.0)
        (opts, res), = solves
        assert len(res.coarse_iterations) == 2      # bump and random start
        assert res.converged and models._unconverged == 0
        assert models.stored(("strip", 4.0)) is res
        cold = wg._solve(wg.constant_profile(1.0), 1.0, 4.0, opts, 24.0)
        assert cold.converged
        assert ref == pytest.approx(cold.lam, rel=1e-12, abs=0.0)

    def test_p2_reference(self, monkeypatch):
        # the infimum of the strip lattice, not attained: the transverse
        # Dirichlet eigenvalue of the 41-node t-mesh, below pi^2/4 =
        # 2.4674011 by that mesh's error; nothing is solved or stored
        calls = []
        monkeypatch.setattr(mz, "minimize_quotient", self.solver(calls))
        ref = wg.straight_reference(2.0)
        assert ref == pytest.approx(2.4661330134976, rel=1e-12, abs=0.0)
        assert (calls, models._cache, models._unconverged) == ([], {}, 0)
        # the truncated lattices lie above it by their own s-eigenvalue
        # (2/ds sin(pi ds / 4L))^2, separable as the strip is, and fall
        # towards it as the truncation L doubles
        monkeypatch.setattr(mz, "minimize_quotient", minimize_quotient)
        prof = wg.constant_profile(1.0)
        ds, _ = wg._spacing(prof, 1.0)
        opts = MinimizeOptions(grad_tol=1e-9, restarts=1, seed=3)
        gaps = []
        for L in (12.0, 24.0):
            res = wg._solve(prof, 1.0, 2.0, opts, L)
            assert res.converged
            s_eig = (2.0 / ds * math.sin(math.pi * ds / (4.0 * L))) ** 2
            assert res.lam == pytest.approx(ref + s_eig, rel=1e-12, abs=0.0)
            gaps.append(res.lam - ref)
        assert 0.0 < gaps[1] < gaps[0] / 3.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the one truncation stops as backtrack_floor (stagnation under "
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
        (res,) = solves
        assert res.converged, (res.restart_exits, res.el_residual)
        if models._unconverged:     # a miss for another reason fails
            pytest.fail("the p = 6 reference missed on its tail check")


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


def test_zoomed_start_continues_the_tail():
    # at h = 1 on the constant strip the start is the reference minimizer on
    # |s| <= 9 and, out to |s| = 24, the linear tail of the lattice: each
    # column the last one times r, r + 1/r = 2 + ds^2 mu, mu the transverse
    # ground eigenvalue; it is 0 only on the caps and the walls
    wg.straight_reference(4.0)
    psi = models.stored(("strip", 4.0)).psi
    start = wg._zoomed(psi, wg.constant_profile(1.0), 1.0)
    n_t = psi.grid.shape[1]
    assert start.grid.shape == (673, n_t)
    ref, cont = (f.values.reshape(f.grid.shape) for f in (psi, start))
    assert np.array_equal(cont[336 - 126:336 + 127], ref[168 - 126:168 + 127])
    ds = 1.0 / 14.0
    b = 1.0 + 0.5 * ds * ds * wg.straight_reference(2.0)
    r = b - math.sqrt(b * b - 1.0)
    for col in (cont[336 + 127:-1], cont[1:336 - 126][::-1]):
        assert np.allclose(col, ref[168 + 126] * r ** np.arange(1, 210)[:, None],
                           rtol=1e-12, atol=0.0)
    assert not cont[[0, -1]].any() and not cont[:, [0, -1]].any()
    assert np.all(np.abs(cont[1:-1, 1:-1]) > 0.0)


def test_constant_rungs_are_the_zoomed_reference(rung_solves):
    # the constant strip at h is the reference strip zoomed by h: each rung
    # starts at its minimizer and takes 2 fine iterations, with no coarse
    # stage (a bump and a random field took 12 fine and 135 coarse ones).
    # The rungs reach |s| = 8, past the zoomed truncation |s| <= 12 h: the
    # start continues the tail there (left 0, they take 4 and 5)
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
