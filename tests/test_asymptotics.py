"""Sample points and localization centers of the sweep harnesses, and a
sweep against a closed form."""

import math

import numpy as np
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import i0e, i1e

from semisobolev import asymptotics, models
from semisobolev.config import parse_geometry
from semisobolev import geometry as ge


def test_default_sample_points_on_a_disk():
    R, center = 2.0, np.array([0.5, -1.0])
    spec = ge.GeometrySpec(domain=ge.disk(R, tuple(center)), V=1.0)
    pts = asymptotics.default_sample_points(spec)
    r = np.hypot(*(pts - center).T)
    # the center plus 5 rings of 8 inside, then the boundary ring
    assert len(pts) == 41 + 16
    assert r[0] == 0.0
    assert np.all(r[1:41] <= 0.85 * R + 1e-12) and np.all(r[1:41] >= 0.25 * R - 1e-12)
    assert_allclose(r[41:], R, rtol=1e-14)


def _starts(spec, p=4.0):
    """The rung centers that `sweep` picks on `spec` at exponent p."""
    cmap = models.concentration_map(
        spec, asymptotics.default_sample_points(spec), p)
    return cmap, asymptotics.rung_centers(spec, cmap)


def test_one_start_on_a_tied_disk_rim():
    # the 16 rim samples of the Neumann disk tie: one face, one start
    cmap, starts = _starts(ge.GeometrySpec(domain=ge.disk(1.0), V=1.0,
                                           gamma=0.0))
    assert len(cmap.argmin) == 16
    assert starts == ((1.0, 0.0),)


def test_one_start_per_face_of_a_rectangle():
    # 4 tied samples on each Neumann face: the first of each face, in
    # sample order (x = -1, x = 3, y = 0, y = 2)
    spec = ge.GeometrySpec(domain=ge.rectangle(((-1.0, 3.0), (0.0, 2.0))),
                           V=1.0)
    cmap, starts = _starts(spec)
    assert len(cmap.argmin) == 16
    assert_allclose(starts, [(-1.0, 0.4), (3.0, 0.4), (-0.2, 0.0),
                             (-0.2, 2.0)], atol=1e-12)


def test_both_ends_of_a_robin_interval():
    spec = ge.GeometrySpec(domain=ge.interval(-1.0, 1.0, ("robin", "robin")),
                           V=1.0, gamma=0.0)
    assert _starts(spec)[1] == ((-1.0,), (1.0,))


def test_one_start_at_the_dip_of_the_rim():
    spec, _ = parse_geometry(
        "domain = disk\nradius = 1.0\nV = 1.0\n"
        "gamma = angular-dip -0.1 0.8 0 0.5\n")
    cmap, starts = _starts(spec)
    assert [s.kind for s in cmap.argmin] == ["boundary"]
    assert starts == ((1.0, 0.0),)


def test_faces_and_values_split_the_classes():
    # two argmin samples share a class only on one face with tied values
    spec = ge.GeometrySpec(domain=ge.rectangle(((0.0, 1.0), (0.0, 1.0))),
                           V=1.0)
    samples = [models.ConcentrationSample((0.0, 0.3), "boundary", 1.0),
               models.ConcentrationSample((0.0, 0.6), "boundary", 1.0 + 1e-11),
               models.ConcentrationSample((0.0, 0.9), "boundary", 1.0 + 1e-9),
               models.ConcentrationSample((1.0, 0.3), "boundary", 1.0),
               models.ConcentrationSample((0.5, 0.5), "interior", 1.0),
               models.ConcentrationSample((0.4, 0.5), "interior", 1.0)]
    cmap = models.ConcentrationMap(samples, 1.0, samples, 0.02)
    assert asymptotics.rung_centers(spec, cmap) == (
        (0.0, 0.3), (0.0, 0.9), (1.0, 0.3), (0.5, 0.5))


def _robin_disk_ratio(h, R=1.0, V=1.0, gamma=-0.5):
    """lambda / h of the p = 2 Robin disk: V - h kappa^2, the ground state
    I0(kappa r) with kappa I1(kappa R) = -(gamma / sqrt(h)) I0(kappa R)."""
    c = -gamma / math.sqrt(h)
    kappa = brentq(lambda k: k * i1e(k * R) - c * i0e(k * R), 1e-12, 10.0 * c)
    return V - h * kappa * kappa


def test_robin_disk_sweep_meets_its_closed_form():
    # the first sweep traced to a closed form (ratios 0.524698 and
    # 0.604539 at h = 0.1 and 0.05): the masked disk lattice sits above it
    # by +1.33% and +0.90%.  A boundary-fitted polar lattice (ROADMAP item
    # 5) is what tightens this bound
    spec, _ = parse_geometry("domain = disk\nradius = 1.0\nV = 1.0\n"
                             "gamma = -0.5\n")
    rows = asymptotics.sweep(spec, 2.0, [0.1, 0.05])
    for row in rows:
        assert row.converged
        assert 0.0 < row.ratio / _robin_disk_ratio(row.h) - 1.0 < 0.015
