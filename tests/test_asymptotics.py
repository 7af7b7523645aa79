"""Sample points and localization centers of the sweep harnesses."""

import numpy as np
from numpy.testing import assert_allclose

from semisobolev import asymptotics
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


def test_boundary_centers_on_a_rectangle():
    spec = ge.GeometrySpec(domain=ge.rectangle(((-1.0, 3.0), (0.0, 2.0))),
                           V=1.0)
    # two opposite corners, two edge midpoints, then the center
    assert asymptotics.boundary_centers(spec) == (
        (-1.0, 0.0), (3.0, 2.0), (1.0, 0.0), (-1.0, 1.0), (1.0, 1.0))
