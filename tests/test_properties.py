"""Property tests of the exact discrete identities on drawn geometries.

`TestDiamagnetic` and `TestGauge` in test_discretize.py check these on one
fixed half-plane; here hypothesis draws the domain, the field, V, gamma,
h, the lattice field and the gauge phase.  The IMS localization identity
and the partition sums that `partition.find_translation` relies on are
checked on a drawn sliding partition as well.  Grids stay at 400 nodes or
fewer, and the draws are derandomized so that the suite is repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semisobolev import discretize as dz
from semisobolev import geometry as ge
from semisobolev import partition as pt

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
MAX_NODES = 400


@st.composite
def forms(draw):
    """(form, rng) for a drawn box or disk geometry with a constant field."""
    s = draw(st.floats(0.1, 0.3))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(8, 20)), draw(st.integers(8, 20))
        faces = st.sampled_from(("robin", "dirichlet", "truncation"))
        bc = tuple((draw(faces), draw(faces)) for _ in range(2))
        dom = ge.rectangle(((0.0, (nx - 1) * s), (0.0, (ny - 1) * s)), bc)
    else:
        dom = ge.disk(draw(st.floats(3.0, 10.0)) * s,
                      (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    b = draw(st.floats(-2.0, 2.0))
    x0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    spec = ge.GeometrySpec(domain=dom, V=draw(st.floats(-1.0, 2.0)),
                           A=ge.linear_gauge(ge.field_matrix_2d(b), x0),
                           gamma=draw(st.floats(-1.0, 1.0)))
    grid = dz.build_grid(spec, s)
    assert grid.n_nodes <= MAX_NODES
    h = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return dz.assemble(spec, h, grid), rng


@PROPERTY
@given(forms())
def test_diamagnetic_inequality(case):
    form, rng = case
    psi = dz.random_field(form.grid, rng)
    k_abs = dz.kinetic_energy(form, psi, magnetic=False)
    k_mag = dz.kinetic_energy(form, psi, magnetic=True)
    assert k_abs <= k_mag * (1.0 + 1e-12) + 1e-15


@PROPERTY
@given(forms(), st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_gauge_covariance(case, c):
    # node-difference phases are an exact symmetry of the lattice energy
    form, rng = case
    phi = lambda pts: (c[0] * pts[:, 0] + c[1] * pts[:, 1]
                       + c[2] * np.sin(pts[:, 0]) * np.cos(pts[:, 1])
                       + c[3] * pts[:, 0] * pts[:, 1] + c[4])
    psi = dz.random_field(form.grid, rng)
    shifted = dz.assemble(form.spec, form.h, form.grid, gauge_phi=phi)
    q0 = form.energy(psi)
    q1 = shifted.energy(dz.gauge_transform(psi, phi, form.h))
    # rounding scale: the energy with every entry of K and psi made positive
    x = np.abs(form.free_values(psi))
    scale = float(x @ (abs(form.K) @ x))
    assert abs(q1 - q0) <= 1e-12 * scale


@st.composite
def partitions(draw):
    """A sliding partition on the plane: alpha >= rho > 0, h in (0, 1)."""
    rho = draw(st.floats(0.1, 1.0))
    alpha = rho + draw(st.floats(0.0, 1.0))
    tau = [draw(st.floats(-1.0, 1.0)) for _ in range(2)]
    return pt.build_partition(alpha, rho, draw(st.floats(0.05, 0.95)), 2,
                              tau=tau)


@PROPERTY
@given(forms(), partitions(), st.floats(2.0, 8.0))
def test_partition_identities(case, fam, p):
    # the cell-by-cell energies match the IMS edge remainder, and the
    # tensor overlaps give the quadratic sum 1 and an L^p weight <= 1
    form, rng = case
    psi = dz.random_field(form.grid, rng)
    x = np.abs(form.free_values(psi))
    scale = float(x @ (abs(form.K) @ x))
    assert pt.ims_identity_defect(form, psi, fam) <= 1e-12 * scale
    pts = form.grid.points
    assert np.abs(fam.overlap(pts) - 1.0).max() <= 1e-12
    assert fam.overlap(pts, q=p).max() <= 1.0 + 1e-12
