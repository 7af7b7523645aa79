"""Property tests of the exact discrete identities on drawn geometries.

`TestDiamagnetic` and `TestGauge` in test_discretize.py check these on one
fixed half-plane; here hypothesis draws the domain, the field, V, gamma,
h, the lattice field and the gauge phase.  The IMS localization identity
and the partition sums that `partition.find_translation` relies on are
checked on a drawn sliding partition as well, and so are two exact
symmetries of the lattice: the semiclassical zoom on matched grids and the
even reflection across a Neumann face.  The exact Fourier-capacitance
preconditioner is checked on drawn Landau-gauge boxes.  Grids stay at 400 nodes or fewer,
and the draws are derandomized so that the suite is repeatable.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from semisobolev import discretize as dz
from semisobolev import geometry as ge
from semisobolev import partition as pt

FACES = st.sampled_from(("robin", "dirichlet", "truncation"))
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
MAX_NODES = 400


@st.composite
def forms(draw):
    """(spec, form, rng) for a drawn box or disk geometry with a constant
    field."""
    s = draw(st.floats(0.1, 0.3))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(8, 20)), draw(st.integers(8, 20))
        bc = tuple((draw(FACES), draw(FACES)) for _ in range(2))
        dom = ge.rectangle(((0.0, (nx - 1) * s), (0.0, (ny - 1) * s)), bc)
    else:
        dom = ge.disk(draw(st.floats(3.0, 10.0)) * s,
                      (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    b = draw(st.floats(-2.0, 2.0))
    x0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    spec = ge.GeometrySpec(domain=dom, V=draw(st.floats(-1.0, 2.0)),
                           A=ge.symmetric_gauge(b, x0),
                           gamma=draw(st.floats(-1.0, 1.0)))
    grid = dz.build_grid(spec, s)
    assert grid.n_nodes <= MAX_NODES
    h = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return spec, dz.assemble(spec, h, grid), rng


@PROPERTY
@given(forms())
def test_diamagnetic_inequality(case):
    _, form, rng = case
    psi = dz.random_field(form.grid, rng)
    k_abs = dz.kinetic_energy(form, psi, magnetic=False)
    k_mag = dz.kinetic_energy(form, psi, magnetic=True)
    assert k_abs <= k_mag * (1.0 + 1e-12) + 1e-15


@PROPERTY
@given(forms(), st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_gauge_covariance(case, c):
    # node-difference phases are an exact symmetry of the lattice energy
    spec, form, rng = case
    phi = lambda pts: (c[0] * pts[:, 0] + c[1] * pts[:, 1]
                       + c[2] * np.sin(pts[:, 0]) * np.cos(pts[:, 1])
                       + c[3] * pts[:, 0] * pts[:, 1] + c[4])
    psi = dz.random_field(form.grid, rng)
    shifted = dz.assemble(spec, form.h, form.grid, gauge_phi=phi)
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
    _, form, rng = case
    psi = dz.random_field(form.grid, rng)
    x = np.abs(form.free_values(psi))
    scale = float(x @ (abs(form.K) @ x))
    assert pt.ims_identity_defect(form, psi, fam) <= 1e-12 * scale
    pts = form.grid.points
    assert np.abs(fam.overlap(pts) - 1.0).max() <= 1e-12
    assert fam.overlap(pts, q=p).max() <= 1.0 + 1e-12


@st.composite
def zooms(draw):
    """(unit form, zoomed form, h): a drawn box at spacing s and parameter 1,
    and the same box scaled by sqrt(h) at spacing s sqrt(h) and parameter h,
    with B = 0 or a constant B in the symmetric gauge, constant V and gamma."""
    s = draw(st.floats(0.1, 0.3))
    nx, ny = draw(st.integers(8, 20)), draw(st.integers(8, 20))
    x0, y0 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    bc = tuple((draw(FACES), draw(FACES)) for _ in range(2))
    b = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    v, gamma = draw(st.floats(-1.0, 2.0)), draw(st.floats(-1.0, 1.0))
    h = draw(st.floats(0.05, 1.0))

    def form(c, hh):
        dom = ge.rectangle(((c * x0, c * (x0 + (nx - 1) * s)),
                            (c * y0, c * (y0 + (ny - 1) * s))), bc)
        A = None if b == 0.0 else ge.symmetric_gauge(b)
        spec = ge.GeometrySpec(domain=dom, V=v, A=A, gamma=gamma)
        return dz.assemble(spec, hh, dz.build_grid(spec, c * s))

    return form(1.0, 1.0), form(math.sqrt(h), h), h


@PROPERTY
@given(zooms(), st.integers(0, 2 ** 32 - 1))
def test_zoom_scaling(case, seed):
    # x = sqrt(h) y: K_h = h^{1+d/2} K_1, w_h = h^{d/2} w_1, tau_h = h tau_1,
    # so the preconditioner solve scales by h^{-(1+d/2)} (d = 2)
    unit, zoomed, h = case
    assert zoomed.grid.n_nodes == unit.grid.n_nodes <= MAX_NODES
    K1 = abs(unit.K).max()
    assert abs(zoomed.K - h * h * unit.K).max() <= 1e-12 * h * h * K1
    assert np.abs(zoomed.weight - h * unit.weight).max() <= \
        1e-12 * h * unit.weight.max()
    tau = unit.preconditioner_shift()
    assert abs(zoomed.preconditioner_shift() - h * tau) <= 1e-12 * h * tau
    prec = zoomed.preconditioner()
    assert isinstance(prec, dz._TensorSolve) == (not unit.is_complex)
    rhs = np.random.default_rng(seed).standard_normal(unit.n)
    x1 = unit.preconditioner().solve(rhs.astype(unit.K.dtype)) / (h * h)
    xh = prec.solve(rhs.astype(zoomed.K.dtype))
    assert np.linalg.norm(xh - x1) <= 1e-12 * np.linalg.norm(x1)


@st.composite
def landau_boxes(draw):
    """A drawn box form with a constant field b != 0 in Landau gauge and
    constant V and gamma: every interior x1 column of P is the same."""
    s = draw(st.floats(0.1, 0.3))
    nx, ny = draw(st.integers(8, 20)), draw(st.integers(8, 20))
    bc = tuple((draw(FACES), draw(FACES)) for _ in range(2))
    dom = ge.rectangle(((0.0, (nx - 1) * s), (0.0, (ny - 1) * s)), bc)
    b = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    spec = ge.GeometrySpec(domain=dom, V=draw(st.floats(-1.0, 2.0)),
                           A=ge.landau_gauge(b, draw(st.floats(-1.0, 1.0))),
                           gamma=draw(st.floats(-1.0, 1.0)))
    return dz.assemble(spec, draw(st.floats(0.1, 1.0)), dz.build_grid(spec, s))


@PROPERTY
@given(landau_boxes(), st.integers(0, 2 ** 32 - 1))
def test_landau_preconditioner_is_exact(form, seed):
    # whatever the faces, the Fourier-capacitance solve takes the form and
    # solves P = K + tau M to rounding
    assert form.grid.n_nodes <= MAX_NODES
    prec = form.preconditioner()
    assert isinstance(prec, dz._FourierSolve)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n)
    P = form.K + form.preconditioner_shift() * sp.diags(form.weight)
    assert np.linalg.norm(P @ prec.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


@st.composite
def reflections(draw):
    """(half form, doubled form): a half-box with a Neumann face on x = 0
    and its even reflection across that face, at the same spacing, with V
    and gamma even in x and gamma = 0 on x = 0."""
    s = draw(st.floats(0.1, 0.3))
    n, ny = draw(st.integers(8, 14)), draw(st.integers(8, 14))
    far = draw(FACES)
    ybc = (draw(FACES), draw(FACES))
    y0 = draw(st.floats(-1.0, 1.0))
    v0, v1, v2 = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    g = draw(st.floats(-1.0, 1.0))
    h = draw(st.floats(0.1, 1.0))
    L, ys = (n - 1) * s, (y0, y0 + (ny - 1) * s)

    def form(dom):
        spec = ge.GeometrySpec(
            domain=dom,
            V=lambda pts: v0 + v1 * pts[:, 0] ** 2 + v2 * pts[:, 1],
            gamma=lambda pts: g * pts[:, 0] ** 2)
        return dz.assemble(spec, h, dz.build_grid(spec, s))

    return (form(ge.rectangle(((0.0, L), ys), (("robin", far), ybc))),
            form(ge.rectangle(((-L, L), ys), ((far, far), ybc))))


@PROPERTY
@given(reflections(), st.integers(0, 2 ** 32 - 1), st.floats(2.0, 8.0))
def test_neumann_reflection(case, seed, p):
    # Q_full(psi~) = 2 Q_half(psi) and |psi~|_p^p = 2 |psi|_p^p for the
    # even reflection psi~ of psi across the Neumann face
    half, full = case
    assert full.grid.n_nodes <= MAX_NODES
    psi = dz.random_field(half.grid, np.random.default_rng(seed))
    rows = psi.values.reshape(half.grid.shape)
    mirror = dz.WaveFunction(full.grid, np.concatenate([rows[:0:-1], rows]).ravel())
    x = np.abs(half.free_values(psi))
    scale = float(x @ (abs(half.K) @ x))
    assert abs(full.energy(mirror) - 2.0 * half.energy(psi)) <= 1e-12 * scale
    mass = psi.norm_lp(p) ** p
    assert abs(mirror.norm_lp(p) ** p - 2.0 * mass) <= 1e-12 * mass
