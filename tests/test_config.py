"""Geometry config files: field presets, domain kinds and repeated keys."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semisobolev.config import parse_geometry
from semisobolev.errors import ConfigError

DISK = "domain = disk\nradius = 1.0\n"


def _polar(r, th):
    return [r * math.cos(th), r * math.sin(th)]


@pytest.mark.parametrize("text, at, pts, formula", [
    # a + b |x - center|^2
    ("domain = disk\ncenter = 0.5 -0.25\nV = quadratic 1.5 2\n",
     lambda s, x: s.v_at(x), [[0.5, -0.25], [1.5, 0.75]],
     lambda x: 1.5 + 2.0 * ((x[:, 0] - 0.5) ** 2 + (x[:, 1] + 0.25) ** 2)),
    # a + b x1^2
    (DISK + "V = x1-quadratic 1 -0.5\n",
     lambda s, x: s.v_at(x), [[0.0, 0.7], [0.6, -0.3]],
     lambda x: 1.0 - 0.5 * x[:, 0] ** 2),
    (DISK + "B = x1-quadratic 1 0.5\n",
     lambda s, x: s.B(x), [[0.0, 0.7], [0.6, -0.3]],
     lambda x: 1.0 + 0.5 * x[:, 0] ** 2),
    # the potential of that preset has exactly that curl
    (DISK + "B = x1-quadratic 1 0.5\n",
     lambda s, x: replace(s, B=None).b_at(x),
     [[0.0, 0.7], [0.6, -0.3]], lambda x: 1.0 + 0.5 * x[:, 0] ** 2),
    # base - amp exp(-(angle - theta0)^2 / width^2): the ROADMAP's disk.cfg
    (DISK + "gamma = angular-dip -0.1 0.8 0 0.5\n",
     lambda s, x: s.gamma_at(x), [_polar(1.0, 0.0), _polar(1.0, -0.5)],
     lambda x: np.array([-0.9, -0.1 - 0.8 / math.e])),
    # Dirichlet data is the rim face (test_gamma_dirichlet_faces); no face
    # reads gamma then, and it is 0
    (DISK + "gamma = dirichlet\n",
     lambda s, x: s.gamma_at(x), [[1.0, 0.0], [0.0, -1.0]],
     lambda x: np.zeros(len(x))),
], ids=["V-quadratic", "V-x1-quadratic", "B-x1-quadratic",
        "B-x1-quadratic-curl", "gamma-angular-dip", "gamma-dirichlet"])
def test_preset(text, at, pts, formula):
    spec, _ = parse_geometry(text)
    pts = np.array(pts, dtype=float)
    assert_allclose(at(spec, pts), formula(pts), rtol=1e-9)


@pytest.mark.parametrize("text, kind, bounds, bc", [
    ("domain = plane\nhalfwidth = 3\n", "rectangle", ((-3.0, 3.0), (-3.0, 3.0)),
     (("truncation", "truncation"), ("truncation", "truncation"))),
    ("domain = half-plane\nhalfwidth = 3\n", "rectangle",
     ((-3.0, 3.0), (0.0, 3.0)),
     (("truncation", "truncation"), ("robin", "truncation"))),
    ("domain = line\nhalfwidth = 3\n", "interval", ((-3.0, 3.0),),
     (("truncation", "truncation"),)),
    ("domain = half-line\nhalfwidth = 3\n", "interval", ((0.0, 3.0),),
     (("robin", "truncation"),)),
    # the y-range of a strip is always (-1, 1)
    ("domain = strip\nbounds = -2 2\n", "rectangle", ((-2.0, 2.0), (-1.0, 1.0)),
     (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"))),
], ids=["plane", "half-plane", "line", "half-line", "strip"])
def test_domain(text, kind, bounds, bc):
    spec, _ = parse_geometry(text)
    dom = spec.domain
    assert (dom.kind, dom.bounds, dom.bc) == (kind, bounds, bc)
    assert spec.dim == len(bounds)


@pytest.mark.parametrize("text, bc", [
    ("domain = rectangle\nbounds = -1 1 -1 1\nbc = robin truncation robin dirichlet\n",
     (("dirichlet", "truncation"), ("dirichlet", "dirichlet"))),
    ("domain = interval\nbounds = -1 1\nbc = robin robin\n",
     (("dirichlet", "dirichlet"),)),
    ("domain = half-line\nhalfwidth = 3\n", (("dirichlet", "truncation"),)),
    ("domain = half-plane\nhalfwidth = 3\n",
     (("truncation", "truncation"), ("dirichlet", "truncation"))),
    ("domain = strip\nbounds = -2 2\n",
     (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"))),
    (DISK, (("dirichlet",),)),
], ids=["rectangle", "interval", "half-line", "half-plane", "strip", "disk"])
def test_gamma_dirichlet_faces(text, bc):
    # `gamma = dirichlet` makes every Robin face a Dirichlet face and
    # leaves the others; gamma itself is then 0
    spec, resolved = parse_geometry(text + "gamma = dirichlet\n")
    assert spec.domain.bc == bc
    assert spec.gamma == 0.0
    assert resolved["gamma"] == "dirichlet"


@pytest.mark.parametrize("text, message", [
    (DISK + "V = 1\nV = 5\n", "v: set on lines 3 and 4"),
    # keys are case-insensitive, so a change of case is the same key
    (DISK + "Gamma = -0.3\n# a comment line still counts\ngamma = 0\n",
     "gamma: set on lines 3 and 5"),
    ("domain = disk\nDOMAIN = rectangle\n", "domain: set on lines 1 and 2"),
], ids=["V", "gamma-case", "domain"])
def test_repeated_key(text, message):
    # a repeat is an error naming the key and both lines, never a silent
    # override by the last line
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_geometry(text)
