"""Key-value geometry configs for the CLI.

Schema (one `key = value` per line, `#` comments):

    domain   = disk | rectangle | plane | half-plane | interval | line |
               half-line | strip
    radius   = 1.0                   # disk
    center   = 0 0                   # disk; the center of the presets
    bounds   = -1 1 -1 1             # rectangle: xlo xhi ylo yhi; interval:
                                     # lo hi; strip: its s-range s_lo s_hi
    bc       = robin robin robin robin   # rectangle / interval: faces
                                         # xlo xhi ylo yhi (lo hi)
    halfwidth = 10                   # plane / half-plane / line / half-line
    V        = 1.0 | quadratic a b | x1-quadratic a b
    B        = 0 | constant b | x1-quadratic a b        (2D only)
    gamma    = -0.3 | quadratic a b | x1-quadratic a b | dirichlet |
               angular-dip base amp theta0 width

Keys are case-insensitive and each is set once (`Gamma` after `gamma` is
a repeat); an unknown key, a repeat, and a shape key that the chosen
domain does not use (`radius` on a rectangle) are ConfigErrors.
Every number must be finite, `radius` and `halfwidth` positive, each
`bounds` pair increasing and `center` two numbers; a bare number is a
constant.  Dirichlet data is a face condition: `bc` names it face by face
on rectangles and intervals, and `gamma = dirichlet` makes every Robin
face of the domain Dirichlet (with gamma = 0, which no face then reads).
On a disk, `gamma = dirichlet` is the only Dirichlet spelling.
Field presets: `quadratic a b` means a + b |x - center|^2; `x1-quadratic`
uses the first coordinate only; `constant b` is taken in the Landau gauge
A = (-b (x2 - center_2), 0); `angular-dip` lowers gamma in a Gaussian
window of polar angle around theta0 (disk boundaries).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import GeometrySpec


def _parse_kv(text: str) -> dict:
    out = {}            # key -> (line number, value)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigError(f"{key}: set on lines {out[key][0]} and {ln}")
        out[key] = ln, val.strip()
    return {key: val for key, (_, val) in out.items()}


def _floats(key: str, val: str, n: int | None = None) -> list[float]:
    """The numbers of a value; ConfigError unless each is finite and there
    are n of them (when n is given)."""
    try:
        parts = [float(x) for x in val.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {val!r}") from exc
    if not all(np.isfinite(parts)):
        raise ConfigError(f"{key}: expected finite numbers, got {val!r}")
    if n is not None and len(parts) != n:
        raise ConfigError(f"{key}: expected {n} numbers, got {len(parts)}")
    return parts


def _preset(val: str) -> tuple[str, str]:
    """(preset name, its parameters); a value that starts with a number,
    or is empty, is `constant`."""
    kind, _, rest = val.strip().partition(" ")
    try:
        float(kind or 0)
    except ValueError:
        return kind, rest
    return "constant", val


def _parse_scalar_field(key: str, val: str, center) -> object:
    kind, rest = _preset(val)
    if kind == "constant":
        return _floats(key, rest, 1)[0]
    if kind == "quadratic":
        a, b = _floats(key, rest, 2)
        c = np.asarray(center, dtype=float)

        def f(pts, a=a, b=b, c=c):
            pts = np.atleast_2d(pts)
            return a + b * ((pts - c[: pts.shape[1]]) ** 2).sum(axis=1)

        return f
    if kind == "x1-quadratic":
        a, b = _floats(key, rest, 2)
        return lambda pts, a=a, b=b: a + b * np.atleast_2d(pts)[:, 0] ** 2
    raise ConfigError(f"{key}: unknown preset {kind!r}")


def _parse_gamma(val: str, center) -> object:
    kind, rest = _preset(val)
    if kind == "angular-dip":
        base, amp, th0, width = _floats("gamma", rest, 4)
        c = np.asarray(center, dtype=float)

        def g(pts, base=base, amp=amp, th0=th0, width=width, c=c):
            pts = np.atleast_2d(pts)
            th = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
            d = np.angle(np.exp(1j * (th - th0)))
            return base - amp * np.exp(-((d / width) ** 2))

        return g
    return _parse_scalar_field("gamma", val, center)


def _parse_field_b(val: str, center):
    """Returns (A callback or None, exact B callback or None)."""
    kind, rest = _preset(val)
    if kind == "constant":
        (b,) = _floats("B", rest, 1)
        if b == 0.0:
            return None, None
        A = geometry.landau_gauge(b, center[1])
        return A, (lambda pts, b=b: np.full(len(np.atleast_2d(pts)), b))
    if kind == "x1-quadratic":
        a, b = _floats("B", rest, 2)

        def A(pts, a=a, b=b):
            pts = np.atleast_2d(pts)
            x1 = pts[:, 0]
            out = np.zeros_like(pts)
            out[:, 1] = a * x1 + b * x1 ** 3 / 3.0
            return out

        return A, (lambda pts, a=a, b=b: a + b * np.atleast_2d(pts)[:, 0] ** 2)
    raise ConfigError(f"B: unknown preset {kind!r}")


def _positive(key: str, val: str) -> float:
    (x,) = _floats(key, val, 1)
    if x <= 0.0:
        raise ConfigError(f"{key}: expected a number > 0, got {val!r}")
    return x


_FACES = ("robin", "dirichlet", "truncation")
_KEYS = ("domain", "radius", "center", "bounds", "bc", "halfwidth", "v", "b",
         "gamma")
_HALFWIDTH_DOMAINS = {"plane": geometry.plane, "half-plane": geometry.half_plane,
                      "line": geometry.line, "half-line": geometry.half_line}
# the shape keys each domain reads; the others are errors there
_SHAPE_KEYS = {"disk": ("radius",), "rectangle": ("bounds", "bc"),
               "interval": ("bounds", "bc"), "strip": ("bounds",),
               **dict.fromkeys(_HALFWIDTH_DOMAINS, ("halfwidth",))}


def parse_geometry(text: str) -> tuple[GeometrySpec, dict]:
    """GeometrySpec plus the resolved key-value dict (for output embedding)."""
    kv = _parse_kv(text)
    for key in kv:
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown key (known: {', '.join(_KEYS)})")
    resolved = dict(kv)
    kind = kv.get("domain")
    if kind is None:
        raise ConfigError("domain: key is required")
    if kind not in _SHAPE_KEYS:
        raise ConfigError(f"domain: unknown kind {kind!r}")
    for key in ("radius", "bounds", "bc", "halfwidth"):
        if key in kv and key not in _SHAPE_KEYS[kind]:
            raise ConfigError(f"{key}: not used by domain = {kind}")
    center = _floats("center", kv.get("center", "0 0"), 2)

    if kind == "disk":
        dom = geometry.disk(_positive("radius", kv.get("radius", "1")),
                            tuple(center))
    elif kind in _HALFWIDTH_DOMAINS:
        dom = _HALFWIDTH_DOMAINS[kind](_positive("halfwidth",
                                                 kv.get("halfwidth", "10")))
    else:
        if "bounds" not in kv:
            raise ConfigError(f"bounds: required for domain = {kind}")
        b = _floats("bounds", kv["bounds"], 4 if kind == "rectangle" else 2)
        if any(lo >= hi for lo, hi in zip(b[::2], b[1::2])):
            raise ConfigError(f"bounds: each pair needs lo < hi, got {kv['bounds']!r}")
        if kind == "strip":
            dom = geometry.strip(b[0], b[1])
        elif kind == "interval":    # one face per bound
            bcs = kv.get("bc", "robin truncation").split()
            if len(bcs) != len(b) or any(x not in _FACES for x in bcs):
                raise ConfigError(f"bc: need {len(b)} of {_FACES}")
            dom = geometry.interval(b[0], b[1], tuple(bcs))
        else:
            bcs = kv.get("bc", "robin robin robin robin").split()
            if len(bcs) != len(b) or any(x not in _FACES for x in bcs):
                raise ConfigError(f"bc: need {len(b)} of {_FACES}")
            dom = geometry.rectangle(((b[0], b[1]), (b[2], b[3])),
                                     ((bcs[0], bcs[1]), (bcs[2], bcs[3])))

    V = _parse_scalar_field("V", kv.get("v", "0"), center)
    A, B = _parse_field_b(kv.get("b", "0"), center)
    if A is not None and dom.dim == 1:
        raise ConfigError("B: magnetic fields need dimension 2")
    gamma = kv.get("gamma", "0")
    if gamma.lower() == "dirichlet":
        bc = tuple(tuple("dirichlet" if f == "robin" else f for f in axis)
                   for axis in dom.bc)
        dom, gamma = replace(dom, bc=bc), 0.0
    else:
        gamma = _parse_gamma(gamma, center)
    spec = GeometrySpec(domain=dom, V=V, A=A, gamma=gamma, B=B)
    return spec, resolved


def load_geometry(path: str) -> tuple[GeometrySpec, dict]:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return parse_geometry(text)

