"""Planar builtins, the eigenvalue curve tracer and the circle extrema, pure Python.

For a positively homogeneous map f of the plane, the eigenvalue curve is
theta -> sigma(theta) = f(e^{i theta}) e^{-i theta}, and the growth rates d
and q are the minimum and maximum of |f| on the unit circle, which is
|sigma(theta)| there.  Both are loops over angles.  `trace_curve` bisects
arcs until every chord meets a bound, and `circle_extrema` samples a grid
of angles once and polishes its least and its largest sample by
`golden_min`, the package's one golden-section search.  Each reads its
function through a batch evaluator, from a list of angles to a list of
values, and `spec2d` and `classify` hand them the builtins below on
floats.  `homog2d.sigma_curve` traces any map by the same rule in numpy
arrays, so neither side converts between lists and arrays.

Each planar builtin is one formula (x, y, hypot) -> (u, v), with f(x + iy)
= u + iv.  Its operators act alike on floats and on numpy arrays, and its
hypot is the one it is handed: `_hypot` on floats, and np.hypot when `maps`
evaluates it on arrays of points.  Both round as C's hypot does, so a
builtin has the same bits either way.  `builtin` returns the map as a
`MapSpec` whose evaluator is the formula, as `dini` returns the one
dimensional builtins; `maps` turns it into an array evaluator.

The module imports no numpy, so `spec2d` runs on bare Python.
"""
from __future__ import annotations

import math
from itertools import chain, compress, islice, repeat
from math import cos, sin
from operator import lt, sub

from .core import MapSpec, NumericError, PreconditionError, Record

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPHERE_DIRECTIONS = 1024  # sampled unit vectors of the growth rates d and q
MAX_POW = 64  # the largest norm_plus_i_im_pow exponent


# ---------------------------------------------------------------------------
# the planar builtins


def _hypot(x: float, y: float) -> float:
    """C's hypot, which complex abs calls, as np.hypot does; math.hypot rounds its own way."""
    return abs(complex(x, y))


def _plane(name: str, formula, homogeneous: bool = True, matrix=None) -> MapSpec:
    return MapSpec(name=name, dim=2, evaluator=formula, homogeneous=homogeneous, complex_pairs=True,
                   sphere_matrix=None if matrix is None else (lambda r: matrix))


def _norm_plus_i_im(x, y, hypot):
    return hypot(x, y), y


def _real_linear(s=1.0, t=0.0, u=0.0, v=1.0) -> MapSpec:
    def formula(x, y, hypot):
        return s * x + t * y, u * x + v * y

    return _plane(f"real_linear({s},{t},{u},{v})", formula, matrix=((s, t), (u, v)))


def _norm_plus_i_im_pow(n=2) -> MapSpec:
    if not 2 <= n <= MAX_POW:  # on the value as given: int(1e300) prints 301 digits
        raise PreconditionError(f"norm_plus_i_im_pow needs 2 <= n <= {MAX_POW}, got {n:.16g}")
    n = int(n)

    def formula(x, y, hypot):
        return hypot(x, y), y ** n

    return _plane(f"norm_plus_i_im_pow({n})", formula, homogeneous=False)


BUILTINS = {
    "abs_re_plus_i_im": lambda: _plane("abs_re_plus_i_im", lambda x, y, hypot: (abs(x), y)),
    "half_abs_re_plus_i_im": lambda: _plane("half_abs_re_plus_i_im", lambda x, y, hypot: (0.5 * abs(x), y)),
    "real_linear": _real_linear,
    "norm_plus_i_im": lambda: _plane("norm_plus_i_im", _norm_plus_i_im),
    "cardioid_map": lambda: _plane("cardioid_map", _norm_plus_i_im),
    "norm_plus_i_im_pow": _norm_plus_i_im_pow,
    "norm_only": lambda: _plane("norm_only", lambda x, y, hypot: (hypot(x, y), 0.0)),
}


def builtin(name: str, **params) -> MapSpec:
    """A planar builtin by name, its evaluator the formula (x, y, hypot) -> (u, v)."""
    return BUILTINS[name](**params)


def require_planar_homogeneous(f: MapSpec) -> None:
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")
    if not f.homogeneous:
        raise PreconditionError(f"map {f.name} does not declare positive homogeneity")


def curve_at(f: MapSpec):
    """angles -> sigma(theta) = f(e^{i theta}) e^{-i theta} of a builtin, as complex numbers."""
    formula = f.evaluator

    def values(thetas):
        out = []
        for t in thetas:
            c, s = cos(t), sin(t)
            u, v = formula(c, s, _hypot)
            out.append(complex(u * c + v * s, v * c - u * s))  # (u + iv)(c - is) as Python multiplies it
        return out

    return values


def moduli_at(f: MapSpec):
    """angles -> |f(e^{i theta})| = sqrt(u^2 + v^2) of a builtin, the bits of np.linalg.norm on the plane."""
    formula = f.evaluator

    def moduli(thetas):
        out = []
        for t in thetas:
            u, v = formula(cos(t), sin(t), _hypot)
            out.append(math.sqrt(u * u + v * v))  # u ** 2 raises OverflowError where numpy reads inf
        return out

    return moduli


# ---------------------------------------------------------------------------
# the eigenvalue curve


class SigmaCurve(Record):
    """Sampled eigenvalue curve: thetas strictly increasing in [0, 2pi), values the complex samples.

    Lists from `trace_curve`, numpy arrays from `homog2d.sigma_curve`.
    """

    thetas: object
    values: object
    chord_bound: float
    chord_met: bool

    def is_point(self, tol: float = 1e-9) -> bool:
        v = self.values
        return all(abs(x - v[0]) <= tol for x in v)


def start_samples(samples: int, max_samples: int) -> int:
    """The n angles i * 2pi / n a trace starts at: max(16, samples rounded up to a multiple of 4)."""
    if not 1 <= samples <= max_samples:
        raise PreconditionError(f"curve samples must lie in [1, {max_samples}], got {samples}")
    return max(16, 4 * math.ceil(samples / 4))


def trace_curve(values_at, samples: int = 1024, chord_bound: float = 1e-3,
                max_samples: int = 1 << 20) -> SigmaCurve:
    """Trace the eigenvalue curve, bisecting arcs until the chord bound holds.

    values_at maps a list of angles to their curve values.  The curve starts
    at the `start_samples` angles i * 2pi / n, which are np.linspace's.
    Every round sweeps every chord, bisects each arc whose chord exceeds
    chord_bound, in angle order, and evaluates only the new midpoints.  Past
    max_samples the first arcs are bisected, and the curve is returned with
    chord_met False.
    """
    n = start_samples(samples, max_samples)
    thetas = list(map((TWO_PI / n).__mul__, range(n)))
    values = values_at(thetas)
    while True:  # arc i ends at sample i + 1, the last at sample 0
        gaps = map(abs, map(sub, chain(islice(values, 1, None), values[:1]), values))
        over = map(lt, repeat(chord_bound), gaps)
        room = max_samples - len(thetas)
        bad = list(islice(compress(range(len(values)), over), max(room, 0)))
        if not bad:  # no chord over the bound, or no room: then `over` is unread
            break
        thetas.append(TWO_PI)
        mids = [0.5 * (thetas[i] + thetas[i + 1]) for i in bad]
        thetas.pop()
        mid_values = values_at(mids)
        if len(mids) == len(thetas):  # every arc is bisected: interleave
            thetas, values = _interleave(thetas, mids), _interleave(values, mid_values)
            continue
        new_t, new_v, lo = [], [], 0
        for i, t, v in zip(bad, mids, mid_values):
            new_t += thetas[lo:i + 1]
            new_v += values[lo:i + 1]
            new_t.append(t)
            new_v.append(v)
            lo = i + 1
        thetas, values = new_t + thetas[lo:], new_v + values[lo:]
    return SigmaCurve(thetas, values, chord_bound, not any(over))


def _interleave(a: list, b: list) -> list:
    out = a + b
    out[0::2], out[1::2] = a, b
    return out


# ---------------------------------------------------------------------------
# extrema on the circle


def golden_min(fn, a: float, b: float) -> tuple[float, float]:
    """Golden-section search for a minimum of fn on [a, b], 60 steps; returns (x, fn(x)).

    One fn call per step, on floats.
    """
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(60):
        if fc <= fd:  # keep [a, d]: d <- c and c is new
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:  # keep [c, b]: c <- d and d is new
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def circle_extrema(moduli, name: str) -> tuple[float, float]:
    """(min, max) over the angles of the function moduli evaluates.

    moduli maps a list of angles to their values.  They are sampled once, at
    the n = SPHERE_DIRECTIONS angles 2pi (k + 1/2) / n, and each extremum
    polishes its best sample by `golden_min` over its angle plus or minus
    one spacing, the maximum as the minimum of -moduli.  A sample or an
    extremum that is not finite (|f|^2 overflows) is a NumericError that
    names the map.
    """
    n = SPHERE_DIRECTIONS
    dt = TWO_PI / n
    thetas = [TWO_PI * ((k + 0.5) / n) for k in range(n)]
    sampled = moduli(thetas)
    extrema = []
    for sign in (1.0, -1.0):
        signed = [sign * m for m in sampled]
        k = min(range(n), key=signed.__getitem__)
        _, polished = golden_min(lambda t: sign * moduli([t])[0], thetas[k] - dt, thetas[k] + dt)
        extrema.append(sign * min(signed[k], polished))
    if not all(map(math.isfinite, extrema + sampled)):
        raise NumericError(f"|f| of {name} is not finite on the circle")
    return tuple(extrema)
