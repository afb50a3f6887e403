"""Planar builtins, the eigenvalue curve tracer and the circle extrema, pure Python.

For a positively homogeneous map f of the plane, the eigenvalue curve is
theta -> sigma(theta) = f(e^{i theta}) e^{-i theta}, and the growth rates d
and q are the minimum and maximum of |f| on the unit circle, which is
|sigma(theta)| there.  Both are loops over angles.  `trace_curve` bisects
arcs until every chord meets a bound, and `circle_extrema` samples a grid
of angles once and polishes its least and its largest sample by
`golden_min`, the package's one golden-section iteration: each update is a
`where`, on floats here and np.where when `numerics` searches arrays of
brackets.  Each reads its function through a batch evaluator, from a list
of angles to a list of values: `spec2d` and `classify` hand
`circle_extrema` the builtins below on floats, and `homog2d` hands
`trace_curve` any map on numpy arrays.

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
from itertools import compress, repeat
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
    """angles -> |f(e^{i theta})| of a builtin, the squares summed as `numerics.row_norm` sums them."""
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

    `trace_curve` holds them in lists and `homog2d.sigma_curve` in numpy
    arrays; `pairs` gives the (n, 2) array the array engines read.
    """

    thetas: object
    values: object
    chord_bound: float
    chord_met: bool

    def pairs(self):
        import numpy as np  # for the array engines; spec2d never asks

        v = np.asarray(self.values, dtype=complex)
        return np.stack([v.real, v.imag], axis=-1)

    def _samples(self) -> list:
        return self.values if isinstance(self.values, list) else self.values.tolist()

    def is_point(self, tol: float = 1e-9) -> bool:
        v = self._samples()
        return all(abs(x - v[0]) <= tol for x in v)


def trace_curve(values_at, samples: int = 1024, chord_bound: float = 1e-3,
                max_samples: int = 1 << 20) -> SigmaCurve:
    """Trace the eigenvalue curve, bisecting arcs until the chord bound holds.

    values_at maps a list of angles to their curve values.  The curve starts
    at max(16, samples rounded up to a multiple of 4) equally spaced angles,
    i * 2pi / n, which are np.linspace's.  Every round bisects each arc whose
    chord exceeds chord_bound, in angle order, and evaluates only the new
    midpoints; an arc not bisected keeps its chord, so only the new halves
    are tested again.  Past max_samples the first arcs are bisected, and the
    curve is returned with chord_met False.
    """
    if not 1 <= samples <= max_samples:
        raise PreconditionError(f"curve samples must lie in [1, {max_samples}], got {samples}")
    n = max(16, 4 * math.ceil(samples / 4))
    thetas = list(map((TWO_PI / n).__mul__, range(n)))
    values = values_at(thetas)
    check = None  # the arcs whose chords are untested, None for all; arc i ends at sample i + 1, or 0
    while True:
        if check is None:
            gaps = map(abs, map(sub, values[1:] + values[:1], values))
            bad = list(compress(range(len(values)), map(lt, repeat(chord_bound), gaps)))
        else:
            values.append(values[0])
            bad = [i for i in check if abs(values[i + 1] - values[i]) > chord_bound]
            values.pop()
        room = max_samples - len(thetas)
        met = not bad
        if met or room <= 0:
            break
        thetas.append(TWO_PI)
        mids = [0.5 * (thetas[i] + thetas[i + 1]) for i in bad[:room]]
        thetas.pop()
        mid_values = values_at(mids)
        if len(mids) == len(thetas):  # every arc is bisected: interleave
            thetas, values = _interleave(thetas, mids), _interleave(values, mid_values)
            check = None
            continue
        new_t, new_v, check, lo = [], [], [], 0
        for i, t, v in zip(bad, mids, mid_values):
            new_t += thetas[lo:i + 1]
            new_v += values[lo:i + 1]
            new_t.append(t)
            new_v.append(v)
            check += (len(new_t) - 2, len(new_t) - 1)
            lo = i + 1
        thetas, values = new_t + thetas[lo:], new_v + values[lo:]
        if len(bad) > room:  # the rest of the arcs stay over the bound
            break
    return SigmaCurve(thetas, values, chord_bound, met)


def _interleave(a: list, b: list) -> list:
    out = a + b
    out[0::2], out[1::2] = a, b
    return out


# ---------------------------------------------------------------------------
# extrema on the circle


def golden_min(fn, a, b, where=lambda left, x, y: x if left else y):
    """Golden-section search for a minimum of fn on [a, b], 60 steps; returns (x, fn(x)).

    The package's one golden-section iteration, on floats and on arrays:
    every update is where(left, x, y), x if left else y on floats, and
    np.where when `numerics.golden_min` searches every element of an array
    of brackets in lockstep, one fn call per step on the whole array.
    """
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(60):
        left = fc <= fd  # keep [a, d]: d <- c and c is new; else keep [c, b]: c <- d and d is new
        a, b = where(left, a, c), where(left, d, b)
        x = where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fx = fn(x)
        c, d, fc, fd = where(left, x, d), where(left, c, x), where(left, fx, fd), where(left, fc, fx)
    left = fc <= fd
    return where(left, c, d), where(left, fc, fd)


def circle_extrema(moduli, name: str) -> tuple[float, float]:
    """(min, max) over the angles of the function moduli evaluates.

    moduli maps a list of angles to their values.  They are sampled once, at
    the n = SPHERE_DIRECTIONS angles 2pi (k + 1/2) / n, the directions of
    `numerics.sphere_directions(2, n)`, and each extremum polishes its best
    sample by `golden_min` over its angle plus or minus one spacing, the
    maximum as the minimum of -moduli.  A sample or an extremum that is not
    finite (|f|^2 overflows) is a NumericError that names the map.
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
