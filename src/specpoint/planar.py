"""Planar builtins, the eigenvalue curve tracer and the growth rates, pure Python.

For a positively homogeneous map f of the plane, the eigenvalue curve is
theta -> sigma(theta) = f(e^{i theta}) e^{-i theta}, and the growth rates d
and q are the minimum and maximum of |f| on the unit circle, which is
|sigma(theta)| there.  `trace_curve` bisects arcs until every chord meets a
bound, reading its function through a batch evaluator, from a list of
angles to a list of values; `spec2d` hands it the builtins below on floats.
`homog2d.sigma_curve` traces any map by the same rule in numpy arrays, so
neither side converts between lists and arrays.  `growth_rates` reads d and
q off the curve that either tracer returns, at its extremal samples, or
from the matrix a map declares: one sampling of the circle per command.

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
# the growth rates


def growth_rates(f: MapSpec, curve: SigmaCurve | None = None) -> tuple[float, float]:
    """(d, q): the minimum and the maximum of |f| on the unit circle, of a builtin.

    A map that declares its sphere matrix [[s, t], [u, v]] has them as the
    extreme singular values of the matrix, in closed form: q = (|(s + v, u -
    t)| + |(s - v, t + u)|) / 2 and d = |sv - tu| / q, taken on the matrix
    scaled by its largest |entry| and scaled back, so that no product
    underflows or overflows (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 8.6).  Any other map needs its traced curve, in lists or in numpy
    arrays: |f| is evaluated again on floats, by its formula and `_hypot`,
    at the angles of the least and the largest |sigma| sample.  The two
    tracers round their samples apart but share their angles, so both give
    the same bits.  A q whose square is not finite (|f|^2 overflows on the
    circle) is a NumericError that names the map.
    """
    if f.sphere_matrix is not None:
        (s, t), (u, v) = f.sphere_matrix(1.0)
        scale = max(abs(s), abs(t), abs(u), abs(v)) or 1.0
        s, t, u, v = s / scale, t / scale, u / scale, v / scale
        q = 0.5 * (_hypot(s + v, u - t) + _hypot(s - v, t + u))
        d, q = (abs(s * v - t * u) / q if q else 0.0) * scale, q * scale
    else:
        moduli = list(map(abs, curve.values))
        angles = (curve.thetas[moduli.index(m)] for m in (min(moduli), max(moduli)))
        d, q = (_hypot(*f.evaluator(cos(a), sin(a), _hypot)) for a in angles)
    if not (math.isfinite(d) and math.isfinite(q * q)):
        raise NumericError(f"|f| of {f.name} is not finite on the circle")
    return d, q
