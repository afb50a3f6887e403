"""The builtins on floats, the eigenvalue curve tracer, the growth rates and the planar scan, pure Python.

For a positively homogeneous map f of the plane, the eigenvalue curve is
theta -> sigma(theta) = f(e^{i theta}) e^{-i theta}, and the growth rates d
and q are the minimum and maximum of |f| on the unit circle, which is
|sigma(theta)| there.  `trace_curve` bisects arcs until every chord meets a
bound, reading its function through a batch evaluator, from angles to a
list of values; `spec2d` and the planar scan hand it the builtins below on
floats.  `homog2d.sigma_curve` traces any map by the same rule in numpy
arrays, so neither side converts between lists and arrays.
`growth_rates` reads d and q off the curve that either tracer returns, at
its extremal samples, or from the matrix a map declares: one sampling of
the circle per command.

Each planar builtin is one formula (x, y, hypot) -> (u, v), with f(x + iy)
= u + iv.  Its operators act alike on floats and on numpy arrays, and its
hypot is the one it is handed: `_hypot` on floats, and np.hypot when `maps`
evaluates it on arrays of points.  Both round as C's hypot does, so a
builtin has the same bits either way.  `builtin` returns the map as a
`MapSpec` whose evaluator is the formula, as `dini` returns the one
dimensional builtins; `maps` turns it into an array evaluator.  The two
builtins of other dimensions, conj_pair and norm_times_x, are linear on
each sphere about the origin, and `builtin` returns them too, with their
evaluators on arrays of points (and norm_times_x(1) on a bare float).

A builtin that is linear on each sphere declares its exact sphere minimum
(lam, r) -> min over unit u of |lam u - f(r u) / r| on floats, and
`bifurcate --fn` reads it at each lam.  Any other planar builtin is
scanned on sigma_r, traced once, by `curve_distances`.

The module imports no numpy, so `spec2d` and every `bifurcate` run on bare
Python.
"""
from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, islice, repeat
from math import cos, isfinite, sin, sqrt
from operator import add, lt, sub

from .core import NAMES_1D, MapSpec, NumericError, PreconditionError, Record, UnsupportedError

TWO_PI = 2.0 * math.pi
MAX_POW = 64  # the largest norm_plus_i_im_pow exponent
MAX_DIM = 16  # the largest norm_times_x dimension
CHUNK = 1 << 13  # arcs of a trace round, and samples of a growth-rate pass, handled at a time
SCAN_SAMPLES = 2048  # the start samples of the curve a planar scan traces, to the chord bound tol / 16


# ---------------------------------------------------------------------------
# the planar builtins


def _hypot(x: float, y: float) -> float:
    """C's hypot, which complex abs calls, as np.hypot does; math.hypot rounds its own way."""
    return abs(complex(x, y))


def _plane(name: str, formula, homogeneous: bool = True, **declared) -> MapSpec:
    return MapSpec(name=name, dim=2, evaluator=formula, homogeneous=homogeneous, complex_pairs=True, **declared)


def _norm_plus_i_im(x, y, hypot):
    return hypot(x, y), y


def _singular_values(s: float, t: float, u: float, v: float) -> tuple[float, float]:
    """The least and the largest singular value of [[s, t], [u, v]], in closed form.

    q = (|(s + v, u - t)| + |(s - v, t + u)|) / 2 and d = |sv - tu| / q,
    taken on the matrix scaled by its largest |entry| and scaled back, so
    that no product underflows or overflows (Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 8.6).
    """
    scale = max(abs(s), abs(t), abs(u), abs(v)) or 1.0
    s, t, u, v = s / scale, t / scale, u / scale, v / scale
    q = 0.5 * (_hypot(s + v, u - t) + _hypot(s - v, t + u))
    return (abs(s * v - t * u) / q if q else 0.0) * scale, q * scale


def _real_linear(s=1.0, t=0.0, u=0.0, v=1.0) -> MapSpec:
    name = f"real_linear({s},{t},{u},{v})"

    def formula(x, y, hypot):
        return s * x + t * y, u * x + v * y

    def sphere_min(lam: complex, r: float) -> float:
        # sigma_min(R(lam) - A), R(a + ib) = [[a, -b], [b, a]] the matrix of u -> lam u
        a, b = lam.real, lam.imag
        entries = (a - s, -b - t, b - u, a - v)
        if not all(map(isfinite, entries)):
            raise NumericError(f"lam*id - f of {name} has a non-finite matrix entry")
        return _singular_values(*entries)[0]

    return _plane(name, formula, sphere_matrix=lambda r: ((s, t), (u, v)), sphere_min=sphere_min)


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


# ---------------------------------------------------------------------------
# the builtins of other dimensions, linear on each sphere


def _conj_pair_map(x):
    """(z, w) -> (conj w, i conj z) on arrays of points (x1, y1, x2, y2) of R^4: R-linear."""
    out = x.copy()
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x[..., 2], -x[..., 3], x[..., 1], x[..., 0]
    return out


def _conj_pair_min(lam: complex, r: float) -> float:
    """sqrt(|lam|^2 - sqrt(2) |lam| + 1), at least 1/sqrt(2), as a hypot that overflows to no error.

    For unit u = (z, w), |lam u - f(u)|^2 = |lam|^2 + 1 - 2 Re(lam (1 - i) z w),
    and |z w| <= 1/2 with equality where the phase of z w makes the real part |lam| / sqrt(2).
    """
    return math.hypot(math.hypot(lam.real, lam.imag) - math.sqrt(0.5), math.sqrt(0.5))


def _norm_times_x(dim=2) -> MapSpec:
    """x -> |x| x: on the sphere of radius r it is x -> r x, so its sphere minimum is |lam - r|."""
    if not 1 <= dim <= MAX_DIM:  # on the value as given: int(1e300) prints 301 digits
        raise PreconditionError(f"norm_times_x needs 1 <= dim <= {MAX_DIM}, got {dim:.16g}")
    dim = int(dim)
    name = f"norm_times_x({dim})"

    def ev(x):  # a bare float or an array of them in dimension 1, else an array of points
        return x * abs(x) if dim == 1 else x * (x * x).sum(axis=-1, keepdims=True) ** 0.5

    def sphere_min(lam: complex, r: float) -> float:
        if lam.imag:
            raise PreconditionError("complex scalar acting on a map without complex structure")
        if not isfinite(lam.real - r):
            raise NumericError(f"lam*id - f of {name} has a non-finite matrix entry")
        return abs(lam.real - r)

    return MapSpec(name=name, dim=dim, evaluator=ev, sphere_min=sphere_min)


SPHERE_BUILTINS = {
    "conj_pair": lambda: MapSpec(name="conj_pair", dim=4, evaluator=_conj_pair_map, homogeneous=True,
                                 complex_pairs=True, sphere_min=_conj_pair_min),
    "norm_times_x": _norm_times_x,
}
BUILTIN_NAMES = tuple(sorted([*BUILTINS, *SPHERE_BUILTINS, *NAMES_1D]))


def builtin(name: str, **params) -> MapSpec:
    """A builtin of dimension 2 or more by name (parameters by keyword); an unknown name is an UnsupportedError.

    A planar one has the formula (x, y, hypot) -> (u, v) as its evaluator.
    """
    factory = BUILTINS.get(name) or SPHERE_BUILTINS.get(name)
    if factory is None:
        raise UnsupportedError(f"unknown builtin {name!r}; known names: {', '.join(BUILTIN_NAMES)}")
    return factory(**params)


def require_planar_homogeneous(f: MapSpec) -> None:
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")
    if not f.homogeneous:
        raise PreconditionError(f"map {f.name} does not declare positive homogeneity")


def curve_at(f: MapSpec, radius: float = 1.0):
    """angles -> sigma_r(theta) = f(r e^{i theta}) e^{-i theta} / r of a builtin, as complex numbers.

    f(r z) / r is scaled by 1 / r, as numpy divides by a real: at a subnormal r, 1 / r is inf.
    """
    formula = f.evaluator
    if radius != 1.0:
        inv = 1.0 / radius

        def formula(x, y, hypot, at_1=f.evaluator):
            u, v = at_1(radius * x, radius * y, hypot)
            return u * inv, v * inv

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

    An array('d') and a list from `trace_curve`, numpy arrays from `homog2d.sigma_curve`.
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


def _chords(values: list):
    """The chord lengths of the closed polygon through the samples, lazily: chord i ends at sample i + 1, the last at 0."""
    return map(abs, map(sub, chain(islice(values, 1, None), values[:1]), values))


def trace_curve(values_at, samples: int = 1024, chord_bound: float = 1e-3,
                max_samples: int = 1 << 20) -> SigmaCurve:
    """Trace the eigenvalue curve, bisecting arcs until the chord bound holds.

    values_at maps a sequence of angles to the list of their curve values.
    The curve starts at the `start_samples` angles i * 2pi / n, which are
    np.linspace's.  Every round sweeps every chord, bisects each arc whose
    chord exceeds chord_bound, in angle order, and evaluates only the new
    midpoints.  Past max_samples the first arcs are bisected, and the curve
    is returned with chord_met False.

    The angles are an array('d') and the values a list, grown in place:
    from the last block of CHUNK arcs back, each block of samples moves up
    by the number of arcs bisected before it, with the midpoints of its own
    arcs after their starts, so no sample below the block has moved yet.
    A trace holds little more than the curve it returns, 48 bytes a sample.
    """
    n = start_samples(samples, max_samples)
    thetas = array("d", map((TWO_PI / n).__mul__, range(n)))
    values = values_at(thetas)
    while True:
        over = map(lt, repeat(chord_bound), _chords(values))
        room = max_samples - n
        bad = array("q", islice(compress(range(n), over), max(room, 0)))
        if not bad:  # no chord over the bound, or no room: then `over` is unread
            break
        k = len(bad)
        thetas.frombytes(bytes(8 * k))  # placeholders, overwritten below
        values.extend(repeat(None, k))
        hi, stop = n, k
        while hi > 0:
            lo = max(hi - CHUNK, 0)
            first = bisect_left(bad, lo, 0, stop)  # the arcs of the block bisected: bad[first:stop]
            _grow_block(values_at, thetas, values, lo, hi, n, bad[first:stop], first)
            hi, stop = lo, first
        n += k
    return SigmaCurve(thetas, values, chord_bound, not any(over))


def _grow_block(values_at, thetas: array, values: list, lo: int, hi: int, n: int, split: array, before: int):
    """Move samples lo..hi-1 up by `before`, with the midpoints of their arcs in `split` after their starts.

    The block, at most 2 CHUNK samples, is built apart and copied into place.
    """
    end = thetas[hi] if hi < n else TWO_PI  # where the block's last arc ends, not moved yet
    if len(split) == hi - lo:  # every arc of the block is bisected: interleave
        ts = thetas[lo:hi]
        mids = array("d", map((0.5).__mul__, map(add, ts, chain(islice(ts, 1, None), (end,)))))
        block_t, block_v = array("d", [0.0]) * (2 * len(ts)), [None] * (2 * len(ts))
        block_t[0::2], block_t[1::2] = ts, mids
        block_v[0::2], block_v[1::2] = values[lo:hi], values_at(mids)
    else:  # runs of samples between the split arcs, on lists: slicing an array per run costs more
        ts, vs = thetas[lo:hi].tolist(), values[lo:hi]
        ts.append(end)
        split = list(map(sub, split, repeat(lo)))  # within the block
        mids = [0.5 * (ts[i] + ts[i + 1]) for i in split]
        block_t, block_v, at = [], [], 0
        for i, t, v in zip(split, mids, values_at(mids)):
            block_t += ts[at:i + 1]
            block_t.append(t)
            block_v += vs[at:i + 1]
            block_v.append(v)
            at = i + 1
        block_t += ts[at:-1]
        block_v += vs[at:]
        block_t = array("d", block_t)
    to = lo + before
    thetas[to:to + len(block_t)], values[to:to + len(block_v)] = block_t, block_v


# ---------------------------------------------------------------------------
# the growth rates


def growth_rates(f: MapSpec, curve: SigmaCurve | None = None) -> tuple[float, float]:
    """(d, q): the minimum and the maximum of |f| on the unit circle, of a builtin.

    A map that declares its sphere matrix has them as the extreme singular
    values of the matrix, in closed form (`_singular_values`).  Any other
    map needs its traced curve, from either tracer: |f| is evaluated again
    on floats, by its formula and `_hypot`, at the angles of the first least
    and the first largest |sigma| sample, found CHUNK samples at a time, so
    that no list of the curve's moduli is held.  The two tracers round
    their samples apart but share their angles, so both give the same bits.
    A q whose square is not finite (|f|^2 overflows on the circle) is a
    NumericError that names the map.
    """
    if f.sphere_matrix is not None:
        (s, t), (u, v) = f.sphere_matrix(1.0)
        d, q = _singular_values(s, t, u, v)
    else:
        points, lo, least, most = iter(curve.values), 0, (math.inf, 0), (-math.inf, 0)
        while moduli := list(map(abs, islice(points, CHUNK))):
            m, big = min(moduli), max(moduli)
            if m < least[0]:
                least = (m, lo + moduli.index(m))
            if big > most[0]:
                most = (big, lo + moduli.index(big))
            lo += len(moduli)
        angles = (curve.thetas[i] for _, i in (least, most))
        d, q = (_hypot(*f.evaluator(cos(a), sin(a), _hypot)) for a in angles)
    if not (math.isfinite(d) and math.isfinite(q * q)):
        raise NumericError(f"|f| of {f.name} is not finite on the circle")
    return d, q


# ---------------------------------------------------------------------------
# the planar scan on the curve


def curve_distances(f: MapSpec, lams, radius: float, tol: float) -> tuple[list, float]:
    """For each lam, a bound on its distance to sigma_r with the verdict of the nearest sample; and the chord.

    |lam u - f(r u) / r| = |lam - sigma_r(theta)| for u = e^{i theta}, so
    the residual of lam is its distance to the curve sigma_r of the planar
    builtin f, traced here once from SCAN_SAMPLES samples to the chord
    bound tol / 16.  A trace that stops at its sample cap short of the
    bound returns its longest chord, else the chord is 0; `sample_bounds`
    reads the samples, and `core.scan_verdicts` the residuals with the
    chord.  A sample that is not finite, at a subnormal r or where f
    overflows, is a NumericError naming the map and the radius.
    """
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")
    if not f.complex_pairs and any(lam.imag for lam in lams):
        raise PreconditionError("complex scalar acting on a map without complex structure")
    if max(map(abs, f.evaluator(0.0, 0.0, _hypot))) > 1e-12:  # the tolerance of `dini.sigma_distances`
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    values_at, failed = curve_at(f, radius), f"the local curve of {f.name} at radius {radius!r} is not finite"

    def finite_values(thetas):
        out = values_at(thetas)
        if not all(map(cmath.isfinite, out)):
            raise NumericError(failed)
        return out

    try:
        curve = trace_curve(finite_values, samples=SCAN_SAMPLES, chord_bound=tol / 16.0)
        chord = 0.0 if curve.chord_met else max(_chords(curve.values))
    except OverflowError:
        raise NumericError(failed) from None
    step = chord if chord else tol / 16.0  # no chord of the curve is longer
    return sample_bounds(curve.values, lams, tol, chord, step), chord


def sample_bounds(values: list, lams, tol: float, chord: float = 0.0, step: float = math.inf) -> list:
    """For each lam, the distance to one of the complex samples that gives it the verdict of the nearest sample.

    A distance is sqrt(dx^2 + dy^2), summed in that order: the arithmetic
    of a k-d tree query.  The bound of lam is the first distance below tol
    in sample order, which makes lam a candidate, or else the least
    distance below 2 tol or at most chord, which leaves it undecided (that
    one is the nearest), or else inf: `core.scan_verdicts` reads the bound
    as it reads the nearest distance.

    The samples are searched in order, each against the lams within reach
    = max(2 tol, chord) of it, found by bisection in the lams sorted by
    imaginary and then by real part (Bentley, Stanat & Williams, Inf.
    Process. Lett. 6(6), 1977): the lams, not the samples, are indexed, so
    memory does not grow with the curve.  The window is widened past reach
    by more than its rounding, 1e-160 for distances whose squares are
    subnormal, so no sample whose rounded distance is within reach falls
    outside it.  No two consecutive samples lie farther apart than step,
    so a sample whose window holds no lam skips the samples that cannot
    reach one either.  A lam leaves the search once it is a candidate, and
    the search stops when every lam has, so a huge tol costs O(lams +
    samples).  Each lam gets the bound it gets alone.
    """
    reach = max(2.0 * tol, chord)
    rows = {}  # imaginary part -> the (real part, index) of its lams
    for k, lam in enumerate(lams):
        rows.setdefault(lam.imag, []).append((lam.real, k))
    ry = sorted(rows)
    row_x, row_k = [], []  # each row's lams that are no candidate yet, in ascending real part
    for y in ry:
        row = sorted(rows[y])
        row_x.append([x for x, _ in row])
        row_k.append([k for _, k in row])
    cx = sorted({x for row in row_x for x in row})
    wide = reach + 1e-12 * (max(map(abs, cx + ry), default=0.0) + 2.0 * reach) + 1e-160
    left, best = len(lams), [math.inf] * len(lams)
    k, n = 0, len(values)
    while k < n and left:
        sx, sy = values[k].real, values[k].imag
        qa, qb = bisect_left(ry, sy - wide), bisect_right(ry, sy + wide)
        pa, pb = bisect_left(cx, sx - wide), bisect_right(cx, sx + wide)
        k += 1
        if qa == qb or pa == pb:  # no lam in reach: the next gap / step samples, step apart at most, stay out of it
            gap = max(_gap(ry, qa, sy) if qa == qb else 0.0, _gap(cx, pa, sx) if pa == pb else 0.0)
            gap -= wide + 1e-9 * (abs(sx) + abs(sy) + wide)
            if gap > 0.0 and step > 0.0:
                k += int(min(gap / step, n))
            continue
        for q in range(qa, qb):
            xs, ks = row_x[q], row_k[q]
            dy = sy - ry[q]
            dy2 = dy * dy
            for p in range(bisect_right(xs, sx + wide) - 1, bisect_left(xs, sx - wide) - 1, -1):
                dx = sx - xs[p]
                d = sqrt(dx * dx + dy2)
                if d < tol:  # a candidate: it leaves its row, from the back, so p - 1 stays in place
                    best[ks[p]] = d
                    del xs[p], ks[p]
                    left -= 1
                elif (d < 2.0 * tol or d <= chord) and d < best[ks[p]]:
                    best[ks[p]] = d
    return best


def _gap(axis: list, at: int, c: float) -> float:
    """The distance from c to the nearest of the sorted axis, whose entries below c end at index at."""
    return min(c - axis[at - 1] if at else math.inf, axis[at] - c if at < len(axis) else math.inf)
