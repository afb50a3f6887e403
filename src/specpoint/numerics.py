"""Deterministic sampling, golden-section search and the sphere-extremum kernel.

The sphere directions of dimensions 1 and 2, golden-section search on
arrays of brackets (the one iteration, `planar.golden_min`, with np.where
as its `where`), brute-force point-set distances, and `sphere_extrema`,
the one kernel behind the sphere minima of |lam u - f(r u) / r| that the
`bifurcate --fn` scan reads at its smallest radius.  A map that declares
its sphere matrix gets exact extrema from singular values, in any
dimension; a map of dimension 1 or 2 that declares none is sampled, and a
planar one polished, each extremum a function of the map, the lambdas and
the radii alone.  Every builtin of dimension 3 or more declares its sphere
matrix, and any other map of such a dimension is an UnsupportedError.  The
circle extrema of a planar builtin are `planar.circle_extrema`, on floats.
The verdicts of bifurcation scans are in `core`, so the shift scan loads
none of this module.
"""
from __future__ import annotations

import numpy as np

from . import planar
from .core import NumericError, UnsupportedError
from .maps import MapSpec, evaluate, scalar_action
from .planar import TWO_PI

CHUNK = 1 << 18  # array entries per chunk of every batched kernel


def sphere_directions(dim: int, n: int) -> np.ndarray:
    """n unit vectors in R^dim, dim 1 or 2, the same on every call.

    dim == 1 returns the two directions; dim == 2 the uniform angle grid
    2pi (k + 1/2) / n.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    return unit_points(2.0 * np.pi * ((np.arange(n) + 0.5) / n))


def golden_min(fn, lo, hi):
    """`planar.golden_min` on arrays of brackets, every element on its own; returns (x, fn(x)).

    fn maps an array of points to their values, one call per step; a 0-d
    bracket gives numpy scalars.
    """
    x, fx = planar.golden_min(fn, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), np.where)
    return x[()], fx[()]


def unit_points(thetas: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def row_norm(x: np.ndarray) -> np.ndarray:
    """|x| over the last axis, squares summed in order: np.linalg.norm's bits up to dim 7.

    np.linalg.norm in its place slows the 128 x 128 scan of norm_plus_i_im_pow(2) from 0.41 s to 0.75 s.
    """
    s = x[..., 0] ** 2
    for c in range(1, x.shape[-1]):
        s += x[..., c] ** 2
    return np.sqrt(s)


def sphere_extrema(g: MapSpec, lams: np.ndarray, radii, n: int, sign: float = 1.0) -> np.ndarray:
    """min over unit u of sign * |lam u - g(r u) / r|, times sign, for every lam and radius.

    Returns a (len(lams), len(radii)) array: sphere minima for sign 1,
    maxima for sign -1.  A g of dimension 1 or 2 that declares no sphere
    matrix has every entry sampled at the n unit vectors
    `sphere_directions(g.dim, n)`, one map evaluation per radius and CHUNK
    coordinates at a time: in dim 1 that is exact, since the sphere is two
    points; in dim 2, whose directions are a uniform angle grid, every
    entry is then polished by `golden_min` over its best angle plus or
    minus one spacing, all entries in one batch.  A positively homogeneous
    g has the same entries at every radius, so one radius is computed and
    repeated.  A g of dimension 3 or more that declares no sphere matrix is
    an UnsupportedError naming g.  lam acts through `scalar_action`, so a
    complex lam on a g without complex structure raises PreconditionError.

    A g that declares its sphere matrix, g(r u) = r A(r) u, has exact
    entries: the smallest (sign 1) or largest (sign -1) singular value of
    R(lam) - A(r), where R(lam) is the matrix of u -> lam u (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.6), one batched SVD for every
    lam per radius; n does not enter.  An entry, or an entry of
    R(lam) - A(r), that is not finite is a NumericError naming g.
    """
    if g.sphere_matrix is not None:
        rows = scalar_action(lams[:, None], np.eye(g.dim)[None], g.complex_pairs)  # row i is lam e_i
        res = np.empty((lams.size, len(radii)))
        for j, r in enumerate(radii):
            with np.errstate(over="ignore"):  # an overflow is reported below
                shifted = np.swapaxes(rows, 1, 2) - np.asarray(g.sphere_matrix(r), dtype=float)
            if not np.isfinite(shifted).all():
                raise NumericError(f"lam*id - f of {g.name} has a non-finite matrix entry")
            sv = np.linalg.svd(shifted, compute_uv=False)  # descending
            res[:, j] = sv[:, -1] if sign > 0 else sv[:, 0]
        return res
    if g.dim > 2:
        raise UnsupportedError(f"map {g.name} of dimension {g.dim} declares no sphere matrix, "
                               "which sphere extrema need from dimension 3")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        res = _sampled_and_polished(g, lams, radii, n, sign)
    if not np.isfinite(res).all():
        raise NumericError(f"a sphere extremum of |lam u - f(r u)| / r is not finite for {g.name}")
    return res


def _sampled_and_polished(g: MapSpec, lams: np.ndarray, radii, n: int, sign: float) -> np.ndarray:
    """`sphere_extrema` of a map of dimension 1 or 2 that declares no sphere matrix."""
    dirs = sphere_directions(g.dim, n)
    cols = np.asarray(radii[:1] if g.homogeneous else radii, dtype=float)
    res = np.empty((lams.size, cols.size))
    i0 = np.empty(res.shape, dtype=np.intp)
    step = max(1, CHUNK // dirs.size)  # lams per chunk of the sampled gaps
    for j, r in enumerate(cols):
        vals = evaluate(g, r * dirs) / r
        for lo in range(0, lams.size, step):
            gaps = scalar_action(lams[lo:lo + step, None], dirs[None], g.complex_pairs) - vals
            sampled = sign * row_norm(gaps)
            i0[lo:lo + step, j] = sampled.argmin(axis=1)
            res[lo:lo + step, j] = sampled.min(axis=1)
    if g.dim == 2:
        rows = np.repeat(lams, cols.size)[:, None]  # row-major over (lam, radius)
        r = np.tile(cols, lams.size)[:, None, None]

        def gap(ts):  # one angle per row -> its signed residual
            U = unit_points(ts)[:, None]
            return sign * row_norm(scalar_action(rows, U, g.complex_pairs) - evaluate(g, r * U) / r)[:, 0]

        start = dirs[i0.ravel()]
        t, dt = np.arctan2(start[:, 1], start[:, 0]), TWO_PI / n
        _, best = golden_min(gap, t - dt, t + dt)
        np.minimum(res, best.reshape(res.shape), out=res)
    res *= sign
    return np.repeat(res, len(radii), axis=1) if g.homogeneous else res


def directed_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup over rows of a of the distance to the point set b.

    A brute-force minimum of squared distances summed over the coordinates
    in order, before one square root: for planar points the arithmetic of a
    k-d tree query, bit for bit.  Rows of a go in chunks of at most CHUNK
    (row, point) pairs.  A difference or square that overflows is a
    distance beyond 1e154, which reads as inf.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    step = max(1, CHUNK // len(b))
    nearest = np.empty(len(a))
    with np.errstate(over="ignore"):
        for lo in range(0, len(a), step):
            d2 = (a[lo:lo + step, None, 0] - b[:, 0]) ** 2
            for c in range(1, a.shape[1]):
                d2 += (a[lo:lo + step, None, c] - b[:, c]) ** 2
            nearest[lo:lo + step] = d2.min(axis=1)
    return float(np.sqrt(nearest.max()))
