"""Deterministic sampling, derivative-free local search and the sphere-extremum kernel.

Low-discrepancy sphere directions, the same on every call, the batched
lockstep Nelder-Mead `sphere_polish` on unit spheres, golden-section
search on arrays of brackets (the one iteration, `planar.golden_min`, with
np.where as its `where`), brute-force point-set distances, and
`sphere_extrema`, the one kernel behind every numpy sphere extremum of
|lam u - f(r u) / r|: the growth rates of `estimators`, point-spectrum
membership and the `bifurcate --fn` scan (both at their smallest radius
only), in any dimension.  Every sampled extremum is a function of the map,
the lambdas and the radii alone.  A map that declares its sphere matrix
gets exact extrema from singular values; any other is sampled, and every
sampled extremum is polished.  Every builtin of dimension 3 or more
declares one, so the Nelder-Mead polish serves only black boxes and points
away from the origin.  The circle extrema of a planar builtin are
`planar.circle_extrema`, on floats.  The verdicts of bifurcation scans are
in `core`, so the shift scan loads none of this module.
"""
from __future__ import annotations

import numpy as np

from . import planar
from .core import NumericError
from .maps import MapSpec, evaluate, scalar_action
from .planar import TWO_PI

CHUNK = 1 << 18  # array entries per chunk of every batched kernel


def _kronecker(dim: int, n: int) -> np.ndarray:
    """n points of the R_d sequence in [0, 1)^dim.

    Point k is (1/2 + k * alpha) mod 1 with alpha_i = phi^-i, where phi is
    the positive root of x^(dim+1) = x + 1 (Roberts' generalization of the
    golden ratio to dim dimensions).
    """
    phi = 2.0
    for _ in range(64):  # x -> (1 + x)^(1/(dim+1)) contracts onto the root
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1.0)
    return (0.5 + np.arange(n)[:, None] * alpha) % 1.0


def sphere_directions(dim: int, n: int) -> np.ndarray:
    """n low-discrepancy unit vectors in R^dim, the same on every call.

    dim == 1 returns the two directions; dim == 2 the uniform angle grid
    2pi (k + 1/2) / n; higher dimensions push R_d points through the
    Box-Muller transform (Ann. Math. Stat. 29, 1958) and normalize.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        return unit_points(2.0 * np.pi * ((np.arange(n) + 0.5) / n))
    u = _kronecker(dim + dim % 2, n)  # coordinates 2i, 2i+1 make one pair
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))  # 1 - u lies in (0, 1]
    angle = 2.0 * np.pi * u[:, 1::2]
    g = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(n, -1)[:, :dim]
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def _tangent_frames(U: np.ndarray) -> np.ndarray:
    """(B, dim, dim-1) orthonormal complements of the unit rows of U.

    The columns are the last dim-1 columns of the Householder reflection
    that maps e1 to the row.
    """
    v = -U
    v[:, 0] += 1.0
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    v = np.divide(v, nv, out=np.zeros_like(v), where=nv > 1e-14)
    return (np.eye(U.shape[1]) - 2.0 * v[:, :, None] * v[:, None, :])[:, :, 1:]


# Nelder-Mead trial points as a * centroid + b * worst vertex: reflection
# (rho = 1), expansion (chi = 2), outside and inside contraction (psi = 1/2)
_NM_A = np.array([2.0, 3.0, 1.5, 0.5])
_NM_B = np.array([-1.0, -2.0, -0.5, 0.5])
_NM_SIMPLEX = 0.15  # initial simplex edge on the tangent frame
_NM_XATOL, _NM_FATOL = 1e-12, 1e-14
_NM_RESTARTS = 4


def _lockstep_nelder_mead(fn, U0, live):
    """One Nelder-Mead run per row of U0 on its tangent frame; see sphere_polish.

    Rows with live False are evaluated along with the others but never move.
    """
    B, dim = U0.shape
    k = dim - 1
    T = np.swapaxes(_tangent_frames(U0), 1, 2)  # (B, k, dim)

    def points(t):
        u = U0[:, None, :] + t @ T
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    def sort(sim, fsim):
        order = np.argsort(fsim, axis=1)
        return np.take_along_axis(sim, order[:, :, None], 1), np.take_along_axis(fsim, order, 1)

    rows = np.arange(B)
    sim = np.zeros((B, k + 1, k))
    sim[:, 1:] = _NM_SIMPLEX * np.eye(k)
    sim, fsim = sort(sim, fn(points(sim)))
    for _ in range(200 * dim):
        live = live & ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) > _NM_XATOL)
                       | (np.abs(fsim[:, 1:] - fsim[:, :1]).max(axis=1) > _NM_FATOL))
        if not live.any():
            break
        centroid = sim[:, :-1].sum(axis=1) / k
        trial = _NM_A[:, None] * centroid[:, None, :] + _NM_B[:, None] * sim[:, -1:, :]
        ftrial = fn(points(trial))
        fr, fe, fo, fi = ftrial.T
        best, second, worst = fsim[:, 0], fsim[:, -2], fsim[:, -1]
        pick = np.where(fr < best, np.where(fe < fr, 1, 0),
                        np.where(fr < second, 0, np.where(fr < worst, 2, 3)))
        accept = (fr < second) | ((pick == 2) & (fo <= fr)) | ((pick == 3) & (fi < worst))
        take = live & accept
        sim[take, -1] = trial[rows, pick][take]
        fsim[take, -1] = ftrial[rows, pick][take]
        shrink = live & ~accept
        if shrink.any():
            shrunk = sim[:, :1] + 0.5 * (sim[:, 1:] - sim[:, :1])
            fshrunk = fn(points(shrunk))
            sim[shrink, 1:] = shrunk[shrink]
            fsim[shrink, 1:] = fshrunk[shrink]
        sim, fsim = sort(sim, fsim)
    return fsim[:, 0], points(sim[:, :1])[:, 0]


def sphere_polish(fn, U0):
    """Minimize B objectives over unit vectors, each near its row of U0.

    fn maps a (B, m, dim) array of unit vectors to their (B, m) values, row
    b under objective b.  Every element runs the Nelder-Mead method
    (Comput. J. 7, 1965) with scipy's coefficients on the offsets t of its
    tangent frame T, at the point (u0 + T t) / |u0 + T t|: the normalization
    is constant along rays, which would stall a simplex in ambient
    coordinates.  The elements advance in lockstep: one fn call per
    iteration evaluates every element's reflection, expansion and both
    contractions, and one more runs only when some element shrinks.  An
    element stops once its simplex is within 1e-12 and its values within
    1e-14 of its best vertex, or after 200 * dim iterations.  A simplex can
    collapse before it reaches a minimum, so every element then restarts
    from its best point on a fresh frame, and again while a restart gains
    more than 1e-14, at most _NM_RESTARTS times.  Returns the (B,) best
    values and their (B, dim) unit vectors.
    """
    U = np.asarray(U0, dtype=float)
    U = U / np.linalg.norm(U, axis=-1, keepdims=True)
    if U.shape[1] == 1:
        return fn(U[:, None, :])[:, 0], U
    values = np.full(U.shape[0], np.inf)
    live = np.ones(U.shape[0], dtype=bool)
    for _ in range(_NM_RESTARTS + 1):
        f, u = _lockstep_nelder_mead(fn, U, live)
        better = live & (f < values)
        gain = values[better] - f[better]
        values[better], U[better] = f[better], u[better]
        live[:] = False
        live[better] = gain > _NM_FATOL
        if not live.any():
            break
    return values, U


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
    maxima for sign -1; the growth rates take lam = 0.  A g that declares
    no sphere matrix has every entry sampled at the n unit vectors
    `sphere_directions(g.dim, n)`, one map evaluation per radius and
    CHUNK coordinates at a time, and then polished from its best sample,
    all entries in one batch: not at all in dim 1, whose sphere is two
    points; in dim 2, whose directions are a uniform angle grid, by
    `golden_min` over the best angle plus or minus one spacing; by
    `sphere_polish` from dim 3.  A positively homogeneous g has the same
    entries at every radius, so one radius is computed and repeated.  lam acts through `scalar_action`, so
    a complex lam on a g without complex structure raises PreconditionError.

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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        res = _sampled_and_polished(g, lams, radii, n, sign)
    if not np.isfinite(res).all():
        raise NumericError(f"a sphere extremum of |lam u - f(r u)| / r is not finite for {g.name}")
    return res


def _sampled_and_polished(g: MapSpec, lams: np.ndarray, radii, n: int, sign: float) -> np.ndarray:
    """`sphere_extrema` of a map that is not known to be linear."""
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
    if g.dim > 1:
        rows = np.repeat(lams, cols.size)  # row-major over (lam, radius)
        r = np.tile(cols, lams.size)[:, None, None]

        def gap(U):  # (B, m, dim) unit vectors -> (B, m) signed residuals
            gaps = scalar_action(rows[:, None], U, g.complex_pairs) - evaluate(g, r * U) / r
            return sign * row_norm(gaps)

        start = dirs[i0.ravel()]
        if g.dim == 2:
            t, dt = np.arctan2(start[:, 1], start[:, 0]), TWO_PI / n
            _, best = golden_min(lambda ts: gap(unit_points(ts)[:, None])[:, 0], t - dt, t + dt)
        else:
            best, _ = sphere_polish(gap, start)
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
