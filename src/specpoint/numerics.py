"""The sphere-minimum kernel and the nearest-sample distance of the bifurcation scan.

`sphere_extrema` gives the exact sphere minima of |lam u - f(r u) / r| of a
map that declares its sphere matrix, in any dimension.  A planar map that
declares none is scanned on its eigenvalue curve sigma_r instead, and
`nearest_sample` is the one distance kernel the scan reads: from each lam
to the nearest sample of sigma_r, within a reach.  The growth rates d and
q of a planar builtin need neither kernel: `planar.growth_rates` reads
them off the traced curve or the declared matrix.  The verdicts of
bifurcation scans are in `core`, so the shift scan loads none of this
module.
"""
from __future__ import annotations

import numpy as np

from .core import NumericError, UnsupportedError
from .maps import MapSpec, scalar_action

CHUNK = 1 << 18  # array entries per chunk of every batched kernel


def unit_points(thetas: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def sphere_extrema(g: MapSpec, lams: np.ndarray, radius: float) -> np.ndarray:
    """min over unit u of |lam u - g(r u) / r| for every lam at the radius r, from g's sphere matrix.

    Returns an array of len(lams).  g declares its sphere matrix,
    g(r u) = r A(r) u, and each entry is exact: the smallest singular value
    of R(lam) - A(r), where R(lam) is the matrix of u -> lam u (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.6), one batched SVD for every
    lam.  A g that declares none is an UnsupportedError naming g.  lam acts
    through `scalar_action`, so a complex lam on a g without complex
    structure raises PreconditionError.  An entry of R(lam) - A(r) that is
    not finite is a NumericError naming g.
    """
    if g.sphere_matrix is None:
        raise UnsupportedError(f"map {g.name} of dimension {g.dim} declares no sphere matrix, "
                               "which sphere extrema need")
    rows = scalar_action(lams[:, None], np.eye(g.dim)[None], g.complex_pairs)  # row i is lam e_i
    with np.errstate(over="ignore"):  # an overflow is reported below
        shifted = np.swapaxes(rows, 1, 2) - np.asarray(g.sphere_matrix(radius), dtype=float)
    if not np.isfinite(shifted).all():
        raise NumericError(f"lam*id - f of {g.name} has a non-finite matrix entry")
    return np.linalg.svd(shifted, compute_uv=False)[:, -1]  # descending


def nearest_sample(lams, samples: np.ndarray, reach: float) -> np.ndarray:
    """Distance from each lam to the nearest of the complex samples where it is at most reach, else inf.

    The samples are sorted by real part once, and each lam is paired only
    with the strip of samples whose real part lies within w of its own, w
    the least of reach and the distance to its two neighbours in that order:
    a sample outside the strip lies farther than reach, or than a
    neighbour.  w is padded by 16 ulps and by 1e-160, so that no sample
    whose rounded distance can tie or beat a neighbour's falls outside it,
    even where the squares are subnormal.  So the cost follows the curve
    near each lam, not the reach.  The squared distances are summed over
    the coordinates in order and the least is square-rooted: the arithmetic
    of a k-d tree query, bit for bit.  Pairs go CHUNK at a time in lam
    order, so memory stays bounded for every reach, inf included, and each
    lam gets the bits it gets alone.  A difference or square that overflows
    is a distance beyond 1e154, which reads as inf.
    """
    lams = np.asarray(lams, dtype=complex)
    order = np.argsort(samples.real, kind="stable")
    sx, sy = samples.real[order], samples.imag[order]
    at = np.searchsorted(sx, lams.real)  # the neighbours are samples at - 1 and at
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.fmin(*(np.hypot(sx[k] - lams.real, sy[k] - lams.imag)
                      for k in (np.maximum(at - 1, 0), np.minimum(at, sx.size - 1))))
        w = np.fmin(reach, w + 16.0 * np.spacing(w) + 1e-160)  # an infinite w reads as reach
        first = np.searchsorted(sx, lams.real - w, side="left")
        counts = np.searchsorted(sx, lams.real + w, side="right") - first
    ends = np.cumsum(counts)
    shift = first - (ends - counts)  # pair p of lam k is sample p + shift[k]
    best = np.full(lams.size, np.inf)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, CHUNK):
        pair = np.arange(lo, min(lo + CHUNK, total))
        k = np.searchsorted(ends, pair, side="right")  # the lam of each pair, ascending
        j = pair + shift[k]
        with np.errstate(over="ignore"):
            d2 = (sx[j] - lams.real[k]) ** 2
            d2 += (sy[j] - lams.imag[k]) ** 2
        heads = np.flatnonzero(np.diff(k, prepend=-1))  # the first pair of each lam in the chunk
        k = k[heads]
        best[k] = np.minimum(best[k], np.minimum.reduceat(d2, heads))
    d = np.sqrt(best)
    d[~(d <= reach)] = np.inf
    return d
