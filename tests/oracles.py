"""Reference solvers for the shift model's sphere minima, used as test oracles.

`sphere_least_squares` minimizes |(lam I - L_N) z - b| over |z| = s for any
right-hand side b, by cyclic reduction of the real tridiagonal T - mu I on
numpy arrays inside the same secular iteration as `specpoint.structured`.
Every right-hand side of the library is along e_1, which the closed-form
`structured._e1_sphere_least_squares` solves; the tests compare the two.
`truncated_shift_map`, `_shift_apply` and `_shift_adjoint` are the
truncated map and the operator A = lam I - L_N on arrays.
"""
import math

from specpoint.core import PreconditionError, as_complex
from specpoint.structured import _EPS, _lowest_eigenpair, _secular_root


def truncated_shift_map(z):
    """The dimension-N truncation: z -> (|z|, z_1, ..., z_{N-1})."""
    import numpy as np

    z = np.asarray(z, dtype=complex)
    return np.concatenate([[np.linalg.norm(z)], z[:-1]])


def _shift_apply(lam: complex, z, b):
    """(lam I - L_N) z - b in O(N) on arrays, where L_N z = (0, z_1, ..., z_{N-1})."""
    r = lam * z - b
    r[1:] -= z[:-1]
    return r


def _shift_adjoint(lam: complex, r):
    """(lam I - L_N)^H r in O(N) on arrays."""
    out = lam.conjugate() * r
    out[:-1] -= r[1:]
    return out


def _odd_even_factor(d, e):
    """Cyclic reduction of the SPD tridiagonal with diagonal d, off-diagonal e.

    Each level eliminates the odd unknowns, which couple only to their even
    neighbours, and leaves the Schur complement on the even ones, again
    tridiagonal (Buzbee, Golub and Nielson 1970).  This is Cholesky on the
    odd-even permutation, so every pivot is positive.  Returns the levels
    (odd pivots, their left and right couplings, and the couplings over the
    pivots) and the last 1 x 1 pivot.
    """
    levels = []
    while d.size > 1:
        piv, left, right = d[1::2], e[0::2], e[1::2]
        left_m, right_m = left / piv, right / piv[: right.size]
        d2 = d[0::2].copy()
        d2[: piv.size] -= left * left_m
        d2[1:] -= right * right_m
        e = -left[: right.size] * right_m
        levels.append((piv, left, right, left_m, right_m))
        d = d2
    return levels, float(d[0])


def _odd_even_forward(levels, f):
    """L^{-1} f level by level: the reduced right-hand sides of the odd unknowns, and the last."""
    odd = []
    for piv, _, right, left_m, right_m in levels:
        fo = f[1::2]
        f = f[0::2].copy()
        f[: piv.size] -= left_m * fo
        f[1:] -= right_m * fo[: right.size]
        odd.append(fo)
    return odd, f


def _odd_even_solve(levels, last: float, f):
    import numpy as np

    odd, x = _odd_even_forward(levels, f)
    x = x / last
    for (piv, left, right, _, _), fo in zip(reversed(levels), reversed(odd)):
        xo = fo - left * x[: piv.size]
        xo[: right.size] -= right * x[1:]
        full = np.empty(x.size + xo.size, dtype=x.dtype)
        full[0::2] = x
        full[1::2] = xo / piv
        x = full
    return x


def _odd_even_energy(levels, last: float, f) -> float:
    """f^H (T - mu I)^{-1} f from the forward sweep alone: sum |L^{-1} f|^2 / pivot."""
    odd, f = _odd_even_forward(levels, f)
    total = float(abs(f[0]) ** 2) / last
    for (piv, *_), fo in zip(levels, odd):
        total += float(((fo.real ** 2 + fo.imag ** 2) / piv).sum())
    return total


def sphere_least_squares(lam, b, s: float = 1.0):
    """Global minimizer z of |(lam I - L_N) z - b| over |z| = s in C^N, N = len(b).

    Returns (z, residual).  With lam = m e^{i theta} and D = diag(e^{-ik theta}),
    D^H A^H A D for A = lam I - L_N is the real tridiagonal T with diagonal
    m^2 + 1, ..., m^2 + 1, m^2 and off-diagonal -m, so z = D y with
    (T - mu I) y = c = D^H A^H b, |y| = s and mu <= lambda_1(T) (Moré and
    Sorensen 1983; Gander, Golub and von Matt 1989), lambda_1 and v_1 in
    closed form (`_lowest_eigenpair`; Yueh 2005).  Each step of
    `_secular_root` is one cyclic reduction of T - mu I (log2 N vectorized
    levels; Buzbee, Golub and Nielson 1970), one solve and one forward sweep
    for the derivative.  The hard case, c orthogonal to v_1 up to rounding
    (c = 0 for lam = 0, b = e_1; v_1 in the tail for |lam| < 1), shows as
    |y| < s just below lambda_1 and is completed along v_1.  O(N) time and
    memory; the residual is evaluated at the returned z.  Serves any b; for
    b along e_1, `_e1_sphere_least_squares` gives the same minimum without
    numpy.
    """
    import numpy as np

    lam = as_complex(lam)
    m = abs(lam)
    if not math.isfinite(m * m):
        raise PreconditionError(f"|lam|^2 must be finite, got |lam| = {m!r}")
    b = np.asarray(b, dtype=complex)
    n = b.size
    d = np.exp(-1j * math.atan2(lam.imag, lam.real) * np.arange(n))
    c = d.conj() * _shift_adjoint(lam, b)
    diag = np.full(n, m * m + 1.0)
    diag[-1] = m * m
    off = np.full(n - 1, -m)
    lam1, v1 = _lowest_eigenpair(m, n)
    v1 = np.array(v1)

    def measure(mu):
        factor = _odd_even_factor(diag - mu, off)
        y = _odd_even_solve(*factor, c)
        return float(np.linalg.norm(y)), lambda: _odd_even_energy(*factor, y), y

    # the closest shift at which every pivot of the reduction stays positive
    tiny = 16.0 * _EPS * (1.0 + m) ** 2
    mu, ny, y = _secular_root(lam1, tiny, float(np.linalg.norm(c)), s, measure)
    # Put y on the sphere along v_1 or radially, whichever raises the
    # objective less: as y solves (T - mu I) y = c, every point y + e of the
    # sphere has f(y + e) = f_mu + e^H (T - mu I) e for one constant f_mu.
    a = complex(v1 @ y)
    rest = s * s - float(np.linalg.norm(y - a * v1)) ** 2
    along = (a / abs(a) if a else 1.0) * math.sqrt(max(rest, 0.0))
    if rest > 0.0 and (ny == 0.0 or (lam1 - mu) * (abs(along - a) * ny) ** 2 <= (s - ny) ** 2 * np.vdot(y, c).real):
        y += (along - a) * v1
    else:
        y *= s / ny
    z = d * y
    return z, float(np.linalg.norm(_shift_apply(lam, z, b)))
