"""The sequence-space shift model, the infinite dimensional example.

The model is the map z -> (|z|, z_1, z_2, ...) on the sequence space, the sum
of an isometry onto a codimension-one subspace and a rank-one nonlinear
part.  Its exact local data is emitted analytically; a truncated version on
C^N supports numerical verification of the eigenvalue circle, via exact
sphere-constrained least squares (the objective is affine on each sphere).
For A = lam I - L_N and m = |lam|, a diagonal phase change turns A^H A into
the real tridiagonal T with diagonal m^2 + 1, ..., m^2 + 1, m^2 and
off-diagonal -m, and each minimum is an O(N) secular solve on it, numpy
only:

    lowest eigenpair  v_k = sin(k theta), lambda_1 = (m - 1)^2 + 4m sin^2(theta/2)
                      with m sin((N+1) theta) = sin(N theta), for m > N/(N+1);
                      v_k = sinh(k t), lambda_1 = (m - 1)^2 - 4m sinh^2(t/2)
                      with m sinh((N+1) t) = sinh(N t), for m < N/(N+1);
                      v_k = k at m = N/(N+1); each root by bisection
    shifted solves    cyclic reduction of T - mu I, log2 N vectorized levels
    hard case         the Moré-Sorensen completion along v_1

A scan whose right-hand side b is proportional to e_1 has the same minimum
at every lambda of one modulus, so it solves once per orbit: the lambdas
are grouped as they were built (`LambdaOrbits`: a circle is one orbit, any
other lambda its own), never by comparing computed moduli.  Without a
perturbation the normalized minimum does not depend on the radius either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import PreconditionError, UsageError, as_complex

SQRT2 = math.sqrt(2.0)
MAX_TRUNCATION = 100_000  # each sphere minimum is an O(N) tridiagonal secular solve
_FROZEN_H_STEPS = 16  # frozen-perturbation solves per (lam, radius) of a general-h scan


# ---------------------------------------------------------------------------
# the shift model


@dataclass(frozen=True)
class ShiftModelReport:
    """Exact local data of z -> (|z|, z_1, z_2, ...) on the sequence space.

    All values are analytic facts: the lower growth rate and quasinorm are
    both sqrt(2); the point-spectrum part is the circle of radius sqrt(2);
    the compactness-defect part is the unit circle (emitted analytically,
    since no finite truncation can witness a vanishing omega); the full
    spectrum is the closed disk of radius sqrt(2).
    """

    lower_growth: float = SQRT2
    quasinorm: float = SQRT2
    alpha_rate: float = 1.0
    omega_rate: float = 1.0
    point_spectrum_radius: float = SQRT2
    omega_part_radius: float = 1.0
    spectrum_radius: float = SQRT2
    bifurcation_radius: float = SQRT2

    def index(self, lam) -> Optional[int]:
        """Fredholm index of lam - shift: -1 inside the unit circle, 0 outside."""
        m = abs(as_complex(lam))
        if m < 1.0:
            return -1
        if m > 1.0:
            return 0
        return None

    def eigvec_norm_sq(self, lam) -> float:
        """Squared norm of the resolvent direction (lam - shift)^{-1} e1, |lam| > 1."""
        m = abs(as_complex(lam))
        if m <= 1.0:
            raise PreconditionError("the resolvent direction needs |lam| > 1")
        return 1.0 / (m * m - 1.0)

    def to_json(self) -> dict:
        return {
            "d": self.lower_growth,
            "q": self.quasinorm,
            "alpha": self.alpha_rate,
            "omega": self.omega_rate,
            "point_spectrum_radius": self.point_spectrum_radius,
            "omega_part_radius": self.omega_part_radius,
            "spectrum_radius": self.spectrum_radius,
            "bifurcation_radius": self.bifurcation_radius,
            "provenance": "analytic",
        }


def shift_model_report() -> ShiftModelReport:
    return ShiftModelReport()


def xi_equation_solvable(lam, eps: float, boundary_tol: float = 1e-12):
    """Solvability of xi - |xi| / sqrt(|lam|^2 - 1) = eps over the complex xi.

    Writing xi = rho e^{i phi}, the imaginary part forces phi in {0, pi};
    phi = pi gives rho (1 + c) = -eps < 0, impossible, so solutions exist
    exactly when c = 1/sqrt(|lam|^2 - 1) < 1, that is when |lam|^2 > 2, with
    witness xi = eps/(1 - c).  The strict inequality is decided with a small
    tolerance so the boundary modulus itself reports unsolvable.
    Returns (solvable, witness or None).
    """
    m = abs(as_complex(lam))
    if not m > 1.0:
        raise PreconditionError("the equation is defined for |lam| > 1")
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    if m * m - 2.0 > boundary_tol:
        c = 1.0 / math.sqrt(m * m - 1.0)
        return True, eps / (1.0 - c)
    return False, None


def truncated_shift_map(z: np.ndarray) -> np.ndarray:
    """The dimension-N truncation: z -> (|z|, z_1, ..., z_{N-1})."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([[np.linalg.norm(z)], z[:-1]])


def _shift_apply(lam: complex, z: np.ndarray, b) -> np.ndarray:
    """(lam I - L_N) z - b in O(N), where L_N z = (0, z_1, ..., z_{N-1})."""
    r = lam * z - b
    r[1:] -= z[:-1]
    return r


def _shift_adjoint(lam: complex, r: np.ndarray) -> np.ndarray:
    """(lam I - L_N)^H r in O(N)."""
    out = lam.conjugate() * r
    out[:-1] -= r[1:]
    return out


def _bisect(positive: Callable[[float], bool], hi: float) -> float:
    """Where the predicate turns false on (0, hi), to the last bit; it holds just above 0."""
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if positive(mid):
            lo = mid
        else:
            hi = mid


def _lowest_eigenpair(m: float, n: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the n x n tridiagonal T(m) of the shift model.

    T has diagonal m^2 + 1, ..., m^2 + 1, m^2 and off-diagonal -m.  Its rows
    1..n-1 hold for v_k = sin(k theta) with eigenvalue m^2 + 1 - 2m cos(theta),
    and row n holds when m sin((n+1) theta) = sin(n theta).  For
    m > n/(n+1) the lowest root lies in (0, pi/(n+1)); for m < n/(n+1) it is
    imaginary, theta = i t with m sinh((n+1) t) = sinh(n t), and
    lambda_1 = (1 - m e^t)(1 - m e^-t), whose first factor the root equation
    gives without cancellation.  At m = n/(n+1), v_k = k; at m = 0,
    T = diag(1, ..., 1, 0).  Returns lambda_1 and the unit v_1 >= 0.
    """
    if m == 0.0:
        v = np.zeros(n)
        v[-1] = 1.0
        return 0.0, v
    k = np.arange(1, n + 1, dtype=float)
    gap = m * (n + 1) - n
    if gap > 0.0:
        theta = _bisect(lambda x: m * math.sin((n + 1) * x) > math.sin(n * x), math.pi / (n + 1))
        lam1 = (m - 1.0) ** 2 + 4.0 * m * math.sin(0.5 * theta) ** 2
        v = k if (n * theta) ** 2 < 1e-16 else np.sin(k * theta)
    elif gap < 0.0:
        # both sides scaled by 2 e^{-nt}, so nothing overflows for tiny m
        logm = math.log(m)
        t = _bisect(
            lambda x: math.exp(x + logm) * math.expm1(-2.0 * (n + 1) * x) > math.expm1(-2.0 * n * x),
            -logm,
        )
        lam1 = (
            math.exp(-2.0 * n * t) * math.expm1(-2.0 * t) / math.expm1(-2.0 * (n + 1) * t)
            * (1.0 - m * math.exp(-t))
        )
        # sinh(kt) up to the factor e^{nt}/2
        v = k if (n * t) ** 2 < 1e-16 else -np.exp(t * (k - n)) * np.expm1(-2.0 * t * k)
    else:
        lam1, v = (m - 1.0) ** 2, k
    return lam1, v / np.linalg.norm(v)


def _odd_even_factor(d: np.ndarray, e: np.ndarray):
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


def _odd_even_forward(levels, f: np.ndarray):
    """L^{-1} f level by level: the reduced right-hand sides of the odd unknowns, and the last."""
    odd = []
    for piv, _, right, left_m, right_m in levels:
        fo = f[1::2]
        f = f[0::2].copy()
        f[: piv.size] -= left_m * fo
        f[1:] -= right_m * fo[: right.size]
        odd.append(fo)
    return odd, f


def _odd_even_solve(levels, last: float, f: np.ndarray) -> np.ndarray:
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


def _odd_even_energy(levels, last: float, f: np.ndarray) -> float:
    """f^H (T - mu I)^{-1} f from the forward sweep alone: sum |L^{-1} f|^2 / pivot."""
    odd, f = _odd_even_forward(levels, f)
    total = float(np.abs(f[0]) ** 2) / last
    for (piv, *_), fo in zip(levels, odd):
        total += float(np.sum((fo.real ** 2 + fo.imag ** 2) / piv))
    return total


def sphere_least_squares(lam, b: np.ndarray, s: float = 1.0):
    """Global minimizer z of |(lam I - L_N) z - b| over |z| = s in C^N, N = len(b).

    Returns (z, residual).  With lam = m e^{i theta} and D = diag(e^{-ik theta}),
    D^H A^H A D for A = lam I - L_N is the real tridiagonal T with diagonal
    m^2 + 1, ..., m^2 + 1, m^2 and off-diagonal -m, so z = D y with
    (T - mu I) y = c = D^H A^H b, |y| = s and mu <= lambda_1(T) (Moré and
    Sorensen 1983; Gander, Golub and von Matt 1989).  lambda_1 and v_1 are in
    closed form (`_lowest_eigenpair`; Yueh 2005): v_k = sin(k theta) with
    m sin((N+1) theta) = sin(N theta) for m > N/(N+1), v_k = sinh(k t) with
    m sinh((N+1) t) = sinh(N t) for m < N/(N+1), each root by bisection.
    Below the root of |y(mu)| = s a rational model
    |y|^2 ~ alpha / (lambda_1 - mu)^2 + beta takes the step, above it Newton
    on 1/|y| - 1/s; each step is one cyclic reduction of T - mu I (log2 N
    vectorized levels; Buzbee, Golub and Nielson 1970), one solve and one
    forward sweep for the derivative.  The hard case, c orthogonal to v_1 up
    to rounding (c = 0 for lam = 0, b = e_1; v_1 in the tail for |lam| < 1),
    shows as |y| < s just below lambda_1 and is completed along v_1.  O(N)
    time and memory; the residual is evaluated at the returned z.  For b
    proportional to e_1, c = conj(lam) b_1 e_1, so the minimum depends on
    |lam| alone: `shift_bifurcation_scan` solves once per `LambdaOrbits` orbit.
    """
    lam = as_complex(lam)
    b = np.asarray(b, dtype=complex)
    n = b.size
    m = abs(lam)
    d = np.exp(-1j * math.atan2(lam.imag, lam.real) * np.arange(n))
    c = d.conj() * _shift_adjoint(lam, b)
    diag = np.full(n, m * m + 1.0)
    diag[-1] = m * m
    off = np.full(n - 1, -m)
    lam1, v1 = _lowest_eigenpair(m, n)
    # the closest shift at which every pivot of the reduction stays positive
    tiny = 16.0 * np.finfo(float).eps * (1.0 + m) ** 2
    top = lam1 - tiny

    mu = min(lam1 - np.linalg.norm(c) / s, top)  # |y(mu)| <= s here
    last = False
    for _ in range(60):  # about 8 steps in practice
        factor = _odd_even_factor(diag - mu, off)
        y = _odd_even_solve(*factor, c)
        ny = float(np.linalg.norm(y))
        if last or abs(ny - s) <= 4.0 * np.finfo(float).eps * s or (mu == top and ny < s):
            break
        dn = _odd_even_energy(*factor, y)  # (1/2) d|y|^2/dmu
        new = mu + (1.0 - ny / s) * ny * ny / dn
        beta = ny * ny - dn * (lam1 - mu)
        if ny < s and beta < s * s:
            new = lam1 - (lam1 - mu) * math.sqrt(dn * (lam1 - mu) / (s * s - beta))
        new = min(new, top)
        last = abs(new - mu) <= tiny / 2.0  # quadratic convergence: one more solve
        mu = new
    # Put y on the sphere along v_1 or radially, whichever raises the
    # objective less: as y solves (T - mu I) y = c, every point y + e of the
    # sphere has f(y + e) = f_mu + e^H (T - mu I) e for one constant f_mu.
    a = complex(v1 @ y)
    rest = s * s - float(np.linalg.norm(y - a * v1)) ** 2
    along = (a / abs(a) if a else 1.0) * math.sqrt(max(rest, 0.0))
    if rest > 0.0 and (ny == 0.0 or (lam1 - mu) * abs(along - a) ** 2 <= (s / ny - 1.0) ** 2 * np.vdot(y, c).real):
        y += (along - a) * v1
    else:
        y *= s / ny
    z = d * y
    return z, float(np.linalg.norm(_shift_apply(lam, z, b)))


def _check_truncation(N: int) -> None:
    if not 4 <= N <= MAX_TRUNCATION:
        raise PreconditionError(f"need truncation dimension 4 <= N <= {MAX_TRUNCATION}, got {N}")


def truncated_shift_min(lam, N: int) -> float:
    """min over |z| = 1 in C^N of |lam z - (|z|, z_1, ..., z_{N-1})|.

    On the unit sphere the truncated map is affine, so the minimum is a
    sphere-constrained least-squares problem solved exactly.  Reliable as a
    point-spectrum probe only for |lam| > 1, where eigenvector tails decay;
    for |lam| <= 1 truncation distorts the sphere minimum.
    """
    _check_truncation(N)
    b = np.zeros(N, dtype=complex)
    b[0] = 1.0
    return sphere_least_squares(lam, b, 1.0)[1]


class LambdaOrbits(tuple):
    """The lambdas of a shift scan, listed orbit by orbit.

    Built from (lam0, members) pairs: every member has the modulus of lam0
    as it was built (a circle of radius r has lam0 = r), so for b
    proportional to e_1 each member has the sphere minimum of lam0.  The
    tuple holds the members in order; `spans` holds (start, stop, lam0).
    """

    def __new__(cls, orbits):
        spans, flat = [], []
        for lam0, members in orbits:
            lam0 = as_complex(lam0)
            members = [as_complex(l) for l in members]
            if any(abs(abs(l) - abs(lam0)) > 1e-12 * abs(lam0) for l in members):
                raise UsageError(f"an orbit of modulus {abs(lam0)!r} holds a lambda of another modulus")
            spans.append((len(flat), len(flat) + len(members), lam0))
            flat.extend(members)
        self = super().__new__(cls, flat)
        self.spans = tuple(spans)
        return self


@dataclass(frozen=True)
class ShiftScanResult:
    lams: tuple
    radii: tuple
    residuals: np.ndarray       # raw residuals, shape (n_lams, n_radii)
    normalized: np.ndarray      # residual / radius
    candidates: tuple
    verdicts: tuple


def shift_bifurcation_scan(
    lam_grid,
    N: int = 40,
    radii=(1e-1, 1e-2, 1e-3),
    tol: float = 0.02,
    h: Optional[Callable] = None,
    h_sphere_const: Optional[Callable] = None,
) -> ShiftScanResult:
    """Small-radius nontrivial-solution scan for lam z = f_N(z) + h(z).

    h is a truncation-compatible perturbation with h(0) = 0 and h(z) small
    relative to |z| near 0.  When h is constant on each sphere (for example
    a power of the norm times a fixed vector), pass h_sphere_const(r) -> the
    vector value so the per-sphere problem stays affine and is solved
    exactly.  A general callable h is frozen at the current iterate: from
    the unperturbed minimizer on |z| = r, each step solves the affine
    problem with right-hand side r e_1 + h(z) exactly, while the true
    residual |(lam I - L_N) z - r e_1 - h(z)| falls, at most
    _FROZEN_H_STEPS times; the smallest true residual of the iterates is
    reported.  For h constant on spheres the first step is the exact
    problem.  When the right-hand side r e_1 + h_sphere_const(r) is
    proportional to e_1, each orbit of a `LambdaOrbits` grid takes one solve
    (one for all radii when there is no perturbation); any other iterable
    is one orbit per lambda.
    """
    _check_truncation(N)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    lams = [as_complex(l) for l in lam_grid]
    e1 = np.zeros(N, dtype=complex)
    e1[0] = 1.0

    res = np.empty((len(lams), len(radii)))
    # b = beta e_1 gives c = conj(lam) beta e_1, so the minimum at m e^{i theta}
    # is the minimum at m turned by e^{i theta}: one solve per orbit.  With
    # h = None the problem at radius r is r times the one on the unit sphere.
    spans = lam_grid.spans if isinstance(lam_grid, LambdaOrbits) else [(i, i + 1, l) for i, l in enumerate(lams)]
    spans = [span for span in spans if span[0] < span[1]]
    if h_sphere_const is not None:
        for j, r in enumerate(radii):
            b = r * e1 + np.asarray(h_sphere_const(r), dtype=complex)
            if np.any(b[1:] != 0.0):  # the minimum then depends on the phase of lam
                for i, lam in enumerate(lams):
                    res[i, j] = sphere_least_squares(lam, b, r)[1]
            else:
                for start, stop, lam0 in spans:
                    res[start:stop, j] = sphere_least_squares(lam0, b, r)[1]
    elif h is None:
        scale = np.asarray(radii)
        for start, stop, lam0 in spans:
            res[start:stop] = sphere_least_squares(lam0, e1, 1.0)[1] * scale
    else:
        for i, lam in enumerate(lams):
            for j, r in enumerate(radii):
                z = sphere_least_squares(lam, r * e1, r)[0]
                hz = np.asarray(h(z), dtype=complex)
                best = float(np.linalg.norm(_shift_apply(lam, z, r * e1 + hz)))
                for _ in range(_FROZEN_H_STEPS):
                    z = sphere_least_squares(lam, r * e1 + hz, r)[0]
                    hz = np.asarray(h(z), dtype=complex)
                    true = float(np.linalg.norm(_shift_apply(lam, z, r * e1 + hz)))
                    if not true < best:
                        break
                    best = true
                res[i, j] = best

    normalized = res / np.asarray(radii)[None, :]
    from .numerics import scan_verdicts  # lazy: the other shift paths need no numerics

    mask, verdicts = scan_verdicts(normalized, tol)
    return ShiftScanResult(
        lams=tuple(lams),
        radii=radii,
        residuals=res,
        normalized=normalized,
        candidates=tuple(l for l, m in zip(lams, mask) if m),
        verdicts=verdicts,
    )
