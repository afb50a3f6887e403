"""The sequence-space shift model, the infinite dimensional example.

The model is the map z -> (|z|, z_1, z_2, ...) on the sequence space, the sum
of an isometry onto a codimension-one subspace and a rank-one nonlinear
part.  Its exact local data is emitted analytically; a truncated version on
C^N supports numerical verification of the eigenvalue circle, via exact
sphere-constrained least squares (the objective is affine on each sphere).
For A = lam I - L_N and m = |lam|, a diagonal phase change turns A^H A into
the real tridiagonal T with diagonal m^2 + 1, ..., m^2 + 1, m^2 and
off-diagonal -m, and each minimum is a secular solve on it:

    lowest eigenpair  v_k = sin(k theta), lambda_1 = (m - 1)^2 + 4m sin^2(theta/2)
                      with m sin((N+1) theta) = sin(N theta), for m > N/(N+1);
                      v_k = sinh(k t), lambda_1 = (m - 1)^2 - 4m sinh^2(t/2)
                      with m sinh((N+1) t) = sinh(N t), for m < N/(N+1);
                      v_k = k at m = N/(N+1); each root by bisection
    b along e_1       |(T - mu I)^{-1} e_1| in closed form, O(1) a step, then
                      a few O(N) passes over lists
    hard case         the Moré-Sorensen completion along v_1

Every right-hand side is along e_1: the probes of `truncated_shift_min` and
the orbit solves of `shift_bifurcation_scan`, whose one perturbation,
|z|^2 e_1, is along e_1 too.  So there is one solver,
`_e1_sphere_least_squares`, in `math` alone, and the module imports no
numpy.  A scan's minimum is then the same at every lambda of one modulus,
so it solves once per orbit: the lambdas are grouped as they were built
(`LambdaOrbits`: a circle is one orbit, any other lambda its own), never by
comparing computed moduli.  Without the perturbation the normalized minimum
does not depend on the radius either.
"""
from __future__ import annotations

import cmath
import math
import operator
import sys
from itertools import islice, repeat
from typing import Callable, Optional

from .core import PreconditionError, Record, UsageError, as_complex, scan_verdicts

SQRT2 = math.sqrt(2.0)
MAX_TRUNCATION = 100_000  # each sphere minimum is an O(N) tridiagonal secular solve
_EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# the shift model


class ShiftModelReport(Record):
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


def xi_equation_solvable(lam, eps: float):
    """Solvability of xi - |xi| / sqrt(|lam|^2 - 1) = eps over the complex xi.

    Writing xi = rho e^{i phi}, the imaginary part forces phi in {0, pi};
    phi = pi gives rho (1 + c) = -eps < 0, impossible, so solutions exist
    exactly when c = 1/sqrt(|lam|^2 - 1) < 1, that is when |lam|^2 > 2, with
    witness xi = eps/(1 - c).  The strict inequality is decided as
    |lam|^2 - 2 > 1e-12, so the boundary modulus itself reports unsolvable.
    Returns (solvable, witness or None).
    """
    m = abs(as_complex(lam))
    if not m > 1.0:
        raise PreconditionError("the equation is defined for |lam| > 1")
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    if m * m - 2.0 > 1e-12:
        c = 1.0 / math.sqrt(m * m - 1.0)
        return True, eps / (1.0 - c)
    return False, None


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


def _lowest_eigenpair(m: float, n: int) -> tuple[float, list]:
    """Lowest eigenpair of the n x n tridiagonal T(m) of the shift model.

    T has diagonal m^2 + 1, ..., m^2 + 1, m^2 and off-diagonal -m.  Its rows
    1..n-1 hold for v_k = sin(k theta) with eigenvalue m^2 + 1 - 2m cos(theta),
    and row n holds when m sin((n+1) theta) = sin(n theta).  For
    m > n/(n+1) the lowest root lies in (0, pi/(n+1)); for m < n/(n+1) it is
    imaginary, theta = i t with m sinh((n+1) t) = sinh(n t), and
    lambda_1 = (1 - m e^t)(1 - m e^-t), whose first factor the root equation
    gives without cancellation.  At m = n/(n+1), v_k = k; at m = 0,
    T = diag(1, ..., 1, 0).  Returns lambda_1 and the unit v_1 >= 0 as a list.
    """
    if m == 0.0:
        return 0.0, [0.0] * (n - 1) + [1.0]
    ks = range(1, n + 1)
    gap = m * (n + 1) - n
    if gap > 0.0:
        theta = _bisect(lambda x: m * math.sin((n + 1) * x) > math.sin(n * x), math.pi / (n + 1))
        lam1 = (m - 1.0) ** 2 + 4.0 * m * math.sin(0.5 * theta) ** 2
        v = ks if (n * theta) ** 2 < 1e-16 else map(math.sin, map(operator.mul, ks, repeat(theta)))
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
        v = ks if (n * t) ** 2 < 1e-16 else [-math.exp(t * (k - n)) * math.expm1(-2.0 * t * k) for k in ks]
    else:
        lam1, v = (m - 1.0) ** 2, ks
    v = list(v)
    return lam1, list(map(operator.truediv, v, repeat(math.hypot(*v))))


def _secular_root(lam1: float, tiny: float, c: float, s: float, measure):
    """The multiplier mu <= lambda_1 - tiny of a sphere minimum, |y(mu)| and what measure kept of y(mu).

    y(mu) = (T - mu I)^{-1} c.  measure(mu) gives |y(mu)|, a function for
    (1/2) d|y|^2/dmu = y^H (T - mu I)^{-1} y, called only when a step is
    taken, and what the caller keeps of the solve at mu.
    From mu = lambda_1 - |c|/s, where |y| <= s, a rational model
    |y|^2 ~ alpha / (lambda_1 - mu)^2 + beta takes the step below the root of
    |y(mu)| = s, Newton on 1/|y| - 1/s above it (Moré and Sorensen 1983).
    The hard case shows as |y| < s at lambda_1 - tiny, which ends it.
    """
    top = lam1 - tiny
    mu = min(lam1 - c / s, top)  # |y(mu)| <= s here
    last = False
    for _ in range(60):  # about 8 steps in practice
        ny, slope, kept = measure(mu)
        if last or ny == 0.0 or abs(ny - s) <= 4.0 * _EPS * s or (mu == top and ny < s):
            return mu, ny, kept
        dn = slope()
        new = mu + (1.0 - ny / s) * ny * ny / dn
        const = ny * ny - dn * (lam1 - mu)
        if ny < s and const < s * s:
            new = lam1 - (lam1 - mu) * math.sqrt(dn * (lam1 - mu) / (s * s - const))
        new = min(new, top)
        last = abs(new - mu) <= tiny / 2.0  # quadratic convergence: one more solve
        mu = new
    ny, _, kept = measure(mu)
    return mu, ny, kept


# ---------------------------------------------------------------------------
# right-hand sides along e_1: the secular solve in closed form


def _chebyshev(j, g):
    """sinh(jt)/sinh(t) and its excess over j divided by g, summed as a series in g = 4 sinh^2(t/2).

    sinh(jt)/sinh(t) = sum_k C(j + k, 2k + 1) g^k, a polynomial for integer
    j; fourteen terms reach the rounding for j^2 |g| <= 7, as on |Nt| < 2
    with j <= N + 1 and N >= 4.
    """
    term, excess = j * (j * j - 1.0) / 6.0, 0.0
    for k in range(1, 15):
        excess += term
        term *= g * (j - k - 1) * (j + k + 1) / ((2 * k + 2) * (2 * k + 3))
    return j + g * excess, excess


def _geometric_pair(m: float, root, half, mu, e):
    """(a, b) along (1 - m e^t, 1 - m e^-t), whose product is mu, with the larger of |a| and |b e| near 1.

    With root = 2 sinh(t/2) and half = e^{-t/2}, e^t - 1 = root / half and
    1 - e^{-t} = root half have no cancellation.  Each factor is formed where
    it has none either (for m >= 1 the first, else the second) and the other
    as mu over it, which stays accurate where mu, and with it one factor,
    nears 0.
    """
    if m >= 1.0:
        a = (1.0 - m) - m * root / half
        return 1.0, mu / a / a
    b = (1.0 - m) + m * root * half
    if abs(mu.real) > abs((b * b * e).real):
        return 1.0, b * b / mu
    return mu / (b * b), 1.0


def _e1_norm_sq(m: float, n: int, mu):
    """m^2 |x|^2 for x = (T - mu I)^{-1} e_1 and mu < lambda_1, in O(1).

    With m (u + 1/u) = m^2 + 1 - mu and u = e^{-t}, x_k = n_{N-k} / (m n_N)
    for n_j = (sinh(jt) - m sinh((j+1)t)) / sinh(t) (Yueh 2005), and
    m^2 |x|^2 = (K^2 s_N + mu (s_N - N) / (2 sinh^2 t)) / n_N^2 with
    s_j = sinh(jt)/sinh(t) and K = n_{(N-1)/2}.  g = ((m - 1)^2 - mu) / m =
    4 sinh^2(t/2) picks the form that keeps it accurate:
      |Nt| < 2, around the band edge:  s_j summed in g (`_chebyshev`)
      inside the band, t = i phi:      sines of j phi
      below the band, Nt >= 2:         m x_k = u^k (a - b u^{2(N-k)}) / (a - b u^{2N})
                                       (`_geometric_pair`), a geometric sum
    mu may carry a complex step: each form is real-analytic in mu, so the
    imaginary part of the result is the step times the derivative (Squire
    and Trapp 1998).
    """
    g = ((m - 1.0) ** 2 - mu) / m
    if n * n * abs(g.real) < 4.0:
        s = lambda j: _chebyshev(j, g)[0]
        sn, excess = _chebyshev(n, g)
        sigma = excess / (1.0 + 0.25 * g)  # (s_N - N) / sinh^2 t
    elif g.real < 0.0:
        phi = 2.0 * cmath.asin(0.5 * cmath.sqrt(-g))
        sin_phi = cmath.sin(phi)
        s = lambda j: cmath.sin(j * phi) / sin_phi
        sn = s(n)
        sigma = (n - sn) / (sin_phi * sin_phi)
    else:
        root = cmath.sqrt(g)
        t = 2.0 * cmath.asinh(0.5 * root)
        half = cmath.exp(-0.5 * t)
        e, tail = cmath.exp(-2.0 * n * t), cmath.exp(-2.0 * (n - 1) * t)  # u^2N, u^(2N-2)
        a, b = _geometric_pair(m, root, half, mu, e)
        # sum_k u^(2k-2) (a - b u^(2N-2k))^2 over k = 1..N; 1 - u^2 = root half (1 + half^2)
        total = (a * a + b * b * tail) * (1.0 - e) / (root * half * (1.0 + half * half)) - 2.0 * a * b * n * tail
        return half ** 4 * total / (a - b * e) ** 2
    scale = max(1.0, m)  # n_j grows like m
    k = (s((n - 1) / 2) - m * s((n + 1) / 2)) / scale
    nn = (sn - m * s(n + 1)) / scale
    return (k * k * sn + mu / scale / scale * sigma / 2.0) / (nn * nn)


def _e1_resolvent(m: float, n: int, mu: float) -> list:
    """The list m (T - mu I)^{-1} e_1 at a real mu < lambda_1, in the forms of `_e1_norm_sq`."""
    g = ((m - 1.0) ** 2 - mu) / m
    if g > 0.0 and n * n * g >= 4.0:
        root = math.sqrt(g)
        t = 2.0 * math.asinh(0.5 * root)
        u = list(map(math.exp, map(operator.mul, range(0, -n - 1, -1), repeat(t))))  # u^j, j = 0..N
        e = u[n] * u[n]
        a, b = _geometric_pair(m, root, math.exp(-0.5 * t), mu, e)
        d = a - b * e
        return [uk * (a - b * ul * ul) / d for uk, ul in zip(islice(u, 1, None), reversed(u[:n]))]
    if g < 0.0:
        w = map(math.sin, map(operator.mul, range(n + 2), repeat(2.0 * math.asin(0.5 * math.sqrt(-g)))))
    elif g > 0.0:
        w = map(math.sinh, map(operator.mul, range(n + 2), repeat(2.0 * math.asinh(0.5 * math.sqrt(g)))))
    else:
        w = map(float, range(n + 2))
    w = list(w)  # n_j = w_j - m w_{j+1}, up to a common factor
    nj = list(map(operator.sub, w, map(operator.mul, repeat(m), islice(w, 1, None))))
    return list(map(operator.truediv, reversed(nj[:n]), repeat(nj[n])))


def _e1_sphere_least_squares(lam, n: int, beta=1.0, s: float = 1.0):
    """Global minimizer of |(lam I - L_N) z - b| over |z| = s in C^n for b = beta e_1, with `math` alone.

    With lam = m e^{i theta} and D = diag(e^{-ik theta}), D^H A^H A D for
    A = lam I - L_N is the real tridiagonal T, so z = D y with
    (T - mu I) y = c = D^H A^H b, |y| = s and mu <= lambda_1(T) (Moré and
    Sorensen 1983; Gander, Golub and von Matt 1989).  c = conj(lam) beta e_1,
    so y(mu) is c_1 times the real x(mu) of `_e1_norm_sq`: each step of
    `_secular_root` costs O(1), its derivative from a complex step.  After
    it, O(N) passes over lists build x, put y on the sphere along v_1 or
    radially, and evaluate the residual at the minimizer
    z_k = gamma e^{-i(k-1) arg lam} y_k, y real: with the phase factored
    out, |r_1| = |lam gamma y_1 - beta| and |r_k| = |gamma| |m y_k - y_{k-1}|
    for k >= 2.  The hard case, c orthogonal to v_1 up to rounding (c = 0
    for lam = 0; v_1 in the tail for |lam| < 1), shows as |y| < s just
    below lambda_1 and is completed along v_1.  Returns (gamma, y, residual).
    """
    lam, beta = as_complex(lam), complex(beta)
    m = abs(lam)
    if not math.isfinite(m * m):
        raise PreconditionError(f"|lam|^2 must be finite, got |lam| = {m!r}")
    lam1, v1 = _lowest_eigenpair(m, n)
    tiny = 16.0 * _EPS * (1.0 + m) ** 2  # the closest shift below lambda_1
    size, step = abs(beta), 1e-100 * (1.0 + m) ** 2

    def measure(mu):
        w = _e1_norm_sq(m, n, complex(mu, step))
        return size * math.sqrt(w.real), lambda: size * size * w.imag / (2.0 * step), None

    mu, ny = 0.0, 0.0  # y = 0 where c = conj(lam) beta e_1 is
    if m and size:
        mu, ny, _ = _secular_root(lam1, tiny, abs(lam.conjugate() * beta), s, measure)
    if ny == 0.0:  # y = 0 (c = 0 or below the floats): the hard case, all along v_1
        y = [s * v for v in v1]
        head, gamma, size = lam * y[0] - beta, 1.0, 1.0
    else:
        # y = gamma x with gamma = c_1 / m.  Put y on the sphere along v_1 or
        # radially, whichever raises the objective less: as y solves
        # (T - mu I) y = c, every point y + e of the sphere has
        # f(y + e) = f_mu + e^H (T - mu I) e for one constant f_mu.
        x = _e1_resolvent(m, n, mu)
        gamma = lam.conjugate() * beta / m
        p = sum(map(operator.mul, v1, x))  # (v_1 . y) / gamma
        rest = s * s - (size * math.dist(x, list(map(operator.mul, repeat(p), v1)))) ** 2
        lift = math.sqrt(max(rest, 0.0)) / size - p  # (along - a) / gamma
        if rest > 0.0 and (lam1 - mu) * (size * lift * ny) ** 2 <= (s - ny) ** 2 * m * size * size * x[0]:
            y = list(map(operator.add, x, map(operator.mul, repeat(lift), v1)))
        else:
            y = list(map(operator.mul, x, repeat(s / ny)))
        head = beta * (m * y[0] - 1.0)  # lam gamma = m beta
    tail = math.dist(list(map(operator.mul, repeat(m), y[1:])), y[:-1])
    return gamma, y, math.hypot(abs(head), size * tail)


def _check_truncation(N: int) -> None:
    if not 4 <= N <= MAX_TRUNCATION:
        raise PreconditionError(f"need truncation dimension 4 <= N <= {MAX_TRUNCATION}, got {N}")


def truncated_shift_min(lam, N: int) -> float:
    """min over |z| = 1 in C^N of |lam z - (|z|, z_1, ..., z_{N-1})|.

    On the unit sphere the truncated map is affine, so the minimum is a
    sphere-constrained least-squares problem with right-hand side e_1,
    solved exactly.  Reliable as a point-spectrum probe only for
    |lam| > 1, where eigenvector tails decay; for |lam| <= 1 truncation
    distorts the sphere minimum.
    """
    _check_truncation(N)
    return _e1_sphere_least_squares(lam, N)[2]


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


class ShiftScanResult(Record):
    lams: tuple
    radii: tuple
    residuals: tuple            # raw residuals, one row of n_radii per lambda
    normalized: tuple           # residual / radius
    candidates: tuple
    verdicts: tuple


def shift_bifurcation_scan(
    lam_grid,
    N: int = 40,
    radii=(1e-1, 1e-2, 1e-3),
    tol: float = 0.02,
    normsq_e1: bool = False,
) -> ShiftScanResult:
    """Small-radius nontrivial-solution scan for lam z = f_N(z), or f_N(z) + |z|^2 e_1 with normsq_e1.

    The perturbation |z|^2 e_1 is r^2 e_1 on the sphere |z| = r, so the
    per-sphere problem has the right-hand side (r + r^2) e_1 and is solved
    exactly, with `math` alone.  Each orbit of a `LambdaOrbits` grid takes
    one solve per radius, and one for all radii when there is no
    perturbation; any other iterable is one orbit per lambda.
    """
    _check_truncation(N)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    lams = [as_complex(l) for l in lam_grid]

    res = [[0.0] * len(radii) for _ in lams]
    # b = beta e_1 gives c = conj(lam) beta e_1, so the minimum at m e^{i theta}
    # is the minimum at m turned by e^{i theta}: one solve per orbit.  Without
    # a perturbation the problem at radius r is r times the one on the unit sphere.
    spans = lam_grid.spans if isinstance(lam_grid, LambdaOrbits) else [(i, i + 1, l) for i, l in enumerate(lams)]
    spans = [span for span in spans if span[0] < span[1]]
    if not normsq_e1:
        for start, stop, lam0 in spans:
            value = _e1_sphere_least_squares(lam0, N)[2]
            for i in range(start, stop):
                res[i] = [value * r for r in radii]
    else:
        for j, r in enumerate(radii):
            for start, stop, lam0 in spans:
                value = _e1_sphere_least_squares(lam0, N, r + r * r, r)[2]
                for i in range(start, stop):
                    res[i][j] = value

    normalized = tuple(tuple(v / r for v, r in zip(row, radii)) for row in res)
    mask, verdicts = scan_verdicts(normalized, tol)
    return ShiftScanResult(
        lams=tuple(lams),
        radii=radii,
        residuals=tuple(tuple(row) for row in res),
        normalized=normalized,
        candidates=tuple(l for l, keep in zip(lams, mask) if keep),
        verdicts=verdicts,
    )
