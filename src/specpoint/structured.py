"""Symbolic compactness-rate calculus and the sequence-space shift model.

Infinite dimensional content lives here.  Operator expressions are trees of
atoms with known local compactness rates (alpha = worst-case expansion of
the noncompactness measure, omega = best-case), combined by sums,
compositions, and scalar multiples.  One bottom-up pass propagates interval
bounds through the standard rules:

    scale      alpha(c f) = |c| alpha(f),        omega(c f) = |c| omega(f)
    sum        |alpha(f) - alpha(g)| <= alpha(f+g) <= alpha(f) + alpha(g)
               omega(f) - alpha(g) <= omega(f+g) <= omega(f) + alpha(g)
    compose    alpha(g o f) <= alpha(g) alpha(f)
               omega(g) omega(f) <= omega(g o f) <= alpha(g) omega(f)
    order      omega <= alpha, both nonnegative
    compact    locally compact atoms have alpha = omega = 0

The shift model is the sequence-space map z -> (|z|, z_1, z_2, ...), the sum
of an isometry onto a codimension-one subspace and a rank-one nonlinear
part.  Its exact local data is emitted analytically; a truncated version on
C^N supports numerical verification of the eigenvalue circle, via exact
sphere-constrained least squares (the objective is affine on each sphere).
For A = lam I - L_N, A^H A is tridiagonal and a diagonal phase change makes
it real, so each minimum is an O(N) secular solve on banded Cholesky
factorizations, with the Moré-Sorensen hard case handled explicitly.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    POS_INF,
    PreconditionError,
    UsageError,
    as_complex,
    ext,
)

SQRT2 = math.sqrt(2.0)
MAX_TRUNCATION = 100_000  # each sphere minimum is an O(N) tridiagonal secular solve


# ---------------------------------------------------------------------------
# intervals of nonnegative extended reals


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = ext(self.lo), ext(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: ({lo}, {hi})")

    @classmethod
    def exact(cls, v: float) -> "Interval":
        return cls(float(v), float(v))

    @classmethod
    def unknown(cls) -> "Interval":
        return cls(0.0, POS_INF)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self):
        from .core import ext_to_json

        return [ext_to_json(self.lo), ext_to_json(self.hi)]


def _iv(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (tuple, list)):
        return Interval(float(x[0]), float(x[1]))
    if x is None:
        return Interval.unknown()
    return Interval.exact(float(x))


def _mul_bound(a: float, b: float) -> float:
    # 0 * inf = 0: a vanishing rate forces the composite rate to vanish
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return POS_INF
    return a * b


def _sub_floor0(a: float, b: float) -> float:
    if math.isinf(b):
        return 0.0
    if math.isinf(a):
        return POS_INF
    return max(0.0, a - b)


def _add_bound(a: float, b: float) -> float:
    if math.isinf(a) or math.isinf(b):
        return POS_INF
    return a + b


# ---------------------------------------------------------------------------
# operator expressions


class OperatorExpr:
    """Base class; atoms carry rates, combinators carry children."""


@dataclass(frozen=True)
class Identity(OperatorExpr):
    pass


@dataclass(frozen=True)
class ScalarMultiple(OperatorExpr):
    c: float


@dataclass(frozen=True)
class IsometryOntoCodim(OperatorExpr):
    k: int


@dataclass(frozen=True)
class CompactLinear(OperatorExpr):
    pass


@dataclass(frozen=True)
class FiniteRank(OperatorExpr):
    r: int


@dataclass(frozen=True)
class LocallyCompactNonlinear(OperatorExpr):
    pass


@dataclass(frozen=True)
class KnownRates(OperatorExpr):
    alpha: Interval = None  # type: ignore[assignment]
    omega: Interval = None  # type: ignore[assignment]
    d: Optional[Interval] = None
    q: Optional[Interval] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _iv(self.alpha))
        object.__setattr__(self, "omega", _iv(self.omega))
        if self.d is not None:
            object.__setattr__(self, "d", _iv(self.d))
        if self.q is not None:
            object.__setattr__(self, "q", _iv(self.q))


@dataclass(frozen=True)
class Sum(OperatorExpr):
    left: OperatorExpr
    right: OperatorExpr


@dataclass(frozen=True)
class Compose(OperatorExpr):
    outer: OperatorExpr
    inner: OperatorExpr


@dataclass(frozen=True)
class Scale(OperatorExpr):
    c: float
    inner: OperatorExpr


@dataclass(frozen=True)
class RateBounds:
    """Derived intervals for the two compactness rates plus the rule trace."""

    alpha: Interval
    omega: Interval
    derivation: tuple

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "omega": self.omega.to_json(),
            "derivation": list(self.derivation),
        }


def _tighten(alpha: Interval, omega: Interval, trace: list):
    """Apply omega <= alpha and nonnegativity, recording when they bite."""
    a_lo, a_hi = max(alpha.lo, 0.0), alpha.hi
    w_lo, w_hi = max(omega.lo, 0.0), omega.hi
    if w_hi > a_hi:
        w_hi = a_hi
        trace.append("order:omega<=alpha")
    if a_lo < w_lo:
        a_lo = w_lo
        trace.append("order:alpha>=omega")
    return Interval(a_lo, a_hi), Interval(min(w_lo, w_hi), w_hi)


def mnc_bounds(e: OperatorExpr) -> RateBounds:
    """Tightest rate intervals derivable in one bottom-up pass of the rules."""
    trace: list[str] = []

    def walk(node: OperatorExpr) -> tuple[Interval, Interval]:
        if isinstance(node, Identity):
            trace.append("atom:identity")
            return Interval.exact(1.0), Interval.exact(1.0)
        if isinstance(node, ScalarMultiple):
            trace.append("atom:scalar-multiple")
            c = abs(node.c)
            return Interval.exact(c), Interval.exact(c)
        if isinstance(node, IsometryOntoCodim):
            trace.append("atom:isometry")
            return Interval.exact(1.0), Interval.exact(1.0)
        if isinstance(node, (CompactLinear, FiniteRank, LocallyCompactNonlinear)):
            trace.append("atom:locally-compact(alpha=omega=0)")
            return Interval.exact(0.0), Interval.exact(0.0)
        if isinstance(node, KnownRates):
            if node.alpha == Interval.unknown() and node.omega == Interval.unknown():
                trace.append("atom:no rule")
            else:
                trace.append("atom:known-rates")
            return node.alpha, node.omega
        if isinstance(node, Scale):
            a, w = walk(node.inner)
            c = abs(node.c)
            trace.append("rule:scale")
            return (
                Interval(c * a.lo, _mul_bound(c, a.hi)),
                Interval(c * w.lo, _mul_bound(c, w.hi)),
            )
        if isinstance(node, Sum):
            a1, w1 = walk(node.left)
            a2, w2 = walk(node.right)
            trace.append("rule:sum.alpha.two-sided")
            a_lo = max(0.0, _sub_floor0(a1.lo, a2.hi), _sub_floor0(a2.lo, a1.hi))
            a_hi = _add_bound(a1.hi, a2.hi)
            trace.append("rule:sum.omega.sandwich")
            w_lo = max(0.0, _sub_floor0(w1.lo, a2.hi), _sub_floor0(w2.lo, a1.hi))
            w_hi = min(_add_bound(w1.hi, a2.hi), _add_bound(w2.hi, a1.hi))
            return Interval(a_lo, a_hi), Interval(w_lo, max(w_lo, w_hi))
        if isinstance(node, Compose):
            ag, wg = walk(node.outer)
            af, wf = walk(node.inner)
            trace.append("rule:compose.alpha.product")
            a_hi = _mul_bound(ag.hi, af.hi)
            trace.append("rule:compose.omega.sandwich")
            w_lo = _mul_bound(wg.lo, wf.lo)
            w_hi = _mul_bound(ag.hi, wf.hi)
            return Interval(0.0, a_hi), Interval(min(w_lo, w_hi), max(w_lo, w_hi))
        raise UsageError(f"unknown expression node {node!r}")

    alpha, omega = walk(e)
    alpha, omega = _tighten(alpha, omega, trace)
    return RateBounds(alpha=alpha, omega=omega, derivation=tuple(trace))


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr    := term ('+' term)*
#   term    := factor (('o' | '∘') factor)*        composition binds tighter
#   factor  := atom | 'scale(' number ',' expr ')' | '(' expr ')'
#   atom    := Identity | ScalarMultiple(c) | IsometryOntoCodim(k)
#            | CompactLinear | FiniteRank(r) | LocallyCompactNonlinear
#            | KnownRates(alpha=V, omega=V [, d=V, q=V])
#   V       := number | number '..' number | 'inf'
#
# Compose(a, b) applies b first: 'g o f' is the map x -> g(f(x)).

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[-+]?(?:\d+\.\d+|\d+|\.\d+)(?:[eE][-+]?\d+)?|inf)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\.\.|[()+,=∘]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise UsageError(f"bad expression near {text[pos:pos+12]!r}")
            break
        if m.lastgroup == "num" or m.group("num"):
            tok = m.group("num")
            out.append(("num", POS_INF if tok == "inf" else float(tok)))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if kind is not None and k != kind:
            raise UsageError(f"expected {kind}, found {v!r}")
        if value is not None and v != value:
            raise UsageError(f"expected {value!r}, found {v!r}")
        self.i += 1
        return v

    def parse(self) -> OperatorExpr:
        e = self.expr()
        if self.peek() != (None, None):
            raise UsageError(f"trailing input at {self.peek()[1]!r}")
        return e

    def expr(self) -> OperatorExpr:
        node = self.term()
        while self.peek() == ("op", "+"):
            self.take()
            node = Sum(node, self.term())
        return node

    def term(self) -> OperatorExpr:
        node = self.factor()
        while self.peek() in (("name", "o"), ("op", "∘")):
            self.take()
            node = Compose(node, self.factor())
        return node

    def value(self) -> Interval:
        v = self.take("num")
        if self.peek() == ("op", ".."):
            self.take()
            return Interval(v, self.take("num"))
        return Interval.exact(v)

    def factor(self) -> OperatorExpr:
        k, v = self.peek()
        if k == "op" and v == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if k != "name":
            raise UsageError(f"expected an atom, found {v!r}")
        name = self.take("name")
        if name == "scale":
            self.take("op", "(")
            c = self.take("num")
            self.take("op", ",")
            inner = self.expr()
            self.take("op", ")")
            return Scale(c, inner)
        if name == "Identity":
            return Identity()
        if name == "CompactLinear":
            return CompactLinear()
        if name == "LocallyCompactNonlinear":
            return LocallyCompactNonlinear()
        if name == "ScalarMultiple":
            self.take("op", "(")
            c = self.take("num")
            self.take("op", ")")
            return ScalarMultiple(c)
        if name == "IsometryOntoCodim":
            self.take("op", "(")
            kk = self.take("num")
            self.take("op", ")")
            return IsometryOntoCodim(int(kk))
        if name == "FiniteRank":
            self.take("op", "(")
            r = self.take("num")
            self.take("op", ")")
            return FiniteRank(int(r))
        if name == "KnownRates":
            self.take("op", "(")
            fields: dict[str, Interval] = {}
            while True:
                key = self.take("name")
                self.take("op", "=")
                fields[key] = self.value()
                if self.peek() == ("op", ","):
                    self.take()
                    continue
                break
            self.take("op", ")")
            bad = set(fields) - {"alpha", "omega", "d", "q"}
            if bad:
                raise UsageError(f"unknown KnownRates fields {sorted(bad)}")
            return KnownRates(
                alpha=fields.get("alpha"),
                omega=fields.get("omega"),
                d=fields.get("d"),
                q=fields.get("q"),
            )
        raise UsageError(f"unknown atom {name!r}")


def parse_expr(text: str) -> OperatorExpr:
    """Parse the plain-text operator expression grammar (see module docs)."""
    return _Parser(_tokenize(text)).parse()


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


def sphere_least_squares(lam, b: np.ndarray, s: float = 1.0):
    """Global minimizer z of |(lam I - L_N) z - b| over |z| = s in C^N, N = len(b).

    Returns (z, residual).  With lam = m e^{i theta} and D = diag(e^{-ik theta}),
    D^H A^H A D for A = lam I - L_N is the real tridiagonal T with diagonal
    m^2 + 1, ..., m^2 + 1, m^2 and off-diagonal -m, so z = D y with
    (T - mu I) y = c = D^H A^H b, |y| = s and mu <= lambda_1(T) (Moré and
    Sorensen 1983; Gander, Golub and von Matt 1989).  Below the root of
    |y(mu)| = s a rational model |y|^2 ~ alpha / (lambda_1 - mu)^2 + beta
    takes the step, above it Newton on 1/|y| - 1/s; each step is one banded
    Cholesky factorization and two solves.  The hard case, c orthogonal to
    the lowest eigenvector v_1 up to rounding (c = 0 for lam = 0, b = e_1;
    v_1 in the tail for |lam| < 1), shows as |y| < s just below lambda_1 and
    is completed along v_1.  O(N) time and memory; the residual is evaluated
    at the returned z.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal

    lam = as_complex(lam)
    b = np.asarray(b, dtype=complex)
    n = b.size
    m = abs(lam)
    d = np.exp(-1j * math.atan2(lam.imag, lam.real) * np.arange(n))
    c = d.conj() * _shift_adjoint(lam, b)
    diag = np.full(n, m * m + 1.0)
    diag[-1] = m * m
    ab = np.zeros((2, n))  # lower banded storage of T - mu I
    ab[1, :-1] = -m
    w, v = eigh_tridiagonal(diag, ab[1, :-1], select="i", select_range=(0, 0))
    lam1, v1 = float(w[0]), v[:, 0]
    # the closest shift a banded Cholesky factorization still takes
    tiny = 16.0 * np.finfo(float).eps * (1.0 + m) ** 2
    top = lam1 - tiny

    def solve(mu):
        ab[0] = diag - mu
        factor = cholesky_banded(ab, lower=True)
        return factor, cho_solve_banded((factor, True), c)

    mu = min(lam1 - np.linalg.norm(c) / s, top)  # |y(mu)| <= s here
    last = False
    for _ in range(60):  # about 8 steps in practice
        factor, y = solve(mu)
        ny = float(np.linalg.norm(y))
        if last or abs(ny - s) <= 4.0 * np.finfo(float).eps * s or (mu == top and ny < s):
            break
        dn = np.vdot(y, cho_solve_banded((factor, True), y)).real  # (1/2) d|y|^2/dmu
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


def geometric_seed(lam, N: int, radius: float = 1.0) -> np.ndarray:
    """Truncated eigen-direction z_n proportional to lam^{1-n}, scaled to radius."""
    lam = as_complex(lam)
    if abs(lam) <= 1.0:
        raise PreconditionError("the geometric direction needs |lam| > 1")
    z = lam ** (1.0 - np.arange(1, N + 1, dtype=float))
    return z * (radius / np.linalg.norm(z))


@dataclass(frozen=True)
class ShiftScanResult:
    lams: tuple
    radii: tuple
    residuals: np.ndarray       # raw residuals, shape (n_lams, n_radii)
    normalized: np.ndarray      # residual / radius
    candidates: tuple
    candidate_mask: np.ndarray
    verdicts: tuple


def shift_bifurcation_scan(
    lam_grid,
    N: int = 40,
    radii=(1e-1, 1e-2, 1e-3),
    tol: float = 0.02,
    h: Optional[Callable] = None,
    h_sphere_const: Optional[Callable] = None,
    polish_budget: int = 2000,
) -> ShiftScanResult:
    """Small-radius nontrivial-solution scan for lam z = f_N(z) + h(z).

    h is a truncation-compatible perturbation with h(0) = 0 and h(z) small
    relative to |z| near 0.  When h is constant on each sphere (for example
    a power of the norm times a fixed vector), pass h_sphere_const(r) -> the
    vector value so the per-sphere problem stays affine and is solved
    exactly; otherwise a seeded derivative-free descent is used.
    """
    _check_truncation(N)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    lams = [as_complex(l) for l in lam_grid]
    e1 = np.zeros(N, dtype=complex)
    e1[0] = 1.0

    def full_h(z):
        return h(z) if h is not None else 0.0

    res = np.empty((len(lams), len(radii)))
    for i, lam in enumerate(lams):
        for j, r in enumerate(radii):
            if h is None or h_sphere_const is not None:
                b = r * e1
                if h_sphere_const is not None:
                    b = b + np.asarray(h_sphere_const(r), dtype=complex)
                _, resid = sphere_least_squares(lam, b, r)
                res[i, j] = resid
                continue
            # general perturbation: seeded derivative-free descent on the sphere
            from scipy import optimize
            if abs(lam) > 1.0:
                z0 = geometric_seed(lam, N, r)
            else:
                dirs = np.exp(2j * math.pi * np.linspace(0, 1, 64, endpoint=False))
                cands = np.zeros((64, N), dtype=complex)
                cands[np.arange(64), np.arange(64) % N] = r * dirs
                z0 = min(cands, key=lambda z: np.linalg.norm(_shift_apply(lam, z, np.linalg.norm(z) * e1 + full_h(z))))

            def objective(wr, _lam=lam, _r=r):
                z = wr[:N] + 1j * wr[N:]
                nz = np.linalg.norm(z)
                if nz == 0.0:
                    return float(np.linalg.norm(full_h(np.zeros(N, dtype=complex)) ))
                z = z * (_r / nz)
                return float(np.linalg.norm(_shift_apply(_lam, z, _r * e1 + full_h(z))))

            w0 = np.concatenate([z0.real, z0.imag])
            f0 = objective(w0)
            out = optimize.minimize(
                objective, w0, method="Powell", options={"maxfev": polish_budget}
            )
            res[i, j] = min(f0, float(out.fun))

    normalized = res / np.asarray(radii)[None, :]
    from .estimators import scan_verdicts

    mask, verdicts = scan_verdicts(normalized, tol)
    return ShiftScanResult(
        lams=tuple(lams),
        radii=radii,
        residuals=res,
        normalized=normalized,
        candidates=tuple(l for l, m in zip(lams, mask) if m),
        candidate_mask=mask,
        verdicts=verdicts,
    )
