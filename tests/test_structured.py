import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from specpoint.core import POS_INF, PreconditionError, UsageError, as_complex
from specpoint.rates import (
    CompactLinear,
    Compose,
    FiniteRank,
    Identity,
    Interval,
    IsometryOntoCodim,
    KnownRates,
    LocallyCompactNonlinear,
    Scale,
    ScalarMultiple,
    Sum,
    _mul_bound,
    mnc_bounds,
    parse_expr,
)
from specpoint import structured
from specpoint.structured import (
    LambdaOrbits,
    SQRT2,
    shift_bifurcation_scan,
    shift_model_report,
    truncated_shift_min,
    xi_equation_solvable,
)
from specpoint.structured import _e1_norm_sq, _e1_sphere_least_squares, _lowest_eigenpair

from oracles import (
    _odd_even_energy,
    _odd_even_factor,
    _odd_even_solve,
    _shift_adjoint,
    _shift_apply,
    sphere_least_squares,
    truncated_shift_map,
)


def geometric_seed(lam, N: int, radius: float = 1.0) -> np.ndarray:
    """Truncated eigen-direction z_n proportional to lam^{-n}, scaled to radius.

    lam z = (|z|, z_1, z_2, ...) gives z_{n+1} = z_n / lam and lam z_1 = |z|,
    so z_n = |z| lam^{-n}: the map is not complex homogeneous, so the phase
    of the direction matters.  On the circle |lam| = sqrt(2) the untruncated
    sequence has norm |z| (the sum of 2^{-n} is 1), so it is an eigenvector;
    its first N terms leave a residual of about 2^{-N-1} radius.
    """
    lam = as_complex(lam)
    if abs(lam) <= 1.0:
        raise PreconditionError("the geometric direction needs |lam| > 1")
    z = lam ** -np.arange(1, N + 1, dtype=float)
    return z * (radius / np.linalg.norm(z))


RNG = np.random.default_rng(5)


# ---------------------------------------------------------------------------
# rate calculus


def test_isometry_plus_compact():
    b = mnc_bounds(Sum(IsometryOntoCodim(1), CompactLinear()))
    assert b.alpha == Interval(1.0, 1.0)
    assert b.omega == Interval(1.0, 1.0)
    assert any("sum" in r for r in b.derivation)


def test_scale_identity():
    for c in (-3.0, 0.5, 2.0):
        b = mnc_bounds(Scale(c, Identity()))
        assert b.alpha == Interval(abs(c), abs(c))
        assert b.omega == Interval(abs(c), abs(c))


def test_scale_takes_zero_times_inf_as_zero():
    for c in (0.0, 0.5, 2.0, math.inf):
        for lo, hi in ((0.0, 0.0), (0.0, 1.5), (2.0, 3.0), (1.0, math.inf), (0.0, math.inf), (math.inf, math.inf)):
            b = mnc_bounds(Scale(c, KnownRates(alpha=(lo, hi), omega=(lo, hi))))
            for got in (b.alpha, b.omega):
                assert (got.lo, got.hi) == (_mul_bound(c, lo), _mul_bound(c, hi))


def test_compose_known_rates_hand_oracle():
    # hand evaluation of the two composite inequalities with outer (2, 1)
    # and inner (3, 0.5): alpha <= 2*3 = 6, omega in [1*0.5, 2*0.5] = [0.5, 1]
    b = mnc_bounds(Compose(KnownRates(alpha=2, omega=1), KnownRates(alpha=3, omega=0.5)))
    assert b.alpha.hi == 6.0
    assert b.omega.lo == 0.5
    assert b.omega.hi <= 6.0
    assert b.omega == Interval(0.5, 1.0)


def test_compact_atoms_vanish():
    for atom in (CompactLinear(), FiniteRank(3), LocallyCompactNonlinear()):
        b = mnc_bounds(atom)
        assert b.alpha == Interval(0.0, 0.0)
        assert b.omega == Interval(0.0, 0.0)


def test_unknown_rates_give_trivial_interval():
    b = mnc_bounds(KnownRates())
    assert b.alpha == Interval(0.0, POS_INF)
    assert "atom:no rule" in b.derivation


def test_scalar_multiple_atom():
    b = mnc_bounds(ScalarMultiple(-2.0))
    assert b.alpha == Interval(2.0, 2.0)


def test_order_constraint_enforced():
    b = mnc_bounds(KnownRates(alpha=(0.0, 1.0), omega=(0.5, 3.0)))
    assert b.omega.hi <= b.alpha.hi
    assert b.alpha.lo >= 0.5


rate_vals = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@given(rate_vals, rate_vals, rate_vals, rate_vals)
def test_sum_rule_sound_for_exact_children(a1, w1, a2, w2):
    w1, w2 = min(w1, a1), min(w2, a2)
    b = mnc_bounds(Sum(KnownRates(alpha=a1, omega=w1), KnownRates(alpha=a2, omega=w2)))
    assert b.alpha.lo <= abs(a1 - a2) <= b.alpha.hi or math.isclose(b.alpha.lo, abs(a1 - a2))
    assert b.alpha.hi == a1 + a2
    assert b.omega.lo <= max(0.0, w1 - a2, w2 - a1) + 1e-12
    assert b.omega.hi >= min(w1 + a2, w2 + a1) - 1e-12


@st.composite
def intervals(draw):
    lo = draw(rate_vals)
    hi = lo + draw(rate_vals)
    return (lo, hi)


@st.composite
def shrunk(draw, iv):
    lo, hi = iv
    a = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    lo2 = lo + a * (hi - lo)
    hi2 = hi - b * (hi - lo)
    if lo2 > hi2:
        lo2 = hi2 = 0.5 * (lo2 + hi2)
    return (lo2, hi2)


@given(st.data())
def test_monotone_in_atom_intervals(data):
    a_iv = data.draw(intervals())
    w_iv = data.draw(intervals())
    w_iv = (min(w_iv[0], a_iv[0]), min(w_iv[1], a_iv[1]))
    if w_iv[0] > w_iv[1]:
        w_iv = (w_iv[1], w_iv[1])
    a_sub = data.draw(shrunk(a_iv))
    w_sub = data.draw(shrunk(w_iv))

    def tree(alpha, omega):
        atom = KnownRates(alpha=alpha, omega=omega)
        return Sum(Compose(atom, IsometryOntoCodim(1)), Scale(0.5, atom))

    wide = mnc_bounds(tree(a_iv, w_iv))
    narrow = mnc_bounds(tree(a_sub, w_sub))
    assert wide.alpha.lo <= narrow.alpha.lo and narrow.alpha.hi <= wide.alpha.hi
    assert wide.omega.lo <= narrow.omega.lo and narrow.omega.hi <= wide.omega.hi


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_round_trips():
    assert mnc_bounds(parse_expr("IsometryOntoCodim(1) + CompactLinear")).alpha == Interval(1, 1)
    assert mnc_bounds(parse_expr("scale(2, Identity)")).alpha == Interval(2, 2)
    b = mnc_bounds(parse_expr("KnownRates(alpha=2, omega=1) o KnownRates(alpha=3, omega=0.5)"))
    assert b.omega == Interval(0.5, 1.0)
    assert mnc_bounds(parse_expr("(Identity + FiniteRank(2))")).alpha == Interval(1, 1)
    b2 = mnc_bounds(parse_expr("KnownRates(alpha=0..2, omega=0)"))
    assert b2.alpha == Interval(0.0, 2.0)


def test_parse_unicode_compose():
    # the composite of two identities has omega = 1, which pins alpha to [1, 1]
    b = mnc_bounds(parse_expr("Identity ∘ Identity"))
    assert b.alpha == Interval(1.0, 1.0)
    assert b.omega == Interval(1.0, 1.0)


def test_parse_errors():
    for bad in ("Bogus", "scale(2 Identity)", "Identity +", "KnownRates(zeta=1)", "3 + 4"):
        with pytest.raises(UsageError):
            parse_expr(bad)


# ---------------------------------------------------------------------------
# shift model: analytic record


def test_shift_report_values():
    rep = shift_model_report()
    assert rep.lower_growth == pytest.approx(SQRT2)
    assert rep.quasinorm == pytest.approx(SQRT2)
    assert rep.alpha_rate == rep.omega_rate == 1.0
    assert rep.point_spectrum_radius == pytest.approx(SQRT2)
    assert rep.omega_part_radius == 1.0
    assert rep.spectrum_radius == pytest.approx(SQRT2)


def test_shift_report_consistent_with_rate_annuli():
    rep = shift_model_report()
    assert rep.lower_growth <= rep.point_spectrum_radius <= rep.quasinorm
    assert rep.omega_rate <= rep.omega_part_radius <= rep.alpha_rate


def test_shift_index_function():
    rep = shift_model_report()
    assert rep.index(0.5) == -1
    assert rep.index(0.5j) == -1
    assert rep.index(2.0) == 0
    assert rep.index(1.0) is None


def test_eigvec_norm_formula():
    rep = shift_model_report()
    assert rep.eigvec_norm_sq(math.sqrt(3.0)) == pytest.approx(0.5)
    assert rep.eigvec_norm_sq(SQRT2) == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        rep.eigvec_norm_sq(0.5)


def test_mnc_reproduces_shift_rates():
    b = mnc_bounds(Sum(IsometryOntoCodim(1), FiniteRank(1)))
    rep = shift_model_report()
    assert b.alpha == Interval(rep.alpha_rate, rep.alpha_rate)
    assert b.omega == Interval(rep.omega_rate, rep.omega_rate)


# ---------------------------------------------------------------------------
# xi equation


def test_xi_examples():
    assert xi_equation_solvable(1.2, 0.1) == (False, None)
    solvable, xi = xi_equation_solvable(2.0, 0.1)
    assert solvable
    # closed form, verified by substituting the witness back
    c = 1.0 / math.sqrt(3.0)
    assert xi == pytest.approx(0.1 / (1.0 - c))
    assert abs(xi - abs(xi) * c - 0.1) < 1e-15
    assert xi_equation_solvable(SQRT2, 0.1) == (False, None)


def test_xi_preconditions():
    with pytest.raises(PreconditionError):
        xi_equation_solvable(0.9, 0.1)
    with pytest.raises(PreconditionError):
        xi_equation_solvable(2.0, -1.0)


def test_xi_threshold_property():
    for eps in (1e-3, 0.1, 1.0):
        for m in (1.01, 1.2, 1.41, SQRT2 - 1e-6):
            assert not xi_equation_solvable(m, eps)[0]
        for m in (SQRT2 + 1e-6, 1.5, 2.0, 10.0):
            ok, xi = xi_equation_solvable(m, eps)
            assert ok
            c = 1.0 / math.sqrt(m * m - 1.0)
            assert abs(xi - abs(xi) * c - eps) < 1e-9 * max(1.0, abs(xi))


# ---------------------------------------------------------------------------
# sphere-constrained least squares (solver oracle)


def _shift_matrix(n):
    """Dense L_N, the truncated right shift, for the reference solver."""
    L = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    L[idx + 1, idx] = 1.0
    return L


def _dense_sphere_least_squares(A, b, s=1.0):
    """Reference: the former dense solver, a complex eigh of A^H A and bisection."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    H = A.conj().T @ A
    g = A.conj().T @ b
    w, V = np.linalg.eigh(H)
    c = V.conj().T @ g
    wmin = float(w[0])
    scale = max(1.0, abs(wmin))
    min_block = w - wmin < 1e-12 * scale
    c_min_sq = float(np.sum(np.abs(c[min_block]) ** 2))

    def norm_sq(mu: float) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            return float(np.sum(np.abs(c) ** 2 / (w - mu) ** 2))

    if c_min_sq <= 1e-28 * max(1.0, float(np.sum(np.abs(c) ** 2))):
        rest = ~min_block
        if rest.any():
            coeff = c[rest] / (w[rest] - wmin)
            n_rest = float(np.sum(np.abs(coeff) ** 2))
        else:
            coeff = np.zeros(0, dtype=complex)
            n_rest = 0.0
        if n_rest <= s * s:
            tau = math.sqrt(max(s * s - n_rest, 0.0))
            z = V[:, rest] @ coeff + tau * V[:, 0] if rest.any() else tau * V[:, 0]
            return z, float(np.linalg.norm(A @ z - b))

    lo = wmin - (float(np.linalg.norm(c)) / s + 1.0)
    gap = max(1e-8 * scale, 1e-300)
    while norm_sq(wmin - gap) < s * s and gap > 1e-250:
        gap *= 1e-4
    hi = wmin - gap
    if norm_sq(hi) < s * s:
        rest = ~min_block
        coeff = c[rest] / (w[rest] - wmin)
        n_rest = float(np.sum(np.abs(coeff) ** 2))
        tau = math.sqrt(max(s * s - n_rest, 0.0))
        z = V[:, rest] @ coeff + tau * V[:, 0]
        return z, float(np.linalg.norm(A @ z - b))
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if norm_sq(mid) < s * s:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    z = V @ (c / (w - mu))
    nz = np.linalg.norm(z)
    if nz > 0:
        z = z * (s / nz)
    return z, float(np.linalg.norm(A @ z - b))


MODULI = (0.0, 0.5, 0.9, 1.0, 1.2, SQRT2, 2.0, 3.0)


@given(
    st.sampled_from(MODULI),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(1, 64),
    st.sampled_from(("random", "e1")),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_sphere_least_squares_matches_dense_reference(modulus, phase, n, kind, s, seed):
    rng = np.random.default_rng(seed)
    lam = modulus * complex(math.cos(phase), math.sin(phase))
    if kind == "e1":  # the scan's right-hand sides; hard case for |lam| < 1
        b = np.zeros(n, dtype=complex)
        b[0] = complex(*rng.normal(size=2))
    else:
        b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
    A = lam * np.eye(n) - _shift_matrix(n)
    z, resid = sphere_least_squares(lam, b, s)
    _, ref = _dense_sphere_least_squares(A, b, s)
    assert abs(np.linalg.norm(z) - s) <= 1e-12 * s
    assert resid == pytest.approx(np.linalg.norm(A @ z - b), rel=1e-12, abs=1e-14)
    # both residuals are evaluated at points of the sphere, so both bound the
    # true minimum from above; where A^H A is nearly singular the dense
    # reference can be the higher one by a few 1e-12 (see the next test)
    assert resid <= ref + 1e-12 * max(1.0, np.linalg.norm(b))


def _shift_tridiagonal(m, n):
    diag = np.full(n, m * m + 1.0)
    diag[-1] = m * m
    return diag, np.full(n - 1, -m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 27, 200, 100_000])
def test_lowest_eigenpair_matches_eigh_tridiagonal(n):
    from scipy.linalg import eigh_tridiagonal

    edge = n / (n + 1)
    for m in (0.0, 1e-300, 1e-8, 0.5, edge, edge - 1e-9, edge + 1e-9, 0.99, 1.0, 1.2, SQRT2, 2.0, 3.0, 1e3):
        diag, off = _shift_tridiagonal(m, n)
        w, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        lam1, v = _lowest_eigenpair(m, n)
        v = np.asarray(v)
        assert abs(lam1 - w[0]) <= 1e-14 * max(1.0, m * m), (n, m, lam1, w[0])
        tv = diag * v
        tv[:-1] += off * v[1:]
        tv[1:] += off * v[:-1]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(tv - lam1 * v) <= 1e-12 * (1.0 + m) ** 2, (n, m)


@given(st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_odd_even_solve_matches_dense_solve(n, seed):
    # random SPD tridiagonals of every size parity, complex right-hand sides
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n - 1)
    d = np.abs(rng.normal(size=n)) + 0.1
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    x = _odd_even_solve(*_odd_even_factor(d, e), f)
    ref = np.linalg.solve(dense, f)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.cond(dense) * np.linalg.norm(ref)


def _banded_sphere_least_squares(lam, b, s=1.0):
    """Reference: the former solver, scipy's banded Cholesky and eigh_tridiagonal."""
    from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal

    lam = complex(lam)
    b = np.asarray(b, dtype=complex)
    n = b.size
    m = abs(lam)
    d = np.exp(-1j * math.atan2(lam.imag, lam.real) * np.arange(n))
    c = d.conj() * _shift_adjoint(lam, b)
    diag = np.full(n, m * m + 1.0)
    diag[-1] = m * m
    ab = np.zeros((2, n))
    ab[1, :-1] = -m
    w, v = eigh_tridiagonal(diag, ab[1, :-1], select="i", select_range=(0, 0))
    lam1, v1 = float(w[0]), v[:, 0]
    tiny = 16.0 * np.finfo(float).eps * (1.0 + m) ** 2
    top = lam1 - tiny

    def solve(mu):
        ab[0] = diag - mu
        factor = cholesky_banded(ab, lower=True)
        return factor, cho_solve_banded((factor, True), c)

    mu = min(lam1 - np.linalg.norm(c) / s, top)
    last = False
    for _ in range(60):
        factor, y = solve(mu)
        ny = float(np.linalg.norm(y))
        if last or abs(ny - s) <= 4.0 * np.finfo(float).eps * s or (mu == top and ny < s):
            break
        dn = np.vdot(y, cho_solve_banded((factor, True), y)).real
        new = mu + (1.0 - ny / s) * ny * ny / dn
        beta = ny * ny - dn * (lam1 - mu)
        if ny < s and beta < s * s:
            new = lam1 - (lam1 - mu) * math.sqrt(dn * (lam1 - mu) / (s * s - beta))
        new = min(new, top)
        last = abs(new - mu) <= tiny / 2.0
        mu = new
    a = complex(v1 @ y)
    rest = s * s - float(np.linalg.norm(y - a * v1)) ** 2
    along = (a / abs(a) if a else 1.0) * math.sqrt(max(rest, 0.0))
    if rest > 0.0 and (ny == 0.0 or (lam1 - mu) * abs(along - a) ** 2 <= (s / ny - 1.0) ** 2 * np.vdot(y, c).real):
        y += (along - a) * v1
    else:
        y *= s / ny
    z = d * y
    return z, float(np.linalg.norm(_shift_apply(lam, z, b)))


@given(
    st.sampled_from(MODULI),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(1, 64),
    st.sampled_from(("random", "e1")),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_sphere_least_squares_matches_banded_cholesky_reference(modulus, phase, n, kind, s, seed):
    rng = np.random.default_rng(seed)
    lam = modulus * complex(math.cos(phase), math.sin(phase))
    if kind == "e1":
        b = np.zeros(n, dtype=complex)
        b[0] = complex(*rng.normal(size=2))
    else:
        b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
    z, resid = sphere_least_squares(lam, b, s)
    _, ref = _banded_sphere_least_squares(lam, b, s)
    assert abs(np.linalg.norm(z) - s) <= 1e-12 * s
    # rounding only: both run the same secular iteration
    scale = max(1.0, float(np.linalg.norm(b)) + (1.0 + modulus) * s)
    assert abs(resid - ref) <= 1e-13 * scale


def test_sphere_least_squares_high_precision_oracle():
    # lam = 0.5, N = 38: the minimum from the same secular equation in
    # 50-digit arithmetic is 0.0030043231237886454...; the dense reference
    # returns 0.0030043231285154..., 4.7e-12 too high
    rng = np.random.default_rng(349086288)
    b = (rng.normal(size=38) + 1j * rng.normal(size=38)) * 10.0 ** rng.uniform(-3, 3)
    _, resid = sphere_least_squares(0.5, b, 1.0)
    assert resid == pytest.approx(0.0030043231237886454, abs=1e-16)


def test_sphere_least_squares_vs_brute_force():
    # oracle: dense random sampling of the sphere never beats the reported minimum
    for n in (3, 4, 6):
        for lam in (0.0, 0.5j, 0.9, SQRT2 * np.exp(0.4j), 2.0, -3.0):
            A = lam * np.eye(n) - _shift_matrix(n)
            b = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            s = float(RNG.uniform(0.1, 3.0))
            z, resid = sphere_least_squares(lam, b, s)
            assert abs(np.linalg.norm(z) - s) < 1e-12 * s
            w = RNG.normal(size=(20000, n)) + 1j * RNG.normal(size=(20000, n))
            w *= s / np.linalg.norm(w, axis=1, keepdims=True)
            sampled = np.linalg.norm(w @ A.T - b, axis=1).min()
            assert resid <= sampled + 1e-9


def test_sphere_least_squares_zero_gradient_branch():
    # lam = 0, b = e1: A^H b = 0, so the minimum is attained along the null
    # direction e_N, value 1
    N = 12
    b = np.zeros(N, dtype=complex)
    b[0] = 1.0
    z, resid = sphere_least_squares(0.0, b, 1.0)
    assert resid == pytest.approx(1.0, abs=1e-12)
    assert abs(z[-1]) == pytest.approx(1.0, abs=1e-12)


def test_sphere_least_squares_hard_case():
    # |lam| <= 1/2: the lowest eigenvector lives in the tail, orthogonal to
    # e1 up to lam^N, and the minimizer completes y_perp along it
    for lam, n in ((0.5, 40), (0.3 * np.exp(2.0j), 64), (-0.5j, 200)):
        b = np.zeros(n, dtype=complex)
        b[0] = 0.1
        z, resid = sphere_least_squares(lam, b, 0.1)
        _, ref = _dense_sphere_least_squares(lam * np.eye(n) - _shift_matrix(n), b, 0.1)
        assert abs(resid - ref) <= 1e-12
        assert np.linalg.norm(z[n // 2:]) > 0.5 * 0.1


def test_sphere_least_squares_memory_is_linear():
    # a dense N x N complex H alone would be 64 MB at N = 2000
    tracemalloc.start()
    try:
        b = np.zeros(2000, dtype=complex)
        b[0] = 1.0
        sphere_least_squares(1.7 * np.exp(0.3j), b, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# right-hand sides along e_1: the scalar secular solve


def _e1_point(lam, n, gamma, y):
    """The minimizer z_k = gamma e^{-i(k-1) arg lam} y_k that `_e1_sphere_least_squares` describes."""
    lam = complex(lam)
    return gamma * np.exp(-1j * math.atan2(lam.imag, lam.real) * np.arange(n)) * np.asarray(y)


def _e1_moduli(n):
    edge = n / (n + 1)  # lambda_1 reaches the band edge (m - 1)^2 here
    return (0.0, 1e-3, 0.3, 0.5, 0.9, edge * (1.0 - 1e-8), edge * (1.0 + 1e-8), 1.0, 1.2, SQRT2, 2.0, 3.0)


@pytest.mark.parametrize("n", [4, 5, 8, 60, 1000, 100_000])
def test_e1_solve_matches_cyclic_reduction(n):
    # the same minimum as the general solver, at a point of the sphere where
    # the returned residual is evaluated
    cases = [(1.0, 1.0), (0.1 + 0.2j, 0.1), (1e-3 + 1e-6j, 1e-3), (-3.0, 7.0), (0.0, 0.5)]
    phases = (0.0, 1.0, -2.5)
    if n == 100_000:  # about 0.1 s for the two solves
        cases, phases = cases[:2], phases[1:2]
    for modulus in _e1_moduli(n):
        for phase in phases:
            lam = modulus * complex(math.cos(phase), math.sin(phase))
            for beta, s in cases:
                b = np.zeros(n, dtype=complex)
                b[0] = beta
                gamma, y, resid = _e1_sphere_least_squares(lam, n, beta, s)
                z = _e1_point(lam, n, gamma, y)
                _, ref = sphere_least_squares(lam, b, s)
                scale = max(1.0, abs(beta))
                assert abs(resid - ref) <= 1e-12 * scale, (modulus, phase, beta, s, resid, ref)
                assert abs(np.linalg.norm(z) - s) <= 1e-12 * s, (modulus, phase, beta, s)
                assert abs(np.linalg.norm(_shift_apply(lam, z, b)) - resid) <= 1e-12 * scale


@pytest.mark.parametrize("n", [4, 60, 1000])
def test_e1_norm_sq_and_its_complex_step_match_cyclic_reduction(n):
    # m^2 |x|^2 and (1/2) d/dmu of it, x = (T - mu I)^{-1} e_1: below the band,
    # inside it and at its edge (m - 1)^2, where the series form takes over
    step = 1e-100
    for m in (1e-3, 0.5, 0.9, 1.0, 1.2, SQRT2, 3.0):
        lam1, _ = _lowest_eigenpair(m, n)
        edge = (m - 1.0) ** 2
        mus = [lam1 - 10.0, lam1 - 1e-3, lam1 - 1e-6 * (1.0 + m) ** 2, edge - 1e-9, edge, edge + 1e-9]
        for mu in [mu for mu in mus if mu <= lam1 - 1e-6 * (1.0 + m) ** 2]:
            diag = np.full(n, m * m + 1.0)
            diag[-1] = m * m
            factor = _odd_even_factor(diag - mu, np.full(n - 1, -m))
            x = _odd_even_solve(*factor, np.eye(n)[0])
            w = _e1_norm_sq(m, n, complex(mu, step * (1.0 + m) ** 2))
            assert w.real == pytest.approx(m * m * float(x @ x), rel=1e-10), (m, mu)
            half_slope = w.imag / (2.0 * step * (1.0 + m) ** 2)
            assert half_slope == pytest.approx(m * m * _odd_even_energy(*factor, x), rel=1e-9), (m, mu)


def test_e1_solve_zero_gradient_branch():
    # lam = 0: c = 0, so the minimum lies along the null direction e_N, value |beta|
    for n in (12, 1000):
        gamma, y, resid = _e1_sphere_least_squares(0.0, n)
        assert resid == pytest.approx(1.0, abs=1e-12)
        assert abs(_e1_point(0.0, n, gamma, y)[-1]) == pytest.approx(1.0, abs=1e-12)


def test_e1_solve_hard_case():
    # |lam| <= 1/2: v_1 lives in the tail, orthogonal to e_1 up to lam^N
    for lam, n in ((0.5, 40), (0.3 * np.exp(2.0j), 64), (-0.5j, 200)):
        b = np.zeros(n, dtype=complex)
        b[0] = 0.1
        gamma, y, resid = _e1_sphere_least_squares(lam, n, 0.1, 0.1)
        _, ref = _dense_sphere_least_squares(lam * np.eye(n) - _shift_matrix(n), b, 0.1)
        assert abs(resid - ref) <= 1e-12
        assert np.linalg.norm(_e1_point(lam, n, gamma, y)[n // 2:]) > 0.5 * 0.1


def test_e1_solve_high_precision_oracle():
    # the secular equation on 60-digit eigenpairs of T (mpmath): at lam = 0.5,
    # N = 38 the multiplier lies 2.9e-12 below lambda_1, next to the hard case;
    # two ulps of 0.87 are 2.2e-16
    assert _e1_sphere_least_squares(0.5, 38)[2] == pytest.approx(0.8660254037822108488, abs=2.3e-16)
    resid = _e1_sphere_least_squares(1.2, 38, 0.3 + 0.1j, 0.7)[2]
    assert resid == pytest.approx(0.0719255062948767353, abs=1e-16)


def test_e1_solve_tiny_modulus():
    # |y| = |lam| |x| falls below the floats, and the hard case takes it
    for lam in (1e-160, 1e-300):
        assert _e1_sphere_least_squares(lam, 8)[2] == 1.0
        assert truncated_shift_min(lam, 8) == 1.0


# ---------------------------------------------------------------------------
# truncated minima


def test_truncated_min_at_circle_radius():
    # oracle: the residual at the truncated geometric eigenvector is an upper
    # bound, and it is tiny because the tail mass decays like |lam|^(-2N)
    val = truncated_shift_min(SQRT2, 60)
    seed = geometric_seed(SQRT2, 60)
    resid_seed = np.linalg.norm(SQRT2 * seed - truncated_shift_map(seed))
    assert val <= resid_seed + 1e-15
    assert val < 1e-6


def test_geometric_seed_solves_the_truncated_eigen_equation_on_the_circle():
    # lam z = (|z|, z_1, ...) needs lam z_1 = |z| > 0, so z_n ~ lam^-n: the
    # phase of the direction matters, as the map is not complex homogeneous
    for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        lam = SQRT2 * complex(math.cos(t), math.sin(t))
        for radius in (1.0, 1e-3):
            seed = geometric_seed(lam, 60, radius)
            assert abs(np.linalg.norm(seed) - radius) < 1e-15
            assert np.linalg.norm(lam * seed - truncated_shift_map(seed)) < 1e-12 * radius, (t, radius)
    seed = geometric_seed(-SQRT2, 60)
    assert np.linalg.norm(-SQRT2 * seed - truncated_shift_map(seed)) < 1e-12


def test_truncated_min_at_zero():
    # closed form: |f_N(z)|^2 = 2 - |z_N|^2 on the unit sphere, minimized at e_N
    for n in (8, 30, 60):
        assert truncated_shift_min(0.0, n) == pytest.approx(1.0, abs=1e-9)


def test_truncated_min_rejects_a_modulus_whose_square_overflows():
    # (m - 1)^2 in the closed-form eigenpair raised OverflowError
    assert truncated_shift_min(1.3e154, 8) > 0.0
    with pytest.raises(PreconditionError, match="must be finite"):
        truncated_shift_min(1e200, 8)


def test_truncated_min_outside():
    v60 = truncated_shift_min(2.0, 60)
    v120 = truncated_shift_min(2.0, 120)
    assert v60 >= 0.4
    assert abs(v60 - v120) < 1e-9
    # random-restart sampling at small N cannot go below the solver value
    N = 12
    A = 2.0 * np.eye(N, dtype=complex) - _shift_matrix(N)
    w = RNG.normal(size=(20000, N)) + 1j * RNG.normal(size=(20000, N))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    e1 = np.zeros(N, dtype=complex)
    e1[0] = 1.0
    sampled = np.linalg.norm(w @ A.T - e1, axis=1).min()
    assert truncated_shift_min(2.0, N) <= sampled + 1e-9


def test_truncated_min_monotone_in_dimension():
    # non-increasing for moduli at or beyond the circle radius; below it the
    # truncation distorts the sphere minimum from underneath
    for lam in (SQRT2, 1.7, 2.0):
        vals = [truncated_shift_min(lam, n) for n in (8, 16, 32, 64)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_truncated_min_at_large_truncation():
    # the ROADMAP target size: 10^5 unknowns, an O(N) solve
    assert abs(truncated_shift_min(2.0, 100_000) - (2.0 - SQRT2)) < 1e-9


def test_truncated_min_preconditions():
    with pytest.raises(PreconditionError):
        truncated_shift_min(1.0, 3)


# ---------------------------------------------------------------------------
# shift bifurcation scan


def test_shift_scan_unperturbed():
    scan = shift_bifurcation_scan([SQRT2, 1.2], N=40, tol=0.02)
    assert scan.verdicts == ("candidate", "rejected")
    assert np.asarray(scan.normalized)[1, -1] > 0.1


def test_shift_scan_norm_square_perturbation():
    N = 40

    def h_full(z):
        v = np.zeros(z.shape[0], dtype=complex)
        v[0] = np.linalg.norm(z) ** 2
        return v

    lams = [SQRT2 * complex(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
    scan = shift_bifurcation_scan(lams + [1.2], N=N, tol=0.02, normsq_e1=True)
    assert scan.verdicts[:-1] == ("candidate",) * 8
    assert scan.verdicts[-1] == "rejected"
    # derived example: raw residual below 1e-4 at radius 1e-3
    assert np.asarray(scan.residuals)[0, -1] < 1e-4

    # oracle: the fixed-point construction z = r * v/|v| with v the resolvent
    # direction gives residual exactly r^2 at |lam| = sqrt(2), an upper bound
    r = scan.radii[-1]
    seed = geometric_seed(lams[0], N, r)
    resid = np.linalg.norm(lams[0] * seed - truncated_shift_map(seed) - h_full(seed))
    assert abs(resid - r * r) < 1e-9
    assert np.asarray(scan.residuals)[0, -1] <= resid + 1e-12
    # analytic lower bound: sigma_min(lam I - L) >= sqrt(2) - 1 times r^2
    assert np.asarray(scan.residuals)[0, -1] >= 0.3 * r * r


def _per_lambda_normalized(lams, N, radii, normsq_e1=False):
    """Reference: one sphere solve for every (lambda, radius) pair, with h(z) = |z|^2 e_1 if normsq_e1."""
    e1 = np.zeros(N, dtype=complex)
    e1[0] = 1.0
    out = np.empty((len(lams), len(radii)))
    for i, lam in enumerate(lams):
        for j, r in enumerate(radii):
            b = (r + r * r) * e1 if normsq_e1 else r * e1
            out[i, j] = sphere_least_squares(lam, b, r)[1] / r
    return out


@pytest.mark.parametrize("perturbed", [False, True])
def test_grouped_shift_scan_matches_per_lambda_scan(perturbed):
    N = 200
    rng = np.random.default_rng(8)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    circle = [SQRT2 * complex(math.cos(t), math.sin(t)) for t in thetas]
    extras = [m * complex(math.cos(p), math.sin(p)) for m, p in zip(rng.uniform(1.1, 1.6, 4), rng.uniform(0, 6.3, 4))]
    lams = LambdaOrbits([(SQRT2, circle)] + [(lam, [lam]) for lam in extras])
    assert list(lams) == circle + extras
    grouped = shift_bifurcation_scan(lams, N=N, tol=0.02, normsq_e1=perturbed)
    ref = _per_lambda_normalized(circle + extras, N, grouped.radii, perturbed)
    flat = shift_bifurcation_scan(circle + extras, N=N, tol=0.02, normsq_e1=perturbed)
    from specpoint.estimators import scan_verdicts

    assert grouped.verdicts == scan_verdicts(ref, 0.02)[1] == flat.verdicts
    assert grouped.verdicts[:64] == ("candidate",) * 64
    assert np.max(np.abs(np.asarray(grouped.normalized) - ref)) <= 1e-15
    assert np.max(np.abs(np.asarray(flat.normalized) - ref)) <= 1e-15


BARE_SHIFT_PROBE = """
import sys
sys.modules["numpy"] = None  # any numpy import from here on raises ImportError
import specpoint.structured as st
scan = st.shift_bifurcation_scan(st.LambdaOrbits([(st.SQRT2, [st.SQRT2, -st.SQRT2]), (1.2, [1.2])]), N=40,
                                 normsq_e1=True)
print(scan.verdicts)
"""


def test_perturbed_shift_scan_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(structured.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", BARE_SHIFT_PROBE], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "('candidate', 'candidate', 'rejected')\n"


def test_lambda_orbits_reject_a_foreign_modulus():
    with pytest.raises(UsageError):
        LambdaOrbits([(SQRT2, [1.2])])
    empty = LambdaOrbits([(SQRT2, [])])
    assert shift_bifurcation_scan(empty, N=8).verdicts == ()
