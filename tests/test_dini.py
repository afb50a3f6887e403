import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from specpoint.core import (
    DiniQuad,
    EvaluationError,
    MapSpec,
    NEG_INF,
    POS_INF,
    PreconditionError,
    RealIntervalSet,
    UnsupportedError,
    replace,
)
from specpoint.dini import (
    BUILTINS_1D,
    MAX_STEPS,
    builtin_1d,
    dini_estimate,
    dini_exact,
    point_spectrum_1d,
    sigma_distances,
    spectrum_1d,
)
from specpoint.maps import builtin, evaluate, translate_to_origin

INF = POS_INF


def abs_map():
    return MapSpec(
        name="abs",
        dim=1,
        evaluator=lambda x: np.abs(np.asarray(x, dtype=float)),
        dini_exact=lambda p: DiniQuad(-1.0, -1.0, 1.0, 1.0)
        if p == 0
        else DiniQuad(*(math.copysign(1.0, p),) * 4),
    )


# ---------------------------------------------------------------------------
# exact quadruples


def test_exact_quads_at_zero():
    assert dini_exact(builtin("sqrt_abs"), 0.0).as_tuple() == (-INF, -INF, INF, INF)
    assert dini_exact(builtin("signed_sqrt_abs"), 0.0).as_tuple() == (INF,) * 4
    assert dini_exact(builtin("sqrt_abs_sin_inv"), 0.0).as_tuple() == (
        -INF,
        INF,
        -INF,
        INF,
    )
    assert dini_exact(builtin("xsq_sin_inv"), 0.0).as_tuple() == (0.0,) * 4


def test_exact_abs_quad():
    assert dini_exact(abs_map(), 0.0).as_tuple() == (-1.0, -1.0, 1.0, 1.0)


def test_exact_requires_provider():
    bare = MapSpec(name="bare", dim=1, evaluator=lambda x: np.asarray(x, dtype=float))
    with pytest.raises(UnsupportedError):
        dini_exact(bare, 0.0)


def test_exact_requires_1d():
    with pytest.raises(PreconditionError):
        dini_exact(builtin("abs_re_plus_i_im"), 0.0)


# ---------------------------------------------------------------------------
# numerical estimates


def test_estimate_sqrt_abs_flags_spec_grid():
    # oracle: the exact quadruple; the quotient 1/sqrt(h) crosses the threshold
    est = dini_estimate(builtin("sqrt_abs"), 0.0, h0=0.1, ratio=0.5, steps=40)
    assert est.quad.as_tuple() == (-INF, -INF, INF, INF)
    assert all(est.flagged)


def test_estimate_xsq_sin_inv_bounded():
    # analytic oracle: |quotient| = |h sin(1/h)| <= h, so the tail h bounds it
    est = dini_estimate(builtin("xsq_sin_inv"), 0.0, h0=0.1, ratio=0.5, steps=40)
    vals = est.quad.as_tuple()
    assert all(abs(v) <= 2e-2 for v in vals)
    assert all(abs(v) <= est.tail_h[1] * (1.0 + 1e-12) for v in vals)
    assert not any(est.flagged)


def test_estimate_linear_slope():
    # quotients are exactly 3 in real arithmetic; in floats the subtraction
    # f(p+h) - f(p) loses eps*|f(p)|/h, so the grid must not go below ~1e-5
    f = MapSpec(name="3x", dim=1, evaluator=lambda x: 3.0 * np.asarray(x, dtype=float))
    est = dini_estimate(f, 5.0, h0=0.1, ratio=0.5, steps=12)
    assert all(abs(v - 3.0) <= 1e-10 for v in est.quad.as_tuple())
    est_deep = dini_estimate(f, 5.0)
    assert all(abs(v - 3.0) <= 0.5 for v in est_deep.quad.as_tuple())


def test_estimate_matches_exact_on_catalogue():
    # module invariant: finite components within 1e-6, all divergence flags equal
    for name in ("sqrt_abs", "signed_sqrt_abs", "sqrt_abs_sin_inv", "xsq_sin_inv"):
        f = builtin(name)
        exact = dini_exact(f, 0.0).as_tuple()
        est = dini_estimate(f, 0.0, h0=0.1, ratio=0.6, steps=60).quad.as_tuple()
        for e, a in zip(exact, est):
            if math.isinf(e):
                assert a == e, name
            else:
                assert abs(a - e) <= 1e-6, name


@pytest.mark.parametrize("name", ["sqrt_abs", "signed_sqrt_abs", "sqrt_abs_sin_inv", "xsq_sin_inv"])
def test_estimate_matches_exact_off_the_origin(name):
    # off 0 each builtin is smooth: its exact quadruple is f'(p) four times,
    # and a grid of h in [5e-10, 1e-3] keeps truncation and rounding below 1e-5
    f = builtin(name)
    for p in (0.3, -0.45):
        exact = dini_exact(f, p).as_tuple()
        assert len(set(exact)) == 1, (name, p)
        est = dini_estimate(f, p, h0=1e-3, ratio=0.5, steps=24).quad.as_tuple()
        assert all(abs(a - e) <= 1e-5 for a, e in zip(est, exact)), (name, p, est, exact)


def test_estimate_abs_exact_quotients():
    est = dini_estimate(abs_map(), 0.0)
    assert est.quad.as_tuple() == (-1.0, -1.0, 1.0, 1.0)


def test_estimate_preconditions():
    f = builtin("sqrt_abs")
    with pytest.raises(PreconditionError):
        dini_estimate(f, 0.0, h0=-1.0)
    with pytest.raises(PreconditionError):
        dini_estimate(f, 0.0, ratio=1.5)
    with pytest.raises(PreconditionError):
        dini_estimate(f, 0.0, steps=4)
    with pytest.raises(PreconditionError):
        dini_estimate(builtin("abs_re_plus_i_im"), 0.0)
    # h0 = inf went on to a domain error, 0.6^2999 underflowed to a 0/0 quotient,
    # and a NaN threshold switched divergence detection off without a word
    for kwargs in (
        {"h0": INF},
        {"h0": math.nan},
        {"ratio": math.nan},
        {"steps": MAX_STEPS + 1},
        {"steps": 3000},
        {"divergence_threshold": math.nan},
        {"divergence_threshold": -5.0},
        {"divergence_threshold": 0.0},
    ):
        with pytest.raises(PreconditionError):
            dini_estimate(f, 0.0, **kwargs)
    # the largest grid that does not underflow, and threshold inf (detection off)
    deep = dini_estimate(f, 0.3, ratio=0.999, steps=3000)
    assert deep.tail_h[0] > 0.0 and not any(deep.flagged)
    off = dini_estimate(f, 0.0, divergence_threshold=INF)
    assert not any(off.flagged) and all(math.isfinite(v) for v in off.quad.as_tuple())


def test_estimate_reports_the_failing_step():
    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < -0.02, np.nan, x)

    f = MapSpec(name="holey", dim=1, evaluator=ev)
    # the tail is 0.5 * 0.5^k for k = 4..7, and -0.03125 is the first step that fails
    with pytest.raises(EvaluationError, match=r"^evaluation failed at h=-0\.03125: non-finite value from holey$"):
        dini_estimate(f, 0.0, h0=0.5, ratio=0.5, steps=8)
    with pytest.raises(EvaluationError, match=r"^non-finite value from holey$"):
        dini_estimate(f, -1.0)
    # a grid point beyond the floats was the domain error "non-finite input to holey"
    with pytest.raises(PreconditionError, match=r"^the grid points p \+- h0 must be finite"):
        dini_estimate(f, 1.79e308, h0=1e308, ratio=0.5, steps=8)


def test_estimate_threshold_configurable():
    # a steep but finite slope must not be flagged with a higher threshold
    f = MapSpec(name="steep", dim=1, evaluator=lambda x: 1e7 * np.asarray(x, dtype=float))
    est = dini_estimate(f, 0.0, divergence_threshold=1e6)
    assert est.quad.d_plus_high == INF
    est2 = dini_estimate(f, 0.0, divergence_threshold=1e9)
    assert abs(est2.quad.d_plus_high - 1e7) < 1.0


# ---------------------------------------------------------------------------
# interval extraction

REALS = RealIntervalSet(((-INF, INF),))


def contains(s, x):
    return any(lo <= x <= hi for lo, hi in s.intervals)


def test_spectrum_examples():
    assert spectrum_1d(DiniQuad(-INF, -INF, INF, INF)) == REALS
    assert spectrum_1d(DiniQuad(INF, INF, INF, INF)) == RealIntervalSet()
    assert spectrum_1d(DiniQuad(0.0, 0.0, 0.0, 0.0)) == RealIntervalSet(((0.0, 0.0),))


def test_point_spectrum_examples():
    assert point_spectrum_1d(DiniQuad(-INF, -INF, INF, INF)) == RealIntervalSet()
    assert point_spectrum_1d(DiniQuad(-INF, INF, -INF, INF)) == REALS
    # derived: |x| quadruple gives two singletons, contained in sigma = [-1, 1]
    sig = spectrum_1d(DiniQuad(-1.0, -1.0, 1.0, 1.0))
    pts = point_spectrum_1d(DiniQuad(-1.0, -1.0, 1.0, 1.0))
    assert pts == RealIntervalSet.from_pairs([(-1, -1), (1, 1)])
    assert sig == RealIntervalSet.from_pairs([(-1, 1)])
    for lo, hi in pts.intervals:
        assert contains(sig, lo) and contains(sig, hi)


endpoint = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.just(POS_INF),
    st.just(NEG_INF),
)


@st.composite
def quads(draw):
    a, b = sorted([draw(endpoint), draw(endpoint)])
    c, d = sorted([draw(endpoint), draw(endpoint)])
    return DiniQuad(a, b, c, d)


@given(quads())
def test_point_spectrum_subset_of_spectrum(q):
    sig = spectrum_1d(q)
    pts = point_spectrum_1d(q)
    for lo, hi in pts.intervals:
        if math.isfinite(lo):
            assert contains(sig, lo)
        if math.isfinite(hi):
            assert contains(sig, hi)
        if math.isfinite(lo) and math.isfinite(hi):
            assert contains(sig, 0.5 * (lo + hi))


@given(quads())
def test_spectrum_is_hull_of_point_spectrum_when_nonempty(q):
    # the hull identity holds whenever each side meets the real line; a side
    # collapsed to a single infinity is dropped from the point-spectrum part
    # but still stretches the full spectrum
    sides_real = not (
        (q.d_minus_low == q.d_minus_high and math.isinf(q.d_minus_low))
        or (q.d_plus_low == q.d_plus_high and math.isinf(q.d_plus_low))
    )
    sig = spectrum_1d(q)
    pts = point_spectrum_1d(q)
    if pts != RealIntervalSet() and sides_real:
        assert sig == RealIntervalSet(((pts.intervals[0][0], pts.intervals[-1][1]),))  # the hull of pts


def affine_quad(a, c, q):
    """The quadruple of x -> a x + c f(x) from f's quadruple q: a + c q, each side's ends swapped for c < 0."""
    if c == 0:
        return (a,) * 4
    lo_m, hi_m, lo_p, hi_p = (a + c * v for v in q)
    return (lo_m, hi_m, lo_p, hi_p) if c > 0 else (hi_m, lo_m, hi_p, lo_p)


@given(quads(), st.sampled_from([-2.0, -1.0, 0.5, 3.0]))
def test_scaling_equivariance(q, c):
    scaled = spectrum_1d(DiniQuad(*affine_quad(0.0, c, q.as_tuple())))
    want = [(min(c * lo, c * hi), max(c * lo, c * hi)) for lo, hi in spectrum_1d(q).intervals]
    want = [
        (lo, hi)
        for lo, hi in want
        if not (lo == hi and math.isinf(lo))
    ]
    assert scaled == RealIntervalSet.from_pairs(want)


def wobble(x):
    """x (4 + sin log x) right of 0 and x (-1.5 + 0.5 sin log|x|) left of it: quadruple (-2, -1, 3, 5) at 0."""
    if x > 0:
        return x * (4.0 + math.sin(math.log(x)))
    if x < 0:
        return x * (-1.5 + 0.5 * math.sin(math.log(-x)))
    return 0.0


@pytest.mark.parametrize(
    "base, a, c",
    [
        ("wobble", 0.0, 2.5),
        ("wobble", 0.0, -1.5),  # c < 0 swaps within each side
        ("wobble", 0.0, 0.0),
        ("wobble", 0.5, 1.0),
        ("wobble", 1.0, -1.0),
        ("sqrt_abs", 0.0, -2.0),
        ("sqrt_abs", 0.0, 0.0),
        ("sqrt_abs", 1.0, 1.0),
        ("sqrt_abs", 1.0, -1.0),
    ],
    ids=["scale_positive", "scale_negative", "scale_zero", "add_identity", "lambda_minus",
         "cusp_scale_negative", "cusp_scale_zero", "cusp_add_identity", "cusp_lambda_minus"],
)
def test_dini_estimate_of_an_affine_combination_follows_the_quadruple(base, a, c):
    # the quotients of a x + c f(x) are a + c times f's, up to rounding, and
    # the divergence flags follow: sqrt|x|'s infinite quadruple stays infinite
    ev = wobble if base == "wobble" else builtin_1d(base).evaluator
    f = MapSpec(name=base, dim=1, evaluator=ev)
    g = MapSpec(name=f"{a}*id+{c}*{base}", dim=1, evaluator=lambda x: a * x + c * ev(x))
    want = affine_quad(a, c, dini_estimate(f, 0.0).quad.as_tuple())
    assert dini_estimate(g, 0.0).quad.as_tuple() == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the bifurcation set at 0: Sigma's distances


LAMS_1D = [-1.5, -1.0, -0.5, -0.03, -0.02, -0.01, -0.0, 0.0, 0.01, 0.02, 0.03, 0.5, 1.0, 1.5]


def test_sigma_distances_of_the_builtins_are_exact():
    # Sigma at 0: all of R, {0}, and empty twice
    want = {
        "sqrt_abs_sin_inv": [0.0] * len(LAMS_1D),
        "xsq_sin_inv": [abs(lam) for lam in LAMS_1D],
        "sqrt_abs": [INF] * len(LAMS_1D),
        "signed_sqrt_abs": [INF] * len(LAMS_1D),
    }
    for name, dists in want.items():
        got = sigma_distances(builtin_1d(name), LAMS_1D)
        assert got == dists and all(math.copysign(1.0, d) == 1.0 for d in got), name


def test_sigma_distances_of_an_interval_and_a_half_line():
    # Sigma = [-1, 2] u [3, inf): inside reads 0.0, outside the distance to the nearer end
    f = MapSpec(name="sides", dim=1, evaluator=lambda x: 0.0,
                dini_exact=lambda p: DiniQuad(-1.0, 2.0, 3.0, INF))
    lams = [-4.0, -1.0, 0.5, 2.0, 2.25, 2.75, 3.0, 1e300]
    assert sigma_distances(f, lams) == [3.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0]


def test_sigma_distances_need_a_zero_at_the_origin():
    f = MapSpec(name="shifted", dim=1, evaluator=lambda x: x + 1.0, dini_exact=lambda p: DiniQuad(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(PreconditionError, match="f\\(0\\) = 0"):
        sigma_distances(f, [1.0])
    with pytest.raises(UnsupportedError):
        sigma_distances(MapSpec(name="plain", dim=1, evaluator=lambda x: x), [1.0])


def _brackets(g, lo, hi):
    """(a, b) for each sign change of g between 4097 even nodes on [lo, hi], bisected until b follows a."""
    xs = np.linspace(lo, hi, 4097).tolist()
    out = []
    for a, b in zip(xs, xs[1:]):
        if (g(a) < 0.0) == (g(b) < 0.0):
            continue
        while (mid := 0.5 * (a + b)) not in (a, b):
            a, b = (mid, b) if (g(mid) < 0.0) == (g(a) < 0.0) else (a, mid)
        out.append((a, b))
    return out


@pytest.mark.parametrize("lam", [1.0, -1.0, 0.0, 0.5])
def test_every_lambda_bifurcates_from_zero_for_sqrt_abs_sin_inv(lam):
    # lam x = sqrt|x| sin(1/x) changes sign between adjacent floats at x ~ 3.18e-4, 3.17e-4,
    # ..., twice in each period of sin(1/x), and so on at every scale down to 0
    f = builtin_1d("sqrt_abs_sin_inv").evaluator
    assert sigma_distances(builtin_1d("sqrt_abs_sin_inv"), [lam]) == [0.0]
    for t in (1e3 * math.pi, 1e5 * math.pi, 1e7 * math.pi):  # 1 / x from t to t + 50
        brackets = _brackets(lambda x: lam * x - f(x), 1.0 / (t + 50.0), 1.0 / t)
        assert len(brackets) in (15, 16, 17), (lam, t)
        assert all(b == math.nextafter(a, 1.0) for a, b in brackets), (lam, t)
        if t == 1e3 * math.pi:  # each with a relative residual below 1e-10
            roots = [a for a, _ in brackets]
            assert all(abs(lam * x - f(x)) <= 1e-10 * x for x in roots), lam
            if lam == 1.0:
                assert [round(x, 8) for x in roots[-3:]] == [3.1767e-4, 3.1799e-4, 3.1831e-4]


# ---------------------------------------------------------------------------
# differential check against the numpy engine that the scalar one replaced


def _frozen_safe_inv_sin(x):
    x = np.asarray(x, dtype=float)
    nz = x != 0
    safe = np.where(nz, x, 1.0)
    return np.where(nz, np.sin(1.0 / safe), 0.0)


def _frozen_sqrt_abs(x):
    return np.sqrt(np.abs(np.asarray(x, dtype=float)))


def _frozen_signed_sqrt_abs(x):
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.sqrt(np.abs(x))


def _frozen_sqrt_abs_sin_inv(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.abs(x)) * _frozen_safe_inv_sin(x)


def _frozen_xsq_sin_inv(x):
    x = np.asarray(x, dtype=float)
    return x * x * _frozen_safe_inv_sin(x)


FROZEN_EVALUATORS = {
    "sqrt_abs": _frozen_sqrt_abs,
    "signed_sqrt_abs": _frozen_signed_sqrt_abs,
    "sqrt_abs_sin_inv": _frozen_sqrt_abs_sin_inv,
    "xsq_sin_inv": _frozen_xsq_sin_inv,
}


def _frozen_osc_snaps(tail_h, h0):
    snaps = []
    for phase in (0.5 * np.pi, 1.5 * np.pi):
        m = np.maximum(1.0, np.round((1.0 / tail_h - phase) / (2.0 * np.pi)))
        snaps.append(1.0 / (phase + 2.0 * np.pi * m))
    out = np.concatenate(snaps)
    return np.unique(out[(out > 0.0) & (out <= h0)])


def _frozen_flag_side(quotients, threshold):
    lo = float(np.min(quotients))
    hi = float(np.max(quotients))
    lo_flag = hi_flag = False
    if hi > threshold:
        hi, hi_flag = POS_INF, True
    elif hi < -threshold:
        hi, hi_flag = NEG_INF, True
    if lo < -threshold:
        lo, lo_flag = NEG_INF, True
    elif lo > threshold:
        lo, lo_flag = POS_INF, True
    if hi == POS_INF and not lo_flag and lo > 0.0:
        lo, lo_flag = POS_INF, True
    if lo == NEG_INF and not hi_flag and hi < 0.0:
        hi, hi_flag = NEG_INF, True
    return lo, hi, lo_flag, hi_flag


def _frozen_dini_estimate(f, p, h0, ratio, steps, powers, divergence_threshold=1e6):
    """The numpy estimator as it was, but for its grid: hs = h0 * powers.

    It computed powers = ratio ** np.arange(steps).  Where numpy dispatches
    float64 power to a SIMD kernel, that differs from libm's pow, which the
    scalar engine's ratio**k calls, by one ulp at some k.
    """
    p = float(p)
    fp = float(evaluate(f, p))
    hs = h0 * powers
    tail = hs[steps // 2 :]
    if f.inv_oscillation_hint:
        tail = np.unique(np.concatenate([tail, _frozen_osc_snaps(tail, h0)]))
    sides, flags = [], []
    for sign in (-1.0, 1.0):
        h = sign * tail
        quot = (np.asarray(evaluate(f, p + h), dtype=float) - fp) / h
        lo, hi, lo_flag, hi_flag = _frozen_flag_side(quot, divergence_threshold)
        sides.append((lo, hi))
        flags.extend([lo_flag, hi_flag])
    (dml, dmh), (dpl, dph) = sides
    return (dml, dmh, dpl, dph), tuple(flags), (float(tail.min()), float(tail.max()))


GRIDS = [(0.1, 0.6, 60), (0.1, 0.5, 40), (0.05, 0.7, 80), (1.0, 0.9, 200), (0.01, 0.3, 16),
         (0.2, 0.8, 120), (0.1, 0.999, 3000)]
POINTS = [0.0, 0.3, -0.3, 0.7, 1e-3]


def _as_tuple(est):
    return est.quad.as_tuple(), est.flagged, est.tail_h


def test_estimate_matches_the_frozen_numpy_estimator():
    # bit for bit on the grid of libm's pow; numpy's own power moves the grid
    # by at most one ulp, and a quadruple or tail_h only where it moves
    moved = 0
    for h0, ratio, steps in GRIDS:
        libm = np.array([ratio**k for k in range(steps)])
        simd = ratio ** np.arange(steps)
        assert np.all(np.abs(simd - libm) <= np.spacing(libm)), (ratio, steps)
        for name in BUILTINS_1D:
            frozen = MapSpec(name=name, dim=1, evaluator=FROZEN_EVALUATORS[name])
            frozen = replace(frozen, inv_oscillation_hint=BUILTINS_1D[name][2])
            for p in POINTS:
                want = _frozen_dini_estimate(frozen, p, h0, ratio, steps, libm)
                for f in (builtin(name), builtin_1d(name)):
                    assert _as_tuple(dini_estimate(f, p, h0=h0, ratio=ratio, steps=steps)) == want
                # black boxes and maps translated to the origin take the same path
                moved_f = translate_to_origin(builtin(name), p)
                want = _frozen_dini_estimate(translate_to_origin(frozen, p), 0.0, h0, ratio, steps, libm)
                assert _as_tuple(dini_estimate(moved_f, 0.0, h0=h0, ratio=ratio, steps=steps)) == want
                old = _frozen_dini_estimate(frozen, p, h0, ratio, steps, simd)
                if old != _frozen_dini_estimate(frozen, p, h0, ratio, steps, libm):
                    assert not np.array_equal(simd[steps // 2 :], libm[steps // 2 :])
                    moved += 1
    # measured with numpy 2.4.6 on an AVX-512 x86-64 machine: 10 of the
    # 140 (map, point, grid) cases, all at ratio 0.9, moved by one ulp
    assert moved <= 10


def test_builtin_evaluators_have_the_frozen_bits():
    rng = np.random.default_rng(3)
    grids = [p + sign * h0 * np.array([ratio**k for k in range(steps)])
             for h0, ratio, steps in GRIDS for p in POINTS for sign in (-1.0, 1.0)]
    xs = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1.79e308],
        rng.uniform(-1.0, 1.0, 2000),
        np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-1074, 1020, 2000)) * rng.choice([-1.0, 1.0], 2000),
        *grids,
    ])
    for name, frozen in FROZEN_EVALUATORS.items():
        with np.errstate(all="ignore"):  # x * x overflows at 1e300 in both
            want = frozen(xs)
        scalar = builtin(name).evaluator
        assert scalar is BUILTINS_1D[name][0], name  # maps builds dini's builtin
        got = np.array([scalar(x) for x in xs.tolist()])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True), name
        finite = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite])), name


def test_dini_estimate_runs_on_every_one_dimensional_map_of_maps():
    # every 1-D MapSpec that maps builds takes a bare float, the convention of the
    # estimator: the 1-D builtins are dini's own, and norm_times_x(1) gives on floats
    # what it gives on arrays
    from specpoint.core import NAMES_1D
    from specpoint.maps import BUILTIN_NAMES

    specs = [f for f in (builtin(name) for name in BUILTIN_NAMES) if f.dim == 1]
    assert [f.name for f in specs] == list(NAMES_1D) == sorted(BUILTINS_1D)
    cube = builtin("norm_times_x", dim=1)
    specs += [cube, translate_to_origin(cube, 0.1)]
    xs = np.array([-0.7, 0.0, 0.3, 2.0])
    for f in specs:
        assert [float(evaluate(f, x)) for x in xs] == [float(f.evaluator(float(x))) for x in xs], f
        est = dini_estimate(f, 0.3)
        assert all(math.isfinite(v) for v in est.quad.as_tuple()), f
    for f in specs[-2:]:
        assert list(evaluate(f, xs)) == [float(f.evaluator(float(x))) for x in xs], f
    est = dini_estimate(cube, 0.3)
    assert all(abs(v - 0.6) < 1e-2 for v in est.quad.as_tuple())  # d/dx x|x| = 2|x|
