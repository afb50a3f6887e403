"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Expected wall time is well under five minutes.
"""
import math

import numpy as np
import pytest

from specpoint.core import RealIntervalSet, scan_verdicts
from specpoint.dini import dini_estimate, dini_exact, point_spectrum_1d, spectrum_1d
from specpoint.estimators import c1_spectrum, spectrum_set
from specpoint.homog2d import (
    CellLabel,
    SigmaCurve,
    _curve_values,
    classify_plane,
    sigma_curve,
)
from specpoint.maps import MapSpec, builtin
from specpoint.planar import builtin as planar_builtin, curve_at, growth_rates, trace_curve
from specpoint.rates import Interval, mnc_bounds
from specpoint.structured import (
    SHIFT_REPORT,
    SQRT2,
    eigvec_norm_sq,
    shift_bifurcation_scan,
    truncated_shift_min,
    xi_equation_solvable,
)
from test_estimators import membership, rates, scan
from test_homog2d import affine_map, scanline_turns

RNG = np.random.default_rng(20240817)
INF = math.inf


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def _off_band_agreement(ps, exact_label):
    off = ps.labels != CellLabel.BAND
    return (ps.labels[off] == exact_label[off]).mean(), int(off.sum())


def test_acceptance_01_abs_re_disk():
    f = builtin("abs_re_plus_i_im")
    curve = sigma_curve(f, samples=4096)
    assert curve.values.size >= 4096
    assert np.max(np.abs(np.abs(curve.values) - 1.0)) < 1e-9

    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=200, band_radius=0.05)
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    exact = np.where(np.hypot(gx, gy) < 1.0, int(CellLabel.IN_SPECTRUM), int(CellLabel.REGULAR))
    agree, n_off = _off_band_agreement(ps, exact)
    assert agree >= 0.99
    assert not ps.violations
    _ok(1, f"unit-circle curve exact to 1e-9; {agree:.2%} of {n_off} off-band cells correct")


def test_acceptance_02_real_linear_circles():
    checked = 0
    classified = 0
    for k in range(100):
        s, t, u, v = RNG.uniform(-3, 3, size=4)
        f = builtin("real_linear", s=s, t=t, u=u, v=v)
        c = sigma_curve(f, samples=512)
        a, b = c.values.real, c.values.imag
        resid = np.abs(a**2 + b**2 - (s + v) * a - (u - t) * b + s * v - t * u)
        assert resid.max() < 1e-9
        r_sq = (s + v) ** 2 / 4.0 + (u - t) ** 2 / 4.0 - s * v + t * u
        degenerate_params = abs(s - v) < 1e-12 and abs(t + u) < 1e-12
        assert c.is_point(1e-9) == degenerate_params or (math.sqrt(max(r_sq, 0)) < 1e-9)
        checked += 1
        if k < 5:
            center = ((s + v) / 2.0, (u - t) / 2.0)
            r = math.sqrt(max(r_sq, 0.0))
            ps = classify_plane(
                f,
                bounds=(center[0] - r - 1, center[0] + r + 1, center[1] - r - 1, center[1] + r + 1),
                resolution=60,
            )
            off = ps.labels != CellLabel.BAND
            assert np.all(ps.labels[off] == CellLabel.REGULAR)
            classified += 1
    for s, t in ((1.0, -2.0), (0.5, 0.0), (-2.0, 3.0)):
        c = sigma_curve(builtin("real_linear", s=s, t=t, u=-t, v=s), samples=256)
        assert c.is_point(1e-9)
    _ok(2, f"{checked} random circles exact to 1e-9; {classified} grids all regular; degeneracy iff complex-linear")


def test_acceptance_03_cardioid():
    f = builtin("norm_plus_i_im")
    curve = sigma_curve(f, samples=4096)
    a, b = curve.values.real, curve.values.imag
    resid = np.abs((a - 1.0) ** 2 + b**2 - (a**2 + b**2 - a) ** 2)
    assert resid.max() < 1e-9

    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=200, band_radius=0.05)
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    sign = (gx - 1.0) ** 2 + gy**2 - (gx**2 + gy**2 - gx) ** 2
    exact = np.where(sign > 0.0, int(CellLabel.IN_SPECTRUM), int(CellLabel.REGULAR))
    agree, n_off = _off_band_agreement(ps, exact)
    assert agree >= 0.99
    _ok(3, f"cardioid equation residual {resid.max():.1e}; {agree:.2%} of {n_off} off-band cells match the sign test")


def test_acceptance_04_two_circles():
    f = builtin("half_abs_re_plus_i_im")
    curve = sigma_curve(f, samples=4096)

    def dist_to_union(z):
        return np.minimum(np.abs(np.abs(z - 0.25) - 0.75), np.abs(np.abs(z - 0.75) - 0.25))

    directed = dist_to_union(curve.values).max()
    assert directed < 1e-6
    # coverage: every point of the union is close to some computed sample
    angles = np.linspace(0, 2 * math.pi, 20000, endpoint=False)
    union = np.concatenate(
        [0.25 + 0.75 * np.exp(1j * angles), 0.75 + 0.25 * np.exp(1j * angles)]
    )
    from scipy.spatial import cKDTree

    samples = cKDTree(np.stack([curve.values.real, curve.values.imag], -1))
    cover = samples.query(np.stack([union.real, union.imag], -1), distance_upper_bound=2e-3)[0].max()
    assert cover < 2e-3  # inf past the bound 2e-3

    d, q = growth_rates(planar_builtin("half_abs_re_plus_i_im"), curve)
    assert abs(d - 0.5) < 1e-9 and abs(q - 1.0) < 1e-9

    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=200, band_radius=0.05)
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    z = gx + 1j * gy
    in_outer = np.abs(z - 0.25) < 0.75
    in_inner = np.abs(z - 0.75) < 0.25
    exact = np.where(in_outer & ~in_inner, int(CellLabel.IN_SPECTRUM), int(CellLabel.REGULAR))
    agree, n_off = _off_band_agreement(ps, exact)
    assert agree >= 0.99
    # the middle region is in the spectrum, both others are regular
    probe = {
        (0.0, 0.5): CellLabel.IN_SPECTRUM,   # between the circles
        (0.75, 0.0): CellLabel.REGULAR,      # inside the small circle
        (1.5, 1.5): CellLabel.REGULAR,       # unbounded outside
    }
    for (x, y), want in probe.items():
        i = int(np.argmin(np.abs(ps.xs - x)))
        j = int(np.argmin(np.abs(ps.ys - y)))
        assert ps.labels[j, i] == want
    _ok(4, f"two tangent circles within {directed:.1e}; rates (0.5, 1); {agree:.2%} of {n_off} cells correct")


def test_acceptance_05_dini_suite():
    reals, empty = RealIntervalSet(((-math.inf, math.inf),)), RealIntervalSet()
    zero = RealIntervalSet(((0.0, 0.0),))
    expected = {
        "sqrt_abs": (reals, empty),
        "signed_sqrt_abs": (empty, empty),
        "sqrt_abs_sin_inv": (reals, reals),
        "xsq_sin_inv": (zero, zero),
    }
    for name, (sig, pts) in expected.items():
        f = builtin(name)
        quad = dini_exact(f, 0.0)
        assert spectrum_1d(quad) == sig, name
        assert point_spectrum_1d(quad) == pts, name
        est = dini_estimate(f, 0.0, h0=0.1, ratio=0.6, steps=60)
        for e, a, flagged in zip(quad.as_tuple(), est.quad.as_tuple(), est.flagged):
            if math.isinf(e):
                assert flagged and a == e, name
            else:
                assert not flagged and abs(a - e) <= 1e-6, name
    _ok(5, "all four one-dimensional examples exact, numeric mode agrees (1e-6, flags)")


def test_acceptance_06_c1_reduction():
    f = builtin("norm_times_x", dim=5)
    for _ in range(20):
        p = RNG.normal(size=5)
        while np.linalg.norm(p) < 1e-3:
            p = RNG.normal(size=5)
        r = float(np.linalg.norm(p))
        eigs = spectrum_set(c1_spectrum(f, p), tol=1e-8 * max(1.0, r))
        assert len(eigs) == 2
        assert abs(eigs[0] - r) < 1e-10 * max(1.0, r)
        assert abs(eigs[1] - 2.0 * r) < 1e-10 * max(1.0, r)
    assert spectrum_set(c1_spectrum(f, np.zeros(5))) == pytest.approx((0.0,))
    _ok(6, "smooth-map reduction gives {|p|, 2|p|} at 20 random points and {0} at 0")


def test_acceptance_07_shift_model():
    rep = SHIFT_REPORT
    assert rep["d"] == pytest.approx(SQRT2, abs=1e-15)
    assert rep["q"] == pytest.approx(SQRT2, abs=1e-15)
    assert rep["point_spectrum_radius"] == pytest.approx(SQRT2, abs=1e-15)
    assert rep["omega_part_radius"] == 1.0
    assert rep["spectrum_radius"] == pytest.approx(SQRT2, abs=1e-15)
    for _ in range(20):
        m = RNG.uniform(1.05, 3.0)
        assert eigvec_norm_sq(m) == pytest.approx(1.0 / (m * m - 1.0), rel=1e-12)

    for _ in range(50):
        m = RNG.uniform(1.0 + 1e-6, SQRT2 - 1e-6)
        phi = RNG.uniform(0, 2 * math.pi)
        lam = m * complex(math.cos(phi), math.sin(phi))
        assert xi_equation_solvable(lam, RNG.uniform(1e-3, 1.0))[0] is False
    for _ in range(50):
        m = RNG.uniform(SQRT2 + 1e-6, 4.0)
        phi = RNG.uniform(0, 2 * math.pi)
        lam = m * complex(math.cos(phi), math.sin(phi))
        eps = RNG.uniform(1e-3, 1.0)
        ok, xi = xi_equation_solvable(lam, eps)
        assert ok
        c = 1.0 / math.sqrt(m * m - 1.0)
        assert abs(xi - abs(xi) * c - eps) < 1e-9 * max(1.0, abs(xi))

    assert truncated_shift_min(SQRT2, 60) < 1e-6
    for n in (8, 40, 60):
        assert truncated_shift_min(0.0, n) == pytest.approx(1.0, abs=1e-9)
    _ok(7, "analytic record, 100 sampled solvability checks, truncated minima")


def test_acceptance_08_bifurcation():
    g = planar_builtin("norm_plus_i_im_pow", n=2)
    xs = np.linspace(-1.5, 1.5, 24)
    ys = np.linspace(-1.5, 1.5, 30)
    lams = [complex(x, y) for y in ys for x in xs]
    assert len(lams) == 720
    cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    candidates = scan(g, lams, tol=0.02)[2]
    assert candidates
    # and nowhere else: everything flagged lies in that collar
    for c in candidates:
        assert abs(abs(c) - 1.0) <= 2.0 * cell

    angles = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    circle = [SQRT2 * complex(math.cos(a), math.sin(a)) for a in angles]
    rows = shift_bifurcation_scan([(SQRT2, circle), (1.2, [1.2])], N=40, normsq_e1=True)
    verdicts = scan_verdicts(rows, 0.02)
    assert verdicts[:-1] == ("candidate",) * len(circle)
    assert verdicts[-1] == "rejected"
    _ok(8, f"{len(candidates)} planar candidates hug the unit circle; shift scan flags the sqrt(2) circle only")


def test_acceptance_09_property_suites():
    # scaling and translation equivariance of curves at 1e-12
    f = builtin("half_abs_re_plus_i_im")
    base = sigma_curve(f, samples=512, chord_bound=100.0)
    for c in (-2.0, 0.5, 3.0):
        scaled = sigma_curve(affine_map(0.0, c, f), samples=512, chord_bound=100.0)
        assert np.max(np.abs(scaled.values - c * base.values)) < 1e-12
    shift = 0.3 - 0.2j
    moved = sigma_curve(affine_map(shift, 1.0, f), samples=512, chord_bound=100.0)
    assert np.max(np.abs(moved.values - (shift + base.values))) < 1e-12

    # curve contained in the [d, q] annulus on every homogeneous builtin
    for name in ("abs_re_plus_i_im", "half_abs_re_plus_i_im", "norm_plus_i_im", "norm_only"):
        h = builtin(name)
        bare = planar_builtin(name)
        d, q = growth_rates(bare, trace_curve(curve_at(bare)))  # as spec2d takes them
        mods = np.abs(sigma_curve(h, samples=1024).values)
        assert mods.min() >= d - 1e-9 and mods.max() <= q + 1e-9

    # bifurcation candidates are members of the point-spectrum part
    g = planar_builtin("norm_plus_i_im_pow", n=2)
    near = [
        (1.0 + 0.01 * k) * complex(math.cos(a), math.sin(a))
        for k in (-1, 0, 1)
        for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]
    far = [0j, 0.5 + 0j, 1.4j, -1.5 + 0j]
    candidates = scan(g, near + far, tol=0.05)[2]
    assert candidates
    for cand in candidates[:6]:
        assert membership(g, cand, tol=0.06)[0] in ("candidate", "undecided")

    # winding numbers are stable under sample doubling
    card = builtin("norm_plus_i_im")

    def turns(lam, samples):
        thetas = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        curve = SigmaCurve(thetas, _curve_values(card, thetas), math.nan, True)
        return scanline_turns(curve, np.array([lam.real]), np.array([lam.imag]))[0, 0]

    for lam in (0.2 + 0.1j, -1.1 + 0.2j, 1.6 - 0.3j):
        assert turns(lam, 256) == turns(lam, 512)

    # sampled growth rates against singular values on 50 random planar linear maps
    worst = 0.0
    for _ in range(50):
        M = RNG.normal(size=(2, 2))

        def ev(x, _M=M):
            return np.asarray(x, dtype=float) @ _M.T

        d, q = rates(MapSpec(name="lin", dim=2, evaluator=ev), np.zeros(2))
        sv = np.linalg.svd(M, compute_uv=False)
        worst = max(worst, abs(d - sv[-1]), abs(q - sv[0]))
    assert worst < 1e-4

    # rate-calculus spot checks, including the shift decomposition
    b = mnc_bounds("IsometryOntoCodim(1) + CompactLinear")
    assert b.alpha == Interval(1.0, 1.0) and b.omega == Interval(1.0, 1.0)
    assert mnc_bounds("scale(-2.0, Identity)").alpha == Interval(2.0, 2.0)
    two_sided = mnc_bounds("KnownRates(alpha=3, omega=2) + KnownRates(alpha=1, omega=1)")
    assert two_sided.alpha == Interval(2.0, 4.0)  # |3-1| .. 3+1
    assert two_sided.omega == Interval(1.0, 3.0)  # max(2-1, 1-3, 0) .. min(2+1, 1+3)
    comp = mnc_bounds("KnownRates(alpha=2, omega=1) o KnownRates(alpha=3, omega=0.5)")
    assert comp.alpha.hi == 6.0 and comp.omega == Interval(0.5, 1.0)
    assert mnc_bounds("CompactLinear").alpha == Interval(0.0, 0.0)
    _ok(9, f"equivariance, annulus, candidate containment, winding stability, rates (worst {worst:.1e}), rate calculus")


def test_acceptance_10_empty_spectrum_witness():
    f = builtin("conj_pair")
    assert abs(rates(f, np.zeros(4))[1] - 1.0) < 1e-6

    margins = []
    radii = np.linspace(0.15, 1.5, 10)
    angles = np.linspace(0, 2 * math.pi, 10, endpoint=False)
    for r in radii:
        for a in angles:
            lam = r * complex(math.cos(a), math.sin(a))
            verdict, margin = membership(f, lam, tol=1e-3)
            assert verdict == "rejected", lam
            assert margin > 0.0
            margins.append(margin)
    assert len(margins) == 100
    assert abs(min(margins) - 0.7084) < 5e-5  # sqrt(|lam|^2 - sqrt(2) |lam| + 1) at the modulus 0.75
    _ok(10, f"q = 1 and all 100 moduli rejected; smallest margin {min(margins):.3f}")
