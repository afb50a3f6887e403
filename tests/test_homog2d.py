import math
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from specpoint import homog2d, planar
from specpoint.core import NumericError, PreconditionError
from specpoint.homog2d import (
    CURVE_SAMPLES,
    MARGIN_TOL,
    MAX_BAND_CELLS,
    CellLabel,
    PlaneSpectrum,
    SigmaCurve,
    _band_codes,
    _components_consistent,
    _crossings,
    _max_chord,
    _turns,
    classify_plane,
    sigma_curve,
)
from specpoint.maps import MapSpec, builtin, evaluate, scalar_action

RNG = np.random.default_rng(2024)


def scanline_turns(curve, xs, ys):
    """Degree 1 + wind(sigma, lam) for every lam = x + iy of an ascending grid, as `classify_plane` bins it."""
    return _turns(*_crossings(curve.values, xs, ys), ys.size, xs.size)


def affine_map(a, c, f: MapSpec) -> MapSpec:
    """x -> a x + c f(x) for a homogeneous f, the scalars acting through scalar_action."""
    def ev(x):
        return scalar_action(a, x, f.complex_pairs) + scalar_action(c, f.evaluator(x), f.complex_pairs)

    return MapSpec(name=f"{a}*id+{c}*{f.name}", dim=f.dim, evaluator=ev, homogeneous=True,
                   complex_pairs=f.complex_pairs)


def circle_params(s, t, u, v):
    center = np.array([(s + v) / 2.0, (u - t) / 2.0])
    r_sq = (s + v) ** 2 / 4.0 + (u - t) ** 2 / 4.0 - s * v + t * u
    return center, math.sqrt(max(r_sq, 0.0))


# ---------------------------------------------------------------------------
# curves


def test_identity_curve_is_constant_one():
    c = sigma_curve(builtin("real_linear"), samples=256)
    assert np.max(np.abs(c.values - 1.0)) < 1e-12
    assert c.is_point(1e-12)


def test_abs_re_curve_on_unit_circle():
    c = sigma_curve(builtin("abs_re_plus_i_im"), samples=4096)
    assert np.max(np.abs(np.abs(c.values) - 1.0)) < 1e-12
    assert c.chord_met


def test_cardioid_point_at_quarter_turn():
    # derived by substituting theta = pi/2 into the curve formula:
    # (1 + i) * (-i) = 1 - i
    c = sigma_curve(builtin("norm_plus_i_im"), samples=4096)
    i = int(np.argmin(np.abs(c.thetas - math.pi / 2)))
    assert abs(c.thetas[i] - math.pi / 2) < 1e-12
    assert abs(c.values[i] - (1 - 1j)) < 1e-12


def test_cardioid_curve_equation():
    c = sigma_curve(builtin("norm_plus_i_im"), samples=4096)
    a, b = c.values.real, c.values.imag
    resid = np.abs((a - 1.0) ** 2 + b**2 - (a**2 + b**2 - a) ** 2)
    assert resid.max() < 1e-9


def test_real_linear_circle_equation():
    for _ in range(20):
        s, t, u, v = RNG.uniform(-3, 3, size=4)
        c = sigma_curve(builtin("real_linear", s=s, t=t, u=u, v=v), samples=512)
        a, b = c.values.real, c.values.imag
        resid = np.abs(a**2 + b**2 - (s + v) * a - (u - t) * b + s * v - t * u)
        assert resid.max() < 1e-9


def test_real_linear_degeneracy_criterion():
    pt = sigma_curve(builtin("real_linear", s=1.0, t=-2.0, u=2.0, v=1.0), samples=256)
    assert pt.is_point(1e-9)
    assert abs(pt.values[0] - (1 + 2j)) < 1e-12
    for _ in range(20):
        s, t, u, v = RNG.uniform(-3, 3, size=4)
        if abs(s - v) < 1e-3 and abs(t + u) < 1e-3:
            continue
        c = sigma_curve(builtin("real_linear", s=s, t=t, u=u, v=v), samples=256)
        _, radius = circle_params(s, t, u, v)
        assert c.is_point(1e-9) == (radius <= 1e-9)


def test_curve_chord_contract():
    c = sigma_curve(builtin("norm_plus_i_im"), samples=64, chord_bound=1e-3)
    gaps = np.abs(np.roll(c.values, -1) - c.values)
    assert gaps.max() <= 1e-3
    assert np.all(np.diff(c.thetas) > 0)
    assert 0.0 <= c.thetas[0] < c.thetas[-1] < 2 * math.pi


def test_curve_at_the_sample_cap_stays_in_arrays():
    # a curve twice round a circle of radius 1e3 stops at the 2^20-sample cap;
    # its arrays hold 24 MB, and one chord sweep at a time comes on top
    f = builtin("real_linear", s=1e3, t=0.0, u=0.0, v=-1e3)
    tracemalloc.start()
    try:
        curve = sigma_curve(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.values.size == 1 << 20 and not curve.chord_met
    assert peak < 100e6, peak


def test_curve_at_the_sample_cap_peaks_below_twice_what_it_returns():
    # the last round grows the arrays in place and sweeps, bisects and evaluates
    # CHUNK arcs at a time: the whole complex chord array, the np.insert copies and
    # the 2 pi sentinel copy had the trace peak at 2.9 times its curve
    f = builtin("real_linear", s=1e3, t=0.0, u=0.0, v=-1e3)
    tracemalloc.start()
    try:
        curve = sigma_curve(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = curve.thetas.nbytes + curve.values.nbytes
    assert curve.values.size == 1 << 20 and not curve.chord_met
    assert peak < 2 * kept, (peak, kept)


def test_curve_requires_planar_and_classify_homogeneous():
    with pytest.raises(PreconditionError):
        sigma_curve(builtin("sqrt_abs"))
    with pytest.raises(PreconditionError):
        classify_plane(builtin("norm_plus_i_im_pow", n=2), resolution=8)


def test_curve_at_a_subnormal_radius_is_a_numeric_error():
    # numpy's complex division by a subnormal r forms 1/r = inf
    for f in (builtin("norm_plus_i_im_pow", n=2), builtin("norm_plus_i_im")):
        with pytest.raises(NumericError, match="at radius 5e-324 is not finite"):
            sigma_curve(f, radius=5e-324)


def test_scaling_equivariance_of_curves():
    # a large chord bound keeps both curves on the same uniform theta grid,
    # so the comparison is pointwise at matching angles
    f = builtin("half_abs_re_plus_i_im")
    base = sigma_curve(f, samples=512, chord_bound=100.0)
    for c in (-2.0, 0.5, 3.0):
        scaled = sigma_curve(affine_map(0.0, c, f), samples=512, chord_bound=100.0)
        assert np.array_equal(scaled.thetas, base.thetas)
        assert np.max(np.abs(scaled.values - c * base.values)) < 1e-12


def test_translation_equivariance_of_curves():
    f = builtin("abs_re_plus_i_im")
    c = 0.3 - 0.2j
    base = sigma_curve(f, samples=512, chord_bound=100.0)
    shifted = sigma_curve(affine_map(c, 1.0, f), samples=512, chord_bound=100.0)
    assert np.array_equal(shifted.thetas, base.thetas)
    assert np.max(np.abs(shifted.values - (c + base.values))) < 1e-12


def circle_rates(name, **params):
    """d and q of a planar builtin as spec2d takes them."""
    f = planar.builtin(name, **params)
    return planar.growth_rates(f, planar.trace_curve(planar.curve_at(f)))


def test_curve_inside_rate_annulus():
    for name in ("abs_re_plus_i_im", "half_abs_re_plus_i_im", "norm_plus_i_im", "norm_only"):
        f = builtin(name)
        d, q = circle_rates(name)
        c = sigma_curve(f, samples=1024)
        mods = np.abs(c.values)
        assert mods.min() >= d - 1e-9
        assert mods.max() <= q + 1e-9


# ---------------------------------------------------------------------------
# rates on the circle


def test_circle_extrema_values():
    assert circle_rates("abs_re_plus_i_im") == pytest.approx((1.0, 1.0), abs=1e-12)
    d, q = circle_rates("half_abs_re_plus_i_im")
    assert abs(d - 0.5) < 1e-9
    assert abs(q - 1.0) < 1e-9
    # the identity of the plane
    assert circle_rates("real_linear", s=1.0, t=0.0, u=0.0, v=1.0) == pytest.approx((1.0, 1.0), abs=1e-12)


@given(st.tuples(*[st.floats(-3.0, 3.0)] * 4))
def test_circle_extrema_are_the_singular_values_of_a_linear_map(m):
    # the extrema lie between the sampled angles: the closed form of the matrix has them
    sv = np.linalg.svd(np.array(m).reshape(2, 2), compute_uv=False)
    assert circle_rates("real_linear", s=m[0], t=m[1], u=m[2], v=m[3]) == pytest.approx((sv[1], sv[0]), abs=1e-9)


def test_radius_bound_values():
    # every lam with |lam| > q is regular: the circle's q for a planar builtin,
    # the local quasinorm q_p of the sphere maxima for any other map or point
    from test_estimators import rates

    assert abs(circle_rates("abs_re_plus_i_im")[1] - 1.0) < 1e-9
    assert abs(circle_rates("half_abs_re_plus_i_im")[1] - 1.0) < 1e-9
    f = builtin("conj_pair")
    assert abs(rates(f, np.zeros(4))[1] - 1.0) < 1e-9
    assert circle_rates("norm_plus_i_im")[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    off_base = rates(builtin("norm_plus_i_im"), np.array([1.0, 0.0]))[1]
    assert off_base == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# winding numbers


def _angle_sum_winding(f, lam, radius=1.0, samples=256):
    """Reference: the former winding_number, which summed the angular increments of gamma.

    gamma(theta) = lam z - f(z) on |z| = radius, sampled at n angles,
    doubled until every increment is below pi/2.
    """
    n = max(16, samples)
    while True:
        assert n <= 1 << 18
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        w = evaluate(f, radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))
        gamma = lam * radius * np.exp(1j * thetas) - (w[..., 0] + 1j * w[..., 1])
        steps = np.angle(np.roll(gamma, -1) * np.conj(gamma))
        if np.max(np.abs(steps)) < 0.5 * math.pi:
            return int(round(float(steps.sum()) / (2.0 * math.pi)))
        n *= 2


def node_turns(f, lam, samples=256, radius=1.0):
    """Degree 1 + wind(sigma_r, lam) at one node: `scanline_turns` on the curve at `samples` uniform angles."""
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    curve = SigmaCurve(thetas, homog2d._curve_values(f, thetas, radius), math.nan, True)
    return int(scanline_turns(curve, np.array([lam.real]), np.array([lam.imag]))[0, 0])


def test_winding_examples():
    zero_map = builtin("real_linear", s=0.0, t=0.0, u=0.0, v=0.0)
    assert node_turns(zero_map, 1 + 0j) == _angle_sum_winding(zero_map, 1 + 0j) == 1
    conj = builtin("real_linear", s=1.0, t=0.0, u=0.0, v=-1.0)
    # oracle: the curve is -e^{-i theta}, one clockwise turn
    assert node_turns(conj, 0j) == _angle_sum_winding(conj, 0j) == -1
    # oracle: the curve -(|cos| + i sin) stays in the closed left half plane
    f = builtin("abs_re_plus_i_im")
    assert node_turns(f, 0j) == _angle_sum_winding(f, 0j) == 0


def test_winding_stable_under_doubling():
    f = builtin("norm_plus_i_im")
    for lam in (0.2 + 0.1j, 1.5 - 0.4j, -1.2 + 0.3j):
        assert node_turns(f, lam, samples=256) == node_turns(f, lam, samples=512) == _angle_sum_winding(f, lam)


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_winding_off_the_unit_circle_matches_the_angle_sum(radius):
    # norm_plus_i_im_pow(2) is not homogeneous, so sigma_r differs from sigma_1
    f = builtin("norm_plus_i_im_pow", n=2)
    sigma = homog2d._curve_values(f, np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False), radius)
    rng = np.random.default_rng(5)
    lams = rng.uniform(-3.0, 3.0, size=200) + 1j * rng.uniform(-3.0, 3.0, size=200)
    lams = lams[np.min(np.abs(lams[:, None] - sigma[None]), axis=1) > 0.05]
    seen = []
    for lam in lams:
        turns = node_turns(f, lam, samples=4096, radius=radius)
        assert turns == _angle_sum_winding(f, lam, radius)
        seen.append(turns)
    assert {0, 1} <= set(seen)


# ---------------------------------------------------------------------------
# classification


def test_classify_abs_re_against_exact_disk():
    f = builtin("abs_re_plus_i_im")
    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=80, band_radius=0.08)
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    mod = np.hypot(gx, gy)
    off = ps.labels != CellLabel.BAND
    expect = np.where(mod < 1.0, int(CellLabel.IN_SPECTRUM), int(CellLabel.REGULAR))
    agree = (ps.labels[off] == expect[off]).mean()
    assert agree >= 0.99
    assert ps.component_consistent
    assert not ps.violations


def test_classify_band_covers_curve():
    f = builtin("abs_re_plus_i_im")
    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.1)
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    near = np.abs(np.hypot(gx, gy) - 1.0) <= 0.1
    assert np.all(ps.labels[near] == CellLabel.BAND)


def test_classify_radius_bound_invariant():
    f = builtin("half_abs_re_plus_i_im")
    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.1)
    diag = math.hypot(ps.xs[1] - ps.xs[0], ps.ys[1] - ps.ys[0])
    assert ps.summary()["max_abs_in_spectrum"] <= circle_rates("half_abs_re_plus_i_im")[1] + diag


def test_classify_real_linear_all_regular():
    f = builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0)
    ps = classify_plane(f, bounds=(-1.5, 6.5, -3.5, 4.5), resolution=60)
    off = ps.labels != CellLabel.BAND
    assert np.all(ps.labels[off] == CellLabel.REGULAR)


def test_classify_metadata_records_proxy():
    f = builtin("abs_re_plus_i_im")
    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=40)
    assert "zero_epi_proxy" in ps.metadata


def test_classify_relabels_inadmissible_points_as_band():
    # a grid point 5e-10 from the curve is off-band for a tiny band radius,
    # but the winding margin check rejects it; it must come back as Band
    f = builtin("abs_re_plus_i_im")
    eps = 5e-10
    ps = classify_plane(
        f, bounds=(1.0 + eps, 2.0, 0.0, 1.0), resolution=3, band_radius=1e-12
    )
    assert [v[2] for v in ps.violations] == ["margin"]
    i, j = ps.violations[0][0], ps.violations[0][1]
    assert ps.labels[j, i] == CellLabel.BAND


def conj_mix(alpha, beta, gamma):
    """z -> alpha z + beta conj(z) + gamma |z|: sigma = alpha + gamma e^{-it} + beta e^{-2it}.

    With |beta| > |gamma| the curve winds -2 times around the points near
    alpha, so the degree there is -1.
    """

    def ev(x, _a=alpha, _b=beta, _g=gamma):
        x = np.asarray(x, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        w = _a * z + _b * np.conj(z) + _g * np.abs(z)
        return np.stack([w.real, w.imag], axis=-1)

    return MapSpec(name="conj_mix", dim=2, evaluator=ev, homogeneous=True)


coef = st.floats(-3.0, 3.0, allow_nan=False)
planar_maps = st.one_of(
    st.tuples(coef, coef, coef, coef).map(lambda p: builtin("real_linear", s=p[0], t=p[1], u=p[2], v=p[3])),
    st.tuples(coef, coef, coef, coef, coef, coef).map(
        lambda p: conj_mix(complex(p[0], p[1]) / 3.0, complex(p[2], p[3]), complex(p[4], p[5]) / 2.0)
    ),
)


def assert_scanline_matches_evaluation(f, res=20, band=0.05, check=None):
    """Scanline degree equals the angle-sum reference on off-band cells."""
    curve = sigma_curve(f, samples=2048)
    z = curve.values
    bounds = (z.real.min() - 0.7, z.real.max() + 0.5, z.imag.min() - 0.5, z.imag.max() + 0.7)
    ps = classify_plane(f, bounds=bounds, resolution=res, band_radius=band, curve=curve)
    turns = scanline_turns(curve, ps.xs, ps.ys)
    rows, cols = np.nonzero(ps.labels != CellLabel.BAND)
    if check is not None and rows.size > check:
        pick = np.random.default_rng(0).choice(rows.size, check, replace=False)
        rows, cols = rows[pick], cols[pick]
    for j, i in zip(rows, cols):
        lam = complex(ps.xs[i], ps.ys[j])
        assert turns[j, i] == _angle_sum_winding(f, lam)
    expect = np.where(turns != 0, int(CellLabel.REGULAR), int(CellLabel.IN_SPECTRUM))
    off = ps.labels != CellLabel.BAND
    assert np.array_equal(ps.labels[off], expect[off])
    return turns[off]


@given(planar_maps)
def test_scanline_turns_match_evaluated_winding(f):
    assert_scanline_matches_evaluation(f)


def test_scanline_counts_double_clockwise_turns():
    # |beta| > |gamma|: an inner region of degree -1 inside a ring of degree 0
    f = conj_mix(0.0, 1.0, 0.5)
    seen = assert_scanline_matches_evaluation(f, res=80, check=400)
    assert set(np.unique(seen)) == {-1, 0, 1}
    curve = sigma_curve(f, samples=2048)
    assert scanline_turns(curve, np.array([0.0]), np.array([0.0]))[0, 0] == -1


def _scanline_turns_int64(curve, xs, ys):
    """Reference: scanline_turns with int64 copies of the crossing counts."""
    a = curve.values
    b = np.roll(a, -1)
    lo = np.minimum(a.imag, b.imag)
    hi = np.maximum(a.imag, b.imag)
    first = np.searchsorted(ys, lo, side="left")
    counts = np.searchsorted(ys, hi, side="left") - first
    edge = np.repeat(np.arange(a.size), counts)
    row = first[edge] + np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ea, eb = a[edge], b[edge]
    x_cross = ea.real + (ys[row] - ea.imag) * (eb.real - ea.real) / (eb.imag - ea.imag)
    sign = np.where(eb.imag > ea.imag, 1.0, -1.0)
    col = np.searchsorted(xs, x_cross, side="left")
    nx = xs.size
    binned = np.bincount(row * (nx + 1) + col, weights=sign, minlength=ys.size * (nx + 1))
    binned = binned.reshape(ys.size, nx + 1).astype(np.int64)
    right = np.cumsum(binned[:, ::-1], axis=1)[:, ::-1]
    return 1 + right[:, 1:]


@given(planar_maps, st.integers(2, 70), st.integers(2, 70))
def test_scanline_turns_match_int64_reference(f, nx, ny):
    curve = sigma_curve(f, samples=256)
    z = curve.values
    xs = np.linspace(z.real.min() - 0.3, z.real.max() + 0.2, nx)
    ys = np.linspace(z.imag.min() - 0.2, z.imag.max() + 0.3, ny)
    turns = scanline_turns(curve, xs, ys)
    assert turns.dtype == np.int32
    assert np.array_equal(turns, _scanline_turns_int64(curve, xs, ys))


def test_scanline_turns_memory_at_the_largest_grid():
    # the int64 accumulation peaked at about 385 MB here, a float64 bincount at 257 MB
    curve = sigma_curve(builtin("norm_plus_i_im"), samples=CURVE_SAMPLES)
    xs = ys = np.linspace(-2.0, 2.0, 4096)
    tracemalloc.start()
    try:
        turns = scanline_turns(curve, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6, peak
    assert np.array_equal(turns, _scanline_turns_int64(curve, xs, ys))


def test_classify_plane_memory_at_the_largest_grid():
    # the float64 distance grid and its masks were alive beside the winding
    # bins: 337 MB here before they were freed ahead of scanline_turns, and
    # 185 MB before the int8 band codes became the labels row block by row block
    tracemalloc.start()
    try:
        ps = classify_plane(builtin("norm_plus_i_im"), resolution=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
    assert ps.labels.shape == (4096, 4096) and ps.component_consistent


def _max_abs_by_meshgrid(ps):
    """Reference: the largest modulus of an in-spectrum cell over the full grid."""
    mask = ps.labels == CellLabel.IN_SPECTRUM
    if not mask.any():
        return 0.0
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    return float(np.max(np.hypot(gx[mask], gy[mask])))


@pytest.mark.parametrize("name", ["norm_plus_i_im", "half_abs_re_plus_i_im", "abs_re_plus_i_im", "norm_only"])
def test_summary_matches_full_grid_reference(name):
    f = builtin(name)
    for bounds, res in (((-2.0, 2.0, -2.0, 2.0), 97), ((-1.3, 2.1, -0.4, 1.7), 160), ((3.0, 4.0, 3.0, 4.0), 10)):
        ps = classify_plane(f, bounds=bounds, resolution=res)
        summary = ps.summary()
        assert summary["max_abs_in_spectrum"] == _max_abs_by_meshgrid(ps)
        assert summary["counts"] == {label.name.lower(): int(np.sum(ps.labels == label)) for label in CellLabel}
    # a label grid taller than one row block
    labels = RNG.integers(0, 3, size=(700, 600)).astype(np.int8)
    xs, ys = np.linspace(-3.0, 1.0, 600), np.linspace(-1.0, 2.5, 700)
    ps = PlaneSpectrum(curve=ps.curve, xs=xs, ys=ys, labels=labels, band_radius=0.1)
    assert ps.summary()["max_abs_in_spectrum"] == _max_abs_by_meshgrid(ps)
    assert ps.counts()["band"] == int(np.sum(labels == CellLabel.BAND))


def test_summary_memory_at_the_largest_grid():
    # the full meshgrid and hypot peaked at about 403 MB here
    f = builtin("norm_plus_i_im")
    ps = classify_plane(f, resolution=4096, curve=sigma_curve(f, samples=CURVE_SAMPLES))
    tracemalloc.start()
    try:
        summary = ps.summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert summary["max_abs_in_spectrum"] == _max_abs_by_meshgrid(ps)


def _components_consistent_by_label(labels, decided):
    """Reference: label the 4-connected components and compare labels within each."""
    from scipy import ndimage

    comp, n = ndimage.label(decided)
    return all(np.unique(labels[comp == c]).size == 1 for c in range(1, n + 1))


def test_component_check_matches_per_component_loop():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        shape = tuple(rng.integers(1, 21, size=2))
        labels = rng.integers(0, int(rng.integers(1, 4)), size=shape).astype(np.int8)
        if rng.random() < 0.3:
            labels[:] = labels[0, 0]
        decided = rng.random(shape) < rng.random()
        expect = _components_consistent_by_label(labels, decided)
        assert _components_consistent(labels, decided) == expect


# the band query as it was before it coded the distances, kept as a frozen reference
_BAND_CHUNK = 1 << 20  # window entries per chunk of the band query


def _band_distances(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    bound: float) -> np.ndarray:
    """(ny, nx) distances from the nodes of an ascending grid to the nearest sample.

    Distances of `bound` or more read inf.  Each sample is bucketed to its
    nearest node, and the squared distance dx^2 + dy^2 to every node of the
    window that can lie within `bound` of it (ceil(bound / spacing) nodes a
    side, plus one for rounding) is min-reduced into the grid before one
    square root: the arithmetic of a k-d tree query with an upper bound,
    bit for bit.  Samples go in chunks of at most _BAND_CHUNK window
    entries, so memory does not grow with the window.
    """
    nx, ny = xs.size, ys.size
    dx, dy = (xs[-1] - xs[0]) / (nx - 1), (ys[-1] - ys[0]) / (ny - 1)
    kx, ky = math.ceil(bound / dx) + 1, math.ceil(bound / dy) + 1
    fx, fy = (values.real - xs[0]) / dx, (values.imag - ys[0]) / dy
    # only samples whose window meets the grid; this also keeps the casts
    # below in range when a narrow box puts a far sample at index 1e300
    near = (fx > -kx - 1) & (fx < nx + kx) & (fy > -ky - 1) & (fy < ny + ky)
    sx, sy = values.real[near], values.imag[near]
    ix, iy = np.rint(fx[near]).astype(np.int64), np.rint(fy[near]).astype(np.int64)
    offx, offy = np.arange(-kx, kx + 1), np.arange(-ky, ky + 1)
    d2 = np.full(ny * nx, np.inf)
    step = max(1, _BAND_CHUNK // (offx.size * offy.size))
    for lo in range(0, sx.size, step):
        cx = ix[lo:lo + step, None] + offx
        cy = iy[lo:lo + step, None] + offy
        okx, oky = (cx >= 0) & (cx < nx), (cy >= 0) & (cy < ny)
        ddx = (xs[np.clip(cx, 0, nx - 1)] - sx[lo:lo + step, None]) ** 2
        ddy = (ys[np.clip(cy, 0, ny - 1)] - sy[lo:lo + step, None]) ** 2
        ok = oky[:, :, None] & okx[:, None, :]
        node = (cy * nx)[:, :, None] + cx[:, None, :]
        np.minimum.at(d2, node[ok], (ddx[:, None, :] + ddy[:, :, None])[ok])
    far = d2 >= bound * bound
    np.sqrt(d2, out=d2)
    d2[far] = np.inf
    return d2.reshape(ny, nx)


def _codes_of(dist, band, margin, chord):
    """Reference band codes: the comparisons classify_plane made on a distance grid."""
    off = dist > band
    near = off & (dist < margin)
    codes = np.full(dist.shape, homog2d._DECIDED, dtype=np.int8)
    codes[~off] = homog2d._BAND
    codes[near] = homog2d._MARGIN
    codes[off & ~near & (dist <= chord)] = homog2d._CHORD
    return codes


def _assert_codes_match(values, xs, ys, bound, dist, thresholds):
    """The band codes are the codes of the exact distances `dist`, at the
    (band, margin, chord) `thresholds` of the call and at thresholds placed
    on sampled distances, where <= and < meet their ties.
    """
    finite = np.unique(dist[np.isfinite(dist)])
    cases = [thresholds]
    if finite.size:
        on = [float(v) for v in finite[np.linspace(0, finite.size - 1, 3).astype(int)]]
        cases += [tuple(on[k:] + on[:k]) for k in range(3)] + [(on[1],) * 3]
    for band, margin, chord in cases:
        got = _band_codes(values, xs, ys, bound, band, margin, chord)
        assert got.dtype == np.int8
        assert np.array_equal(got, _codes_of(dist, band, margin, chord)), (band, margin, chord)


def _kdtree_distances(values, xs, ys, bound):
    """Reference band query: a k-d tree over the samples, queried at every node."""
    from scipy.spatial import cKDTree

    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    samples = np.stack([values.real, values.imag], axis=-1)
    dist, _ = cKDTree(samples).query(pts, distance_upper_bound=bound)
    return dist.reshape(ys.size, xs.size)


@given(
    planar_maps,
    st.booleans(),
    st.tuples(st.integers(0, 255), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0)),
    st.tuples(st.integers(2, 48), st.integers(2, 48)),
    st.floats(0.0, 3.0),
    st.integers(0, 3),
)
# a 16-sample circle of radius 2.9: its longest chord, 2.2, sets the reach
@example(builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0), True, (0, 0.5, 0.5), (0.6, 0.3), (2, 3), 3.0, 0)
def test_band_query_matches_kdtree(f, coarse, at, log_width, res, log_band, miss):
    """Bit-identical distances on non-square boxes, boxes off the curve, reaches
    from MARGIN_TOL to the cap, and coarse curves whose chord sets the reach.

    The box holds a curve sample, or lies 1e3 to the right of one when
    miss == 3; the band is 10^-log_band of the cap, or MARGIN_TOL when
    log_band > 2.
    """
    curve = sigma_curve(f, samples=16, max_samples=16) if coarse else sigma_curve(f, samples=256)
    z = curve.values
    wx, wy = 10.0 ** log_width[0], 10.0 ** log_width[1]
    x0 = z[at[0] % z.size].real - at[1] * wx + (1e3 if miss == 3 else 0.0)
    y0 = z[at[0] % z.size].imag - at[2] * wy
    xs = np.linspace(x0, x0 + wx, res[0])
    ys = np.linspace(y0, y0 + wy, res[1])
    cap = MAX_BAND_CELLS * min(xs[1] - xs[0], ys[1] - ys[0])
    band = MARGIN_TOL if log_band > 2.0 else cap * 10.0 ** -log_band
    chord = 0.0 if curve.chord_met else _max_chord(curve.values)
    reach = min(max(band, MARGIN_TOL, chord), cap)
    bound = reach * (1.0 + 1e-9)
    got = _band_distances(z, xs, ys, bound)
    assert np.array_equal(got, _kdtree_distances(z, xs, ys, bound))
    _assert_codes_match(z, xs, ys, bound, got, (band, MARGIN_TOL, chord))


@pytest.mark.filterwarnings("error")
def test_band_query_on_a_box_1e300_narrow():
    # the curve passes through 0, where the box sits; the nearest-node index
    # of a sample 1 away is about 1e300, far outside int64, and must never
    # reach the integer cast
    f = conj_mix(-1.5, 1.0, 0.5)
    curve = sigma_curve(f, samples=256)
    assert curve.values[0] == 0.0
    for width in (1e-300, 1e-200, 1e-150, 1e-12):
        xs = np.linspace(0.0, width, 5)
        ys = np.linspace(-width, 0.0, 7)
        bound = MAX_BAND_CELLS * (xs[1] - xs[0])
        got = _band_distances(curve.values, xs, ys, bound)
        assert np.array_equal(got, _kdtree_distances(curve.values, xs, ys, bound))
        _assert_codes_match(curve.values, xs, ys, bound, got, (0.5 * bound, MARGIN_TOL, 0.0))
        # below 1e-154 the squared bound underflows to 0, for the tree as well
        assert np.isfinite(got).all() == (width > 1e-154)


def test_band_query_far_from_the_origin():
    # a curve of radius 1e-8 around 1e5: 2e-9 grid spacings are about 140
    # ulps there, so nodes and buckets carry visible rounding
    f = conj_mix(1e5, 0.0, 1e-8)
    curve = sigma_curve(f, samples=256)
    for res, band in ((20, None), (21, 3e-8), (33, MARGIN_TOL)):
        ps = classify_plane(f, bounds=(1e5 - 2e-8, 1e5 + 2e-8, -2e-8, 2e-8), resolution=res,
                            band_radius=band, curve=curve)
        reach = max(ps.band_radius, MARGIN_TOL) * (1.0 + 1e-9)
        expect = _kdtree_distances(curve.values, ps.xs, ps.ys, reach)
        assert np.array_equal(_band_distances(curve.values, ps.xs, ps.ys, reach), expect)
        _assert_codes_match(curve.values, ps.xs, ps.ys, reach, expect, (ps.band_radius, MARGIN_TOL, 0.0))
        assert np.array_equal(ps.labels == CellLabel.BAND, ~(expect > ps.band_radius))
    with pytest.raises(PreconditionError, match="64 ulps"):
        classify_plane(f, bounds=(1e5, 1e5 + 1e-10, 0.0, 1.0), resolution=20, curve=curve)


def test_classify_rejects_a_reach_beyond_the_cap():
    f = builtin("norm_plus_i_im")
    curve = sigma_curve(f, samples=256, chord_bound=1.0)
    spacing = 4.0 / 199
    ps = classify_plane(f, resolution=200, band_radius=MAX_BAND_CELLS * spacing * 0.999, curve=curve)
    assert ps.counts()["band"] > 0
    with pytest.raises(PreconditionError, match=r"reach 1\.2877.* exceeds 64 grid spacings"):
        classify_plane(f, resolution=200, band_radius=MAX_BAND_CELLS * spacing * 1.001, curve=curve)
    for bad in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            classify_plane(f, resolution=200, band_radius=bad, curve=curve)
    # a coarse curve's longest chord counts towards the reach too
    coarse = sigma_curve(f, samples=16, max_samples=16)
    assert _max_chord(coarse.values) > MAX_BAND_CELLS * 4.0 / 4095
    v = coarse.values.tolist()
    assert _max_chord(coarse.values) == max(abs(b - a) for a, b in zip(v, v[1:] + v[:1]))
    with pytest.raises(PreconditionError):
        classify_plane(f, resolution=4096, band_radius=0.0, curve=coarse)


def test_classify_memory_at_the_largest_grid():
    # a k-d tree query peaked at about 1.25 GB here, the float64 distance grid at 185 MB
    f = builtin("norm_plus_i_im")
    curve = sigma_curve(f, samples=CURVE_SAMPLES)
    tracemalloc.start()
    try:
        ps = classify_plane(f, resolution=4096, curve=curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.labels.shape == (4096, 4096)
    assert peak < 64e6, peak


def test_classify_coarse_curve_marks_chord_band():
    # a 64-sample cardioid misses its chord bound; cells within its largest
    # chord cannot be decided from the polygon and are Band for reason "chord"
    f = builtin("norm_plus_i_im")
    coarse = sigma_curve(f, samples=64, max_samples=64)
    assert not coarse.chord_met
    ps = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.01, curve=coarse)
    assert ps.violations
    assert {v[2] for v in ps.violations} == {"chord"}
    gx, gy = np.meshgrid(ps.xs, ps.ys)
    dist = np.min(np.abs((gx + 1j * gy)[..., None] - coarse.values), axis=-1)
    chord = (dist > 0.01) & (dist <= _max_chord(coarse.values))
    assert sorted((j, i) for i, j, _ in ps.violations) == sorted(zip(*np.nonzero(chord)))
    assert np.all(ps.labels[chord] == CellLabel.BAND)
    fine = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.01)
    assert not fine.violations


@pytest.mark.parametrize("bounds, res", [
    ((-2.0, 2.0, -2.0, 2.0), 200),  # the README line
    ((-2.0, 2.0, -2.0, 2.0), 220),  # the figure script
    ((-1.5, 2.0, -1.5, 1.5), 220),
    ((-2.0, 2.0, -2.0, 2.0), 800),  # the workloads
    ((-1.5, 2.0, -1.5, 1.5), 400),
    ((-2.0, 2.0, -2.0, 2.0), 64),
    ((-2.0, 2.0, -2.0, 2.0), 100),
    ((-2.0, 2.0, -2.0, 2.0), 4096),
])
def test_classify_chord_bound_is_1e_3_on_the_documented_boxes(bounds, res):
    # spacing / 64 stays below 1e-3 here, so these curves keep their samples
    # (bounds and res fix the spacing alone, so the map is the cheapest one)
    ps = classify_plane(builtin("norm_only"), bounds=bounds, resolution=res)
    assert ps.curve.chord_bound == 1e-3


def test_classify_chord_bound_follows_a_coarse_grid():
    # on a +-2e4 box at res 200 the bound 1e-3 was missed at 2^20 samples;
    # spacing / 64 is met with far fewer, and every cell keeps its label
    f = builtin("real_linear", s=1e4, t=0.0, u=0.0, v=-1e4)
    ps = classify_plane(f, bounds=(-2e4, 2e4, -2e4, 2e4), resolution=200)
    assert ps.curve.chord_bound == float(ps.xs[1] - ps.xs[0]) / 64.0 == pytest.approx(4e4 / 199 / 64.0)
    assert ps.curve.chord_met and ps.curve.values.size <= 1 << 16
    assert not ps.violations and ps.counts()["band"] > 0
    assert np.array_equal(ps.labels, classify_plane(f, bounds=(-2e4, 2e4, -2e4, 2e4), resolution=200,
                                                    curve=sigma_curve(f, samples=CURVE_SAMPLES,
                                                                      chord_bound=0.5)).labels)


def _break_below_row(ys, j):
    """A clockwise rectangle far right and above a grid on [-1, 1]^2, whose
    bottom edge runs between rows j - 1 and j.

    Every cell is decided: cells above the edge wind once clockwise around
    it (degree 0, in spectrum) and cells below not at all (degree 1,
    regular), so the only component break lies between rows j - 1 and j.
    """
    ym = 0.5 * (ys[j - 1] + ys[j])
    values = np.array([complex(-10.0, ym), -10.0 + 100.0j, 10.0 + 100.0j, complex(10.0, ym)])
    return SigmaCurve(np.arange(4.0), values, 1e-3, True)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_classify_row_blocks_match_one_block(rows):
    f = builtin("norm_plus_i_im")
    coarse = sigma_curve(f, samples=64, max_samples=64)
    ys = np.linspace(-1.0, 1.0, 12)
    cases = [
        dict(bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.01, curve=coarse),
        dict(bounds=(-2, 2, -2, 2), resolution=61),
        # a break on a block boundary for 1, 2 and 3 rows a block, and one inside a block
        dict(bounds=(-1, 1, -1, 1), resolution=12, curve=_break_below_row(ys, 6)),
        dict(bounds=(-1, 1, -1, 1), resolution=12, curve=_break_below_row(ys, 7)),
    ]
    for kw in cases:
        with mock.patch.object(homog2d, "CHUNK", 1 << 30):
            whole = classify_plane(f, **kw)
        with mock.patch.object(homog2d, "CHUNK", rows * kw["resolution"]):
            blocked = classify_plane(f, **kw)
        assert np.array_equal(blocked.labels, whole.labels)
        assert blocked.violations == whole.violations
        assert blocked.component_consistent == whole.component_consistent
    coarse_run, fine_run, at_6, at_7 = (classify_plane(f, **kw) for kw in cases)
    assert {v[2] for v in coarse_run.violations} == {"chord"}
    assert fine_run.component_consistent and not fine_run.violations
    for run, j in ((at_6, 6), (at_7, 7)):
        assert not run.component_consistent
        assert np.all(run.labels[:j] == CellLabel.REGULAR)
        assert np.all(run.labels[j:] == CellLabel.IN_SPECTRUM)


# ---------------------------------------------------------------------------
# bifurcation curve


def test_bifurcation_set_examples():
    # the bifurcation set of a homogeneous planar map is its eigenvalue curve
    ident = sigma_curve(builtin("real_linear"))
    assert ident.is_point(1e-12) and abs(ident.values[0] - 1.0) < 1e-12
    circle = sigma_curve(builtin("abs_re_plus_i_im"))
    assert np.max(np.abs(np.abs(circle.values) - 1.0)) < 1e-12
    base = sigma_curve(builtin("norm_only"))
    assert np.max(np.abs(np.abs(base.values) - 1.0)) < 1e-12
