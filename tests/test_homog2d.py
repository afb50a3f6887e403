import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from specpoint.core import AdmissibilityError, PreconditionError
from specpoint.homog2d import (
    CURVE_SAMPLES,
    MARGIN_TOL,
    MAX_BAND_CELLS,
    CellLabel,
    _band_distances,
    _components_consistent,
    bifurcation_set_homog,
    classify_plane,
    d_and_quasinorm,
    rouche_coincidence,
    scanline_turns,
    sigma_curve,
    spectral_radius_bound,
    winding_number,
)
from specpoint.maps import (
    add_identity,
    black_box,
    builtin,
    evaluate,
    identity_map,
    lambda_minus,
    scale_map,
)

RNG = np.random.default_rng(2024)


def const_map(a, b, name="const"):
    v = np.array([a, b], dtype=float)

    def ev(x, _v=v):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(_v, x.shape).copy()

    return black_box(2, ev, name=name)


def circle_params(s, t, u, v):
    center = np.array([(s + v) / 2.0, (u - t) / 2.0])
    r_sq = (s + v) ** 2 / 4.0 + (u - t) ** 2 / 4.0 - s * v + t * u
    return center, math.sqrt(max(r_sq, 0.0))


# ---------------------------------------------------------------------------
# curves


def test_identity_curve_is_constant_one():
    c = sigma_curve(identity_map(2), samples=256)
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


def test_curve_requires_homogeneous():
    with pytest.raises(PreconditionError):
        sigma_curve(builtin("norm_plus_i_im_pow", n=2))
    with pytest.raises(PreconditionError):
        sigma_curve(builtin("sqrt_abs"))


def test_scaling_equivariance_of_curves():
    # a large chord bound keeps both curves on the same uniform theta grid,
    # so the comparison is pointwise at matching angles
    f = builtin("half_abs_re_plus_i_im")
    base = sigma_curve(f, samples=512, chord_bound=100.0)
    for c in (-2.0, 0.5, 3.0):
        scaled = sigma_curve(scale_map(c, f), samples=512, chord_bound=100.0)
        assert np.array_equal(scaled.thetas, base.thetas)
        assert np.max(np.abs(scaled.values - c * base.values)) < 1e-12


def test_translation_equivariance_of_curves():
    f = builtin("abs_re_plus_i_im")
    c = 0.3 - 0.2j
    base = sigma_curve(f, samples=512, chord_bound=100.0)
    shifted = sigma_curve(add_identity(c, f), samples=512, chord_bound=100.0)
    assert np.array_equal(shifted.thetas, base.thetas)
    assert np.max(np.abs(shifted.values - (c + base.values))) < 1e-12


def test_curve_inside_rate_annulus():
    for name in ("abs_re_plus_i_im", "half_abs_re_plus_i_im", "norm_plus_i_im", "norm_only"):
        f = builtin(name)
        d, q = d_and_quasinorm(f)
        c = sigma_curve(f, samples=1024)
        mods = np.abs(c.values)
        assert mods.min() >= d - 1e-9
        assert mods.max() <= q + 1e-9


# ---------------------------------------------------------------------------
# rates on the circle


def test_d_and_quasinorm_values():
    assert d_and_quasinorm(builtin("abs_re_plus_i_im")) == pytest.approx((1.0, 1.0), abs=1e-12)
    d, q = d_and_quasinorm(builtin("half_abs_re_plus_i_im"))
    assert abs(d - 0.5) < 1e-9
    assert abs(q - 1.0) < 1e-9
    assert d_and_quasinorm(identity_map(2)) == pytest.approx((1.0, 1.0), abs=1e-12)


@given(st.tuples(*[st.floats(-3.0, 3.0)] * 4))
def test_d_and_quasinorm_polish_finds_singular_values_from_a_coarse_curve(m):
    # 16 samples leave the extrema between samples; the polish must find them
    f = builtin("real_linear", s=m[0], t=m[1], u=m[2], v=m[3])
    coarse = sigma_curve(f, samples=16, chord_bound=math.inf)
    assert coarse.thetas.size == 16
    sv = np.linalg.svd(np.array(m).reshape(2, 2), compute_uv=False)
    assert d_and_quasinorm(f, coarse) == pytest.approx((sv[1], sv[0]), abs=1e-9)


def test_spectral_radius_bound_values():
    assert abs(spectral_radius_bound(builtin("abs_re_plus_i_im")) - 1.0) < 1e-9
    assert abs(spectral_radius_bound(builtin("half_abs_re_plus_i_im")) - 1.0) < 1e-9
    assert abs(spectral_radius_bound(builtin("conj_pair")) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_examples():
    zero_map = builtin("real_linear", s=0.0, t=0.0, u=0.0, v=0.0)
    assert winding_number(zero_map, 1 + 0j).turns == 1
    conj = builtin("real_linear", s=1.0, t=0.0, u=0.0, v=-1.0)
    # oracle: the curve is -e^{-i theta}, one clockwise turn
    assert winding_number(conj, 0j).turns == -1
    # oracle: the curve -(|cos| + i sin) stays in the closed left half plane
    assert winding_number(builtin("abs_re_plus_i_im"), 0j).turns == 0


def test_winding_stable_under_doubling():
    f = builtin("norm_plus_i_im")
    for lam in (0.2 + 0.1j, 1.5 - 0.4j, -1.2 + 0.3j):
        w1 = winding_number(f, lam, samples=256)
        w2 = winding_number(f, lam, samples=512)
        assert w1.turns == w2.turns


def test_winding_margin_is_distance_to_curve():
    f = builtin("abs_re_plus_i_im")
    w = winding_number(f, 0.5 + 0j)
    assert abs(w.margin - 0.5) < 1e-9


def test_winding_admissibility_error_on_curve():
    with pytest.raises(AdmissibilityError):
        winding_number(builtin("abs_re_plus_i_im"), 1 + 0j)


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
    assert ps.summary()["max_abs_in_spectrum"] <= spectral_radius_bound(f) + diag


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

    return black_box(2, ev, name="conj_mix", homogeneous=True)


coef = st.floats(-3.0, 3.0, allow_nan=False)
planar_maps = st.one_of(
    st.tuples(coef, coef, coef, coef).map(lambda p: builtin("real_linear", s=p[0], t=p[1], u=p[2], v=p[3])),
    st.tuples(coef, coef, coef, coef, coef, coef).map(
        lambda p: conj_mix(complex(p[0], p[1]) / 3.0, complex(p[2], p[3]), complex(p[4], p[5]) / 2.0)
    ),
)


def assert_scanline_matches_evaluation(f, res=20, band=0.05, check=None):
    """Scanline degree equals the evaluated winding_number on off-band cells."""
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
        assert turns[j, i] == winding_number(f, complex(ps.xs[i], ps.ys[j])).turns
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
    chord = 0.0 if curve.chord_met else curve.max_gap()
    reach = min(max(band, MARGIN_TOL, chord), cap)
    bound = reach * (1.0 + 1e-9)
    got = _band_distances(z, xs, ys, bound)
    assert np.array_equal(got, _kdtree_distances(z, xs, ys, bound))


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
    assert coarse.max_gap() > MAX_BAND_CELLS * 4.0 / 4095
    with pytest.raises(PreconditionError):
        classify_plane(f, resolution=4096, band_radius=0.0, curve=coarse)


def test_classify_memory_at_the_largest_grid():
    # the parent's k-d tree query peaked at about 1.25 GB here
    f = builtin("norm_plus_i_im")
    curve = sigma_curve(f, samples=CURVE_SAMPLES)
    tracemalloc.start()
    try:
        ps = classify_plane(f, resolution=4096, curve=curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.labels.shape == (4096, 4096)
    assert peak < 700e6, peak


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
    chord = (dist > 0.01) & (dist <= coarse.max_gap())
    assert sorted((j, i) for i, j, _ in ps.violations) == sorted(zip(*np.nonzero(chord)))
    assert np.all(ps.labels[chord] == CellLabel.BAND)
    fine = classify_plane(f, bounds=(-2, 2, -2, 2), resolution=60, band_radius=0.01)
    assert not fine.violations


# ---------------------------------------------------------------------------
# bifurcation curve


def test_bifurcation_set_examples():
    ident = bifurcation_set_homog(identity_map(2))
    assert ident.is_point(1e-12) and abs(ident.values[0] - 1.0) < 1e-12
    assert ident.label == "bifurcation"
    circle = bifurcation_set_homog(builtin("abs_re_plus_i_im"))
    assert np.max(np.abs(np.abs(circle.values) - 1.0)) < 1e-12
    base = bifurcation_set_homog(builtin("norm_only"))
    assert np.max(np.abs(np.abs(base.values) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# coincidence solving


def test_rouche_fixed_point_examples():
    sol = rouche_coincidence(identity_map(2), const_map(0.3, 0.2), radius=1.0)
    assert np.allclose(sol.point, [0.3, 0.2], atol=1e-9)
    sol2 = rouche_coincidence(
        builtin("real_linear", s=2.0, t=0.0, u=0.0, v=2.0), const_map(0.3, 0.2), radius=1.0
    )
    assert np.allclose(sol2.point, [0.15, 0.1], atol=1e-9)


def test_rouche_shifted_abs_re():
    # oracle: dense grid search over the disk for the residual minimum
    f = lambda_minus(2 + 0j, builtin("abs_re_plus_i_im"))
    k = const_map(0.1, 0.0)
    sol = rouche_coincidence(f, k, radius=1.0)
    assert sol.residual < 1e-9
    xs = np.linspace(-0.9, 0.9, 101)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    grid = grid[np.hypot(grid[:, 0], grid[:, 1]) < 1.0]
    resid = np.linalg.norm(evaluate(f, grid) - evaluate(k, grid), axis=1)
    best = grid[int(np.argmin(resid))]
    assert np.linalg.norm(sol.point - best) < 0.05
    assert np.allclose(sol.point, [0.1, 0.0], atol=1e-9)


def test_rouche_precondition_failures():
    with pytest.raises(PreconditionError):
        rouche_coincidence(identity_map(2), const_map(5.0, 0.0), radius=1.0)
    zero_map = builtin("real_linear", s=0.0, t=0.0, u=0.0, v=0.0)
    with pytest.raises(PreconditionError):
        rouche_coincidence(zero_map, const_map(0.1, 0.0), radius=1.0)
