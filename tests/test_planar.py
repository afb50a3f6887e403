import bisect
import math
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from specpoint import homog2d, numerics, planar
from specpoint.core import NumericError, scan_verdicts
from specpoint.maps import builtin, evaluate

LINEAR_PARAMS = [
    {"s": 1.0, "t": -2.0, "u": 2.0, "v": 1.0},  # a point curve
    {"s": 0.5, "t": -1.0, "u": 0.8, "v": 1.2},
    {"s": 2.0, "t": 0.5, "u": -0.3, "v": -1.0},
    {"s": -1.914696625081952, "t": 0.885258650605139, "u": 1.1909024086948659, "v": 0.39893172547572053},
]
# every planar homogeneous builtin, real_linear with several matrices
HOMOGENEOUS = [(name, {}) for name in planar.BUILTINS if name != "real_linear" and planar.builtin(name).homogeneous]
HOMOGENEOUS += [("real_linear", p) for p in LINEAR_PARAMS]
IDS = [name if not p else f"real_linear{i}" for i, (name, p) in enumerate(HOMOGENEOUS)]


@pytest.mark.parametrize("name", sorted(planar.BUILTINS))
def test_planar_builtins_have_the_bits_of_maps(name):
    # one formula per builtin: on floats with C's hypot and on arrays with np.hypot
    params = LINEAR_PARAMS[1] if name == "real_linear" else {}
    bare, f = planar.builtin(name, **params), builtin(name, **params)
    assert (bare.name, bare.homogeneous, bare.complex_pairs) == (f.name, f.homogeneous, f.complex_pairs)
    pts = np.random.default_rng(3).normal(size=(4000, 2)) * np.array([[1.0], [1e-3], [1e3], [1e-200]]).repeat(1000, 0)
    on_floats = np.array([bare.evaluator(x, y, planar._hypot) for x, y in pts.tolist()], dtype=float)
    if bare.homogeneous:
        assert np.array_equal(on_floats, f.evaluator(pts))
    else:  # y ** n is C's pow on a float and a square on arrays; spec2d never evaluates it
        assert np.allclose(on_floats, f.evaluator(pts), rtol=4e-16, atol=0.0)
    if name == "real_linear":
        assert np.array_equal(f.jacobian(np.zeros(2)), np.array(bare.sphere_matrix(1.0)))
        assert np.array_equal(f.sphere_matrix(0.1), np.array(bare.sphere_matrix(1.0)))


# (samples, max_samples): free traces, and the capped ones of test_tracer_matches_the_former_array_loop
TRACES = [(16, 1 << 20), (4096, 1 << 20), (1 << 16, 1 << 20), (16, 16), (16, 40), (16, 100), (16, 11000)]


@pytest.mark.parametrize("samples, max_samples", TRACES,
                         ids=["16", "4096", "65536", "cap16", "cap40", "cap100", "cap11000"])
@pytest.mark.parametrize("name, params", HOMOGENEOUS, ids=IDS)
def test_tracer_matches_curve_values(name, params, samples, max_samples):
    # the list tracer takes the angles, the chord flag and the size of the
    # array one, and its values are sigma within 4 ulps of |sigma|: the
    # complex product rounds apart
    bare = planar.trace_curve(planar.curve_at(planar.builtin(name, **params)), samples, max_samples=max_samples)
    f = builtin(name, **params)
    ref = homog2d.sigma_curve(f, samples=samples, max_samples=max_samples)
    assert len(bare.thetas) == len(bare.values) == ref.thetas.size
    assert bare.thetas.tolist() == ref.thetas.tolist()
    assert bare.chord_met == ref.chord_met and bare.is_point() == ref.is_point()
    expect = homog2d._curve_values(f, np.array(bare.thetas))
    got = np.array(bare.values)
    ulps = np.array([math.ulp(m) for m in np.abs(expect).tolist()])
    assert np.all(np.abs(got - expect) <= 4.0 * ulps)


def test_a_chord_equal_to_the_bound_meets_it():
    # a chord is over the bound only when it exceeds it: both tracers keep the
    # 16 start samples when the bound is their longest chord, and bisect it
    # when the bound is one ulp shorter
    bare = planar.builtin("norm_plus_i_im")
    f = builtin("norm_plus_i_im")
    for trace in (lambda **kw: planar.trace_curve(planar.curve_at(bare), **kw),
                  lambda **kw: homog2d.sigma_curve(f, **kw)):
        v = list(map(complex, trace(samples=16, max_samples=16).values))
        longest = max(abs(b - a) for a, b in zip(v, v[1:] + v[:1]))
        met = trace(samples=16, chord_bound=longest)
        assert met.chord_met and len(met.thetas) == 16
        assert len(trace(samples=16, chord_bound=math.nextafter(longest, 0.0)).thetas) > 16


def test_tracer_started_full_holds_only_its_curve():
    # with no room from the start the tracer only asks whether a chord is over
    # the bound: no index list and no shifted copy of the values
    f = planar.builtin("real_linear", s=1e3, t=0.0, u=0.0, v=-1e3)
    tracemalloc.start()
    try:
        curve = planar.trace_curve(planar.curve_at(f), samples=1 << 16, max_samples=1 << 16)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.thetas) == 1 << 16 and not curve.chord_met
    assert peak <= 1.1 * kept, (peak, kept)


@pytest.mark.parametrize("name, params, bound", [
    ("real_linear", {"s": 1e3, "t": 0.0, "u": 0.0, "v": -1e3}, 1e-3),  # every arc bisected each round
    ("norm_plus_i_im", {}, 1e-7),  # some arcs bisected each round
])
def test_tracer_grows_its_arrays_in_place(name, params, bound):
    # a trace that grows to its cap holds its angles in an array, 8 bytes an angle, and
    # its values in a list, 40 bytes a complex value, and inserts each round's midpoints
    # back from the last block of arcs: the two lists it replaced kept 72 bytes a sample
    # and peaked at 1.6 times that, with new copies of both lists each round
    f = planar.builtin(name, **params)
    tracemalloc.start()
    try:
        curve = planar.trace_curve(planar.curve_at(f), samples=2048, chord_bound=bound, max_samples=1 << 18)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.thetas) == 1 << 18 and not curve.chord_met
    assert kept <= 50 * (1 << 18) and peak <= 1.25 * kept, (kept, peak)
    # and it takes the angles, values and chord flag of the array tracer, within the ulps of the values
    ref = homog2d.sigma_curve(builtin(name, **params), samples=2048, chord_bound=bound, max_samples=1 << 18)
    assert curve.thetas.tolist() == ref.thetas.tolist() and curve.chord_met == ref.chord_met
    assert np.max(np.abs(np.array(curve.values) - ref.values)) <= 1e-12 * np.abs(ref.values).max()


def test_growth_rates_hold_no_list_of_the_curve():
    # the least and the largest |sigma| sample are found CHUNK samples at a time: on a
    # 2^20-sample curve, a list of its moduli alone would take 32 MiB
    f = planar.builtin("norm_plus_i_im")
    curve = planar.trace_curve(planar.curve_at(f), samples=1 << 20)
    tracemalloc.start()
    try:
        rates = planar.growth_rates(f, curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert rates == planar.growth_rates(f, planar.trace_curve(planar.curve_at(f), samples=4096))


def _dense_moduli(f):
    """|f| at 2^16 angles of the unit circle, of a map evaluated on numpy arrays."""
    dense = np.arange(1 << 16) * (2.0 * math.pi / (1 << 16))
    return np.linalg.norm(evaluate(f, numerics.unit_points(dense)), axis=-1)


@pytest.mark.parametrize("name, params", HOMOGENEOUS, ids=IDS)
def test_growth_rates_match_sphere_extrema(name, params):
    # the rates against the singular values of real_linear's matrix, the minimum
    # by the sphere kernel at lam = 0, and against the extremes of 2^16 angles
    bare, f = planar.builtin(name, **params), builtin(name, **params)
    listed = planar.trace_curve(planar.curve_at(bare))
    got = planar.growth_rates(bare, listed)
    if f.sphere_matrix is not None:
        sv = np.linalg.svd(f.sphere_matrix(1.0), compute_uv=False)
        expect = (bare.sphere_min(0j, 1.0), sv[0])
        assert abs(expect[0] - sv[-1]) <= 1e-15 * sv[0]
        for extremum, e in zip(got, expect):
            assert abs(extremum - e) <= 1e-15 * abs(e), (extremum, e)
    moduli = _dense_moduli(f)
    # no worse than the dense samples, and better than them by their spacing at most
    assert moduli.min() - 1e-8 <= got[0] <= moduli.min() + 1e-14
    assert moduli.max() - 1e-14 <= got[1] <= moduli.max() + 1e-8
    # spec2d's list trace and classify's array trace give the same bits
    assert got == planar.growth_rates(bare, homog2d.sigma_curve(f, samples=2048))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e150, 5e153])
def test_growth_rates_of_tiny_and_huge_matrices_keep_their_relative_accuracy(scale):
    # the closed form is scaled by the largest |entry|: no square underflows or overflows
    for p in LINEAR_PARAMS:
        m = np.array(list(p.values())).reshape(2, 2) * scale
        f = planar.builtin("real_linear", **dict(zip("stuv", m.ravel().tolist())))
        sv = np.linalg.svd(m / scale, compute_uv=False) * scale
        d, q = planar.growth_rates(f)
        assert abs(d - sv[-1]) <= 1e-15 * sv[-1] and abs(q - sv[0]) <= 1e-15 * sv[0], (p, d, q, sv)


def test_growth_rates_past_the_square_are_a_numeric_error():
    # q^2 overflows: the message of every non-finite |f| on the circle
    for p in ((1e200, 0.0, 0.0, 1e200), (1e308, 1e308, 0.0, 1.0), (math.inf, 0.0, 0.0, 1.0)):
        f = planar.builtin("real_linear", **dict(zip("stuv", p)))
        with pytest.raises(NumericError, match=r"\|f\| of real_linear\(.*\) is not finite on the circle"):
            planar.growth_rates(f)
    assert planar.growth_rates(planar.builtin("real_linear", s=0.0, t=0.0, u=0.0, v=0.0)) == (0.0, 0.0)


# (d, q) of every planar builtin at its default parameters and of one point-curve linear
# map; the maps without a matrix read them at the extremal samples of their trace
GROWTH_RATES = {
    "abs_re_plus_i_im": (1.0, 1.0),
    "cardioid_map": (1.0, 1.4142135623730951),
    "half_abs_re_plus_i_im": (0.5, 1.0),
    "norm_only": (0.9999999999999999, 1.0),
    "norm_plus_i_im": (1.0, 1.4142135623730951),
    "norm_plus_i_im_pow(2)": (1.0, 1.4142135623730951),
    "real_linear(1.0,0.0,0.0,1.0)": (1.0, 1.0),
    "real_linear(1,-2,2,1)": (2.23606797749979, 2.23606797749979),
}


@pytest.mark.parametrize("samples", [1, 5, 64, 1000, 1023, 4096])
def test_growth_rates_keep_their_bits(samples):
    # whatever the trace's start samples
    maps = [planar.builtin(name) for name in planar.BUILTINS] + [planar.builtin("real_linear", s=1, t=-2, u=2, v=1)]
    got = {f.name: planar.growth_rates(f, planar.trace_curve(planar.curve_at(f), samples)) for f in maps}
    assert got == GROWTH_RATES


def _former_array_tracer(f, samples, max_samples, chord_bound=1e-3):
    """Reference: the numpy loop the tracer replaced, which re-evaluated every angle each round."""
    n0 = max(16, 4 * math.ceil(samples / 4))
    thetas = np.linspace(0.0, 2.0 * math.pi, n0, endpoint=False)
    vals = homog2d._curve_values(f, thetas)
    while True:
        nxt_theta = np.concatenate([thetas[1:], [2.0 * math.pi]])
        bad = np.abs(np.roll(vals, -1) - vals) > chord_bound
        met = not bad.any()
        room = max_samples - thetas.size
        if met or room <= 0:
            break
        mids = 0.5 * (thetas[bad] + nxt_theta[bad])[:room]
        thetas = np.sort(np.concatenate([thetas, mids]))
        vals = homog2d._curve_values(f, thetas)
    return thetas, vals, met


@pytest.mark.parametrize("name, params, samples, max_samples", [
    ("norm_plus_i_im", {}, 2048, 1 << 20),  # some arcs bisected each round
    ("half_abs_re_plus_i_im", {}, 64, 1 << 20),
    ("real_linear", LINEAR_PARAMS[2], 16, 1 << 20),  # every arc bisected each round
    ("norm_plus_i_im", {}, 16, 40),  # the cap cuts a round short
    ("norm_plus_i_im", {}, 16, 11000),
    ("real_linear", LINEAR_PARAMS[2], 16, 100),
    ("abs_re_plus_i_im", {}, 16, 16),  # no room from the start
])
def test_tracer_matches_the_former_array_loop(name, params, samples, max_samples):
    # evaluating the new midpoints only gives the angles, values and chord flag of
    # evaluating every angle each round, bit for bit
    f = builtin(name, **params)
    curve = homog2d.sigma_curve(f, samples=samples, max_samples=max_samples)
    thetas, vals, met = _former_array_tracer(f, samples, max_samples)
    assert np.array_equal(curve.thetas, thetas) and np.array_equal(curve.values, vals)
    assert curve.chord_met == met and (met or curve.values.size == max_samples)


@pytest.mark.parametrize("max_samples", [1 << 20, (1 << 19) + 12345], ids=["free", "cap"])
def test_tracer_over_several_chunks_matches_the_former_array_loop(max_samples):
    # from just over CHUNK samples, with a bound that only some chords exceed, the
    # chords are swept and the midpoints inserted slice by slice, back from the last
    f = builtin("half_abs_re_plus_i_im")
    samples = numerics.CHUNK + 4
    curve = homog2d.sigma_curve(f, samples=samples, chord_bound=1.5e-5, max_samples=max_samples)
    thetas, vals, met = _former_array_tracer(f, samples, max_samples, chord_bound=1.5e-5)
    assert np.array_equal(curve.thetas, thetas) and np.array_equal(curve.values, vals)
    assert curve.chord_met == met and (met or curve.values.size == max_samples)
    assert curve.values.size > samples


def test_non_finite_sphere_minimum_is_a_numeric_error():
    # an entry of R(lam) - A(r) that overflows: an error naming the map, not an inf residual
    big = 1.7976931348623157e308
    f = planar.builtin("real_linear", s=-big, t=0.0, u=0.0, v=1.0)
    with pytest.raises(NumericError, match=re.escape(f"lam*id - f of {f.name} has a non-finite matrix entry")):
        f.sphere_min(complex(big, 0.0), 0.1)
    g = planar.builtin("norm_times_x", dim=3)
    with pytest.raises(NumericError, match=re.escape("lam*id - f of norm_times_x(3) has a non-finite matrix entry")):
        g.sphere_min(complex(-big, 0.0), 1e300)
    assert g.sphere_min(complex(-big, 0.0), 1.0) == big  # the difference rounds to -big


# ---------------------------------------------------------------------------
# the distance kernel of the planar scan


def _listed(samples) -> list:
    """The complex samples in a list, as trace_curve holds them."""
    return np.asarray(samples, dtype=complex).tolist()


def _kdtree_distances(a, b):
    """Reference: the nearest sample of each lam by a k-d tree query."""
    from scipy.spatial import cKDTree

    return cKDTree(np.stack([b.real, b.imag], -1)).query(np.stack([a.real, a.imag], -1))[0]


def _assert_bounds_match(a, b, tol, chord=0.0):
    """sample_bounds gives every lam the verdict of its nearest sample, with a distance of one sample.

    An undecided lam's bound is the nearest distance, bit for bit; a
    candidate's is below tol and no less than it; a rejected one's is inf.
    """
    expect = _kdtree_distances(a, b)
    got = np.array(planar.sample_bounds(_listed(b), a.tolist(), tol, chord))
    verdicts = scan_verdicts(expect[:, None], tol, chord)
    assert scan_verdicts(got[:, None], tol, chord) == verdicts
    for v, g, e in zip(verdicts, got.tolist(), expect.tolist()):
        assert {"candidate": e <= g < tol, "undecided": g == e, "rejected": g == math.inf}[v], (v, g, e)
    return got


# where the lams lie: a cloud like the samples', a rounding step from samples, exactly on
# samples, left and right of every sample, and on samples that tie in real part
PLACES = ["cloud", "near", "on", "outside", "ties"]


@given(st.integers(1, 300), st.integers(1, 3000), st.floats(-12.0, 12.0), st.integers(0, 2**32 - 1),
       st.sampled_from(PLACES), st.floats(-3.0, 1.0), st.floats(-3.0, 1.0))
def test_sample_bounds_match_kdtree(na, nb, log_scale, seed, place, log_tol, log_chord):
    """The verdict of the k-d tree's nearest sample, and its bits when undecided, wherever the lams lie."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    b = (rng.normal(size=nb) + 1j * rng.normal(size=nb)) * scale + rng.normal() * scale
    if place == "ties":  # few real parts, each shared by many samples
        b = np.round(b.real / scale * 4.0) * (scale / 4.0) + 1j * b.imag
    pick = b[rng.integers(0, nb, size=na)]
    if place == "near":  # lams a rounding step away from samples
        a = pick * (1.0 + rng.normal(size=na) * 1e-15)
    elif place == "on":
        a = pick
    elif place == "ties":  # half of them on samples, half sharing a sample's real part only
        a = pick + 1j * rng.normal(size=na) * scale * (np.arange(na) % 2)
    elif place == "outside":
        lo, hi = b.real.min(), b.real.max()
        span = (hi - lo) + scale
        side = np.where(rng.random(na) < 0.5, lo - span * rng.random(na), hi + span * rng.random(na))
        a = side + 1j * (rng.normal(size=na) * scale)
    else:
        a = (rng.normal(size=na) + 1j * rng.normal(size=na)) * scale
    _assert_bounds_match(a, b, scale * 10.0 ** log_tol, scale * 10.0 ** log_chord * (seed % 2))


def test_sample_bounds_do_not_depend_on_the_batch():
    # lams far above the samples, undecided at a chord that reaches them all: each
    # gets the nearest distance, as alone and as the k-d tree gives it
    rng = np.random.default_rng(4)
    b = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    a = rng.normal(size=300) + 1j * (100.0 + rng.normal(size=300))
    whole = _assert_bounds_match(a, b, 1e-3, chord=1e3)
    alone = [planar.sample_bounds(_listed(b), [lam], 1e-3, 1e3)[0] for lam in a.tolist()]
    assert whole.tolist() == alone == _kdtree_distances(a, b).tolist()


@pytest.mark.parametrize("tol", [5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308, np.inf])
def test_sample_bounds_tol_from_the_least_to_the_largest(tol):
    # lam.real -/+ 2 tol overflows at the largest finite tol; the window is then every sample
    b = np.array([0.0, 1.0, 1j, 2.0 + 2j])
    a = np.array([0.0, 5e-324, 0.5, 3.0 + 3j])
    _assert_bounds_match(a, b, tol)
    assert planar.sample_bounds(_listed(b), [], tol) == []


def test_a_sample_at_a_threshold_takes_the_side_of_the_verdict():
    # a distance of 5: rejected at 2 tol = 5, undecided at the chord 5 and at tol = 5,
    # a candidate just above
    b = np.array([0.0, 10j])
    lams = [5.0 + 0j, -5.0 + 0j, 3.0 + 4.0j]
    assert planar.sample_bounds(_listed(b), lams, 2.5) == [math.inf] * 3
    assert planar.sample_bounds(_listed(b), lams, 2.5, chord=5.0) == [5.0] * 3
    assert planar.sample_bounds(_listed(b), lams, 5.0) == [5.0] * 3
    assert planar.sample_bounds(_listed(b), lams, math.nextafter(5.0, 6.0)) == [5.0] * 3


def test_a_sample_whose_squares_round_lower_is_kept():
    # lam = 0 and b = (1.72 + 1.72j)e-162, |b| = 2.43e-162; a = -2.53e-162 lies farther, and
    # beyond the reach 2.5e-162, but the squares are subnormal and round to one unit each,
    # so a's rounded distance beats b's and lies within reach
    a, b = complex(-2.53e-162, 0.0), complex(1.72e-162, 1.72e-162)
    samples = np.array([a, complex(-1e-163, 1.0), b])
    assert abs(a) > 2.5e-162 > abs(b) and a.real ** 2 == b.real ** 2 == 5e-324
    got = planar.sample_bounds(_listed(samples), [0j], 1.25e-162)
    assert got == _kdtree_distances(np.zeros(1, dtype=complex), samples).tolist() == [math.sqrt(5e-324)]


def test_sample_bounds_follow_the_curve_not_the_tol(monkeypatch):
    # samples every 1e-3 on [-1, 1]: at a huge tol the first sample decides every lam 1e-4
    # off the line, and the search stops; a lam 1 above the line pairs with no sample
    # at the reach 1e-3, and samples out of reach skip those a step cannot bring back
    distances = []

    def counted(x):
        distances.append(x)
        return math.sqrt(x)

    monkeypatch.setattr(planar, "sqrt", counted)
    b = np.linspace(-1.0, 1.0, 2001) + 0j
    near = np.linspace(-0.9, 0.9, 50) + 1e-4j
    assert all(d < 1e300 for d in planar.sample_bounds(_listed(b), near.tolist(), 1e300))
    assert len(distances) == near.size
    distances.clear()
    far = planar.sample_bounds(_listed(b), (near + 1j).tolist(), 5e-4, step=1e-3)
    assert far == [math.inf] * near.size and not distances
    visited = []
    monkeypatch.setattr(planar, "bisect_left", lambda a, x, *r: visited.append(x) or bisect.bisect_left(a, x, *r))
    planar.sample_bounds(_listed(b), (near + 1j).tolist(), 5e-4, step=1e-3)
    assert len(visited) <= 2 * 20  # two bisections a visited sample: 1 - 1e-3 out of reach skips ~1000
