import math
import tracemalloc

import numpy as np
import pytest

from specpoint import homog2d, numerics, planar
from specpoint.core import NumericError
from specpoint.maps import MapSpec, builtin, evaluate

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
    assert bare.thetas == ref.thetas.tolist()
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
        assert met.chord_met and len(met.values) == 16
        assert len(trace(samples=16, chord_bound=math.nextafter(longest, 0.0)).values) > 16


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
    assert len(curve.values) == 1 << 16 and not curve.chord_met
    assert peak <= 1.1 * kept, (peak, kept)


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
        zero = np.zeros(1, dtype=complex)
        sv = np.linalg.svd(f.sphere_matrix(1.0), compute_uv=False)
        expect = (float(numerics.sphere_extrema(f, zero, (1.0,))[0, 0]), sv[0])
        assert expect[0] == sv[-1]
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


def test_sphere_extrema_of_a_linear_map_are_its_singular_values():
    # a map that declares its sphere matrix is solved by one batched SVD per radius, with no evaluation
    rng = np.random.default_rng(9)
    M = rng.normal(size=(4, 4))

    def never(x):
        raise AssertionError("the exact path evaluated the map")

    f = MapSpec(name="black_box", dim=4, evaluator=never, homogeneous=True, complex_pairs=True,
                sphere_matrix=lambda r, _M=M: _M)
    lams = np.array([0.0, 0.7 - 0.2j, -1.1 + 2.0j])
    res = numerics.sphere_extrema(f, lams, (0.1, 0.01))
    for i, lam in enumerate(lams):
        scale = np.kron(np.eye(2), [[lam.real, -lam.imag], [lam.imag, lam.real]])
        sv = np.linalg.svd(scale - M, compute_uv=False)
        assert res[i].tolist() == [sv[-1], sv[-1]]


def test_non_finite_sphere_extremum_is_a_numeric_error():
    # a non-finite entry of the declared matrix: an error naming the map, not an inf residual
    g = MapSpec(name="inf_matrix", dim=2, evaluator=lambda x: np.asarray(x), homogeneous=True,
                sphere_matrix=lambda r: np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError, match="inf_matrix"):
        numerics.sphere_extrema(g, np.array([0.5 + 0j]), (0.1,))
