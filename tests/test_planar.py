import math

import numpy as np
import pytest

from specpoint import homog2d, numerics, planar
from specpoint.core import NumericError
from specpoint.maps import black_box, builtin
from specpoint.numerics import golden_min

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
        assert np.array_equal(f.jacobian(np.zeros(2)), np.array(bare.jacobian(None)))


@pytest.mark.parametrize("samples", [16, 4096, 1 << 16])
@pytest.mark.parametrize("name, params", HOMOGENEOUS, ids=IDS)
def test_tracer_matches_curve_values(name, params, samples):
    # the bare tracer takes the angles of the array one, and its values are
    # sigma within 4 ulps of |sigma|: the complex product rounds apart
    bare = planar.trace_curve(planar.curve_at(planar.builtin(name, **params)), samples=samples)
    f = builtin(name, **params)
    ref = homog2d.sigma_curve(f, samples=samples)
    assert len(bare.thetas) == len(bare.values) == ref.thetas.size
    assert bare.thetas == ref.thetas.tolist()
    assert bare.chord_met == ref.chord_met and bare.is_point() == ref.is_point()
    expect = homog2d._curve_values(f, np.array(bare.thetas))
    got = np.array(bare.values)
    ulps = np.array([math.ulp(m) for m in np.abs(expect).tolist()])
    assert np.all(np.abs(got - expect) <= 4.0 * ulps)


@pytest.mark.parametrize("name, params", HOMOGENEOUS, ids=IDS)
def test_circle_extremum_matches_sphere_minima(name, params):
    # the pure-Python extremum against the sphere kernel at lam = 0, which
    # answers real_linear exactly by its singular values
    f = builtin(name, **params)
    zero = np.zeros(1, dtype=complex)
    for radius in (1.0, 0.3):
        moduli = homog2d._circle_moduli(f, radius)
        for sign in (1.0, -1.0):
            got = planar.circle_extremum(moduli, sign, f.name)
            expect = float(numerics.sphere_extrema(f, zero, (radius,), planar.SPHERE_DIRECTIONS, sign=sign)[0, 0])
            assert abs(got - expect) <= 1e-15 * abs(expect), (radius, sign, got, expect)
    # spec2d's d and q, on floats, are homog2d's bit for bit
    bare = planar.moduli_at(planar.builtin(name, **params))
    assert [planar.circle_extremum(bare, s, f.name) for s in (1.0, -1.0)] == list(homog2d.d_and_quasinorm(f))


def test_golden_min_is_the_iteration_of_the_array_search():
    rng = np.random.default_rng(5)
    lo = rng.uniform(-3.0, 3.0, size=64)
    hi = lo + rng.uniform(1e-6, 2.0, size=64)
    shift = rng.uniform(-3.0, 3.0, size=64)

    def fn(x, _s=shift):
        return np.abs(np.sin(x - _s)) + 0.1 * (x - _s) ** 2

    xs, fs = golden_min(fn, lo, hi)
    for i in range(lo.size):
        x, fx = planar.golden_min(lambda t, _i=i: float(fn(np.array([t]), shift[_i:_i + 1])[0]), lo[i], hi[i])
        assert (x, fx) == (xs[i], fs[i])


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


def test_sphere_extrema_of_a_linear_map_are_its_singular_values():
    # a homogeneous map with a Jacobian is solved by one batched SVD, with no evaluation
    rng = np.random.default_rng(9)
    M = rng.normal(size=(4, 4))

    def never(x):
        raise AssertionError("the exact path evaluated the map")

    f = black_box(4, never, homogeneous=True, complex_pairs=True, jacobian=lambda q, _M=M: _M)
    lams = np.array([0.0, 0.7 - 0.2j, -1.1 + 2.0j])
    res = numerics.sphere_extrema(f, lams, (0.1, 0.01), 512)
    top = numerics.sphere_extrema(f, lams, (0.1,), 512, sign=-1.0)
    for i, lam in enumerate(lams):
        scale = np.kron(np.eye(2), [[lam.real, -lam.imag], [lam.imag, lam.real]])
        sv = np.linalg.svd(scale - M, compute_uv=False)
        assert res[i].tolist() == [sv[-1], sv[-1]] and top[i, 0] == sv[0]


def test_non_finite_sphere_extremum_is_a_numeric_error():
    # |f(r u)|^2 / r^2 overflows: an error naming the map, not an inf residual
    f = black_box(2, lambda x: np.asarray(x) * 1e200, name="huge")
    with pytest.raises(NumericError, match="huge"):
        numerics.sphere_extrema(f, np.array([0.5 + 0j]), (0.1,), 64)
    g = black_box(2, lambda x: np.asarray(x), name="inf_matrix", homogeneous=True,
                  jacobian=lambda q: np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError, match="inf_matrix"):
        numerics.sphere_extrema(g, np.array([0.5 + 0j]), (0.1,), 64)
