import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from specpoint import planar
from specpoint.numerics import directed_distance, golden_min, sphere_directions

G = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_reference(fn, lo, hi, iters=60):
    """The scalar golden-section loop that golden_min generalizes."""
    a, b = float(lo), float(hi)
    c = b - G * (b - a)
    d = a + G * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - G * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + G * (b - a)
            fd = fn(d)
    if fc <= fd:
        return c, fc
    return d, fd


def smooth(x, centre, quartic, slope):
    # + and * only: IEEE rounding is the same for scalars and arrays
    v = (x - centre) * (x - centre)
    return v + quartic * v * v + slope * x


finite = st.floats(-10.0, 10.0, allow_nan=False)
shape = st.tuples(finite, st.floats(0.0, 3.0), st.floats(-1.0, 1.0))
bracket = st.tuples(finite, st.floats(1e-6, 5.0)).map(lambda t: (t[0], t[0] + t[1]))


@given(bracket, shape)
def test_golden_min_scalar_matches_reference_loop(br, params):
    fn = lambda x: smooth(x, *params)
    x, fx = golden_min(fn, *br)
    rx, rfx = scalar_golden_reference(fn, *br)
    assert np.shape(x) == np.shape(fx) == ()
    assert float(x) == rx and float(fx) == rfx


@given(st.lists(st.tuples(bracket, shape), min_size=1, max_size=8))
def test_golden_min_array_matches_per_element_calls(items):
    lo = np.array([br[0] for br, _ in items])
    hi = np.array([br[1] for br, _ in items])
    params = np.array([p for _, p in items]).T
    x, fx = golden_min(lambda t: smooth(t, *params), lo, hi)
    for i, (br, p) in enumerate(items):
        rx, rfx = scalar_golden_reference(lambda t: smooth(t, *p), *br)
        assert x[i] == rx and fx[i] == rfx


def test_golden_min_evaluates_once_per_iteration():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return (x - 0.3) ** 2

    x, _ = golden_min(fn, np.zeros(5), np.ones(5))
    assert len(calls) == 62 and set(calls) == {(5,)}
    assert np.allclose(x, 0.3, atol=1e-8)
    # the same iteration on floats, through planar: one float per call
    kinds = []

    def scalar_fn(x):
        kinds.append(type(x))
        return (x - 0.3) ** 2

    x, _ = planar.golden_min(scalar_fn, 0.0, 1.0)
    assert kinds == [float] * 62 and type(x) is float
    assert abs(x - 0.3) <= 1e-8


# ---------------------------------------------------------------------------
# directions


def test_line_directions_are_its_two_unit_points():
    for n in (1, 2, 512):
        assert sphere_directions(1, n).tolist() == [[1.0], [-1.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 512, 1024])
def test_planar_directions_are_the_uniform_angle_grid(n):
    # the golden polish brackets each sampled angle by one spacing 2 pi / n on either
    # side, so consecutive directions, the last and the first too, are that far apart
    dirs = sphere_directions(2, n)
    assert dirs.shape == (n, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=0, atol=1e-15)
    nxt = np.roll(dirs, -1, axis=0)
    cos = np.sum(dirs * nxt, axis=-1)
    sin = dirs[:, 0] * nxt[:, 1] - dirs[:, 1] * nxt[:, 0]  # counterclockwise
    assert np.allclose(cos, math.cos(2.0 * math.pi / n), rtol=0, atol=1e-12)
    assert np.allclose(sin, math.sin(2.0 * math.pi / n), rtol=0, atol=1e-12)
    assert abs(math.atan2(dirs[0, 1], dirs[0, 0]) - math.pi / n) <= 1e-15  # half a spacing from angle 0
    assert np.array_equal(dirs, sphere_directions(2, n))  # the same on every call


# ---------------------------------------------------------------------------
# distances


def _kdtree_directed_distance(a, b):
    """Reference: the k-d tree query that directed_distance replaced."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(np.asarray(b, dtype=float)).query(np.asarray(a, dtype=float))
    return float(np.max(d))


@given(st.integers(1, 300), st.integers(1, 5000), st.floats(-12.0, 12.0), st.integers(0, 2**32 - 1),
       st.booleans())
def test_directed_distance_matches_kdtree(na, nb, log_scale, seed, near):
    """Bit-identical to the k-d tree; chunks split rows when na * nb > 2^20."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    b = rng.normal(size=(nb, 2)) * scale + rng.normal() * scale
    if near:  # rows a rounding step away from points of b
        a = b[rng.integers(0, nb, size=na)] * (1.0 + rng.normal(size=(na, 1)) * 1e-15)
    else:
        a = rng.normal(size=(na, 2)) * scale
    assert directed_distance(a, b) == _kdtree_directed_distance(a, b)
