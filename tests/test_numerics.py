import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from specpoint.numerics import CHUNK, nearest_sample
from specpoint.planar import golden_min

G = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_reference(fn, lo, hi, iters=60):
    """The scalar golden-section loop, as written before golden_min shared its steps with an array search."""
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
    assert (x, fx) == (rx, rfx)


def test_golden_min_evaluates_once_per_iteration():
    kinds = []

    def scalar_fn(x):
        kinds.append(type(x))
        return (x - 0.3) ** 2

    x, _ = golden_min(scalar_fn, 0.0, 1.0)
    assert kinds == [float] * 62 and type(x) is float
    assert abs(x - 0.3) <= 1e-8


# ---------------------------------------------------------------------------
# distances


def _kdtree_distances(a, b):
    """Reference: the k-d tree query that the nearest-sample kernel replaced."""
    from scipy.spatial import cKDTree

    return cKDTree(np.stack([b.real, b.imag], -1)).query(np.stack([a.real, a.imag], -1))[0]


@given(st.integers(1, 300), st.integers(1, 5000), st.floats(-12.0, 12.0), st.integers(0, 2**32 - 1),
       st.booleans(), st.floats(-3.0, 1.0))
def test_nearest_sample_matches_kdtree(na, nb, log_scale, seed, near, log_reach):
    """Bit-identical to the k-d tree within reach, inf beyond; chunks split lams when the pairs pass CHUNK."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    b = (rng.normal(size=nb) + 1j * rng.normal(size=nb)) * scale + rng.normal() * scale
    if near:  # lams a rounding step away from samples
        a = b[rng.integers(0, nb, size=na)] * (1.0 + rng.normal(size=na) * 1e-15)
    else:
        a = (rng.normal(size=na) + 1j * rng.normal(size=na)) * scale
    expect = _kdtree_distances(a, b)
    assert np.array_equal(nearest_sample(a, b, np.inf), expect)
    reach = scale * 10.0 ** log_reach
    assert np.array_equal(nearest_sample(a, b, reach), np.where(expect <= reach, expect, np.inf))


def test_nearest_sample_bits_do_not_depend_on_the_batch():
    # every lam paired with all 5000 samples: 2^18 pairs are about 52 lams, so the
    # chunks split lams and the whole batch runs in several of them
    rng = np.random.default_rng(4)
    b = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    assert a.size * b.size > 4 * CHUNK
    whole = nearest_sample(a, b, np.inf)
    assert np.array_equal(whole, np.concatenate([nearest_sample(a[k:k + 1], b, np.inf) for k in range(a.size)]))
    assert np.array_equal(whole, _kdtree_distances(a, b))


@pytest.mark.parametrize("reach", [5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308, np.inf])
def test_nearest_sample_reach_from_the_least_to_the_largest(reach):
    # lam.real -/+ reach overflows at the largest finite reach; the strip is then every sample
    b = np.array([0.0, 1.0, 1j, 2.0 + 2j])
    a = np.array([0.0, 5e-324, 0.5, 3.0 + 3j])
    expect = _kdtree_distances(a, b)
    with np.errstate(over="raise", invalid="raise"):
        got = nearest_sample(a, b, reach)
    assert np.array_equal(got, np.where(expect <= reach, expect, np.inf))
    assert nearest_sample(np.zeros(0, dtype=complex), b, reach).shape == (0,)


def test_a_sample_at_the_reach_lies_within_it():
    # a distance equal to reach is kept, by the strip (dx = reach) and by the bound (d = reach)
    b = np.array([0.0, 10j])
    lams = np.array([5.0 + 0j, -5.0 + 0j, 3.0 + 4.0j])
    assert nearest_sample(lams, b, 5.0).tolist() == [5.0, 5.0, 5.0]
    assert nearest_sample(lams, b, np.nextafter(5.0, 0.0)).tolist() == [np.inf] * 3
