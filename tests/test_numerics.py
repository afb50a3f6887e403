import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from specpoint.numerics import CHUNK, nearest_sample


# ---------------------------------------------------------------------------
# distances


def _kdtree_distances(a, b):
    """Reference: the k-d tree query that the nearest-sample kernel replaced."""
    from scipy.spatial import cKDTree

    return cKDTree(np.stack([b.real, b.imag], -1)).query(np.stack([a.real, a.imag], -1))[0]


# where the lams lie: a cloud like the samples', a rounding step from samples, exactly on
# samples, left and right of every sample, and on samples that tie in real part
PLACES = ["cloud", "near", "on", "outside", "ties"]


@given(st.integers(1, 300), st.integers(1, 5000), st.floats(-12.0, 12.0), st.integers(0, 2**32 - 1),
       st.sampled_from(PLACES), st.floats(-3.0, 1.0))
def test_nearest_sample_matches_kdtree(na, nb, log_scale, seed, place, log_reach):
    """Bit-identical to the k-d tree within reach, inf beyond, wherever the lams lie."""
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
    expect = _kdtree_distances(a, b)
    assert np.array_equal(nearest_sample(a, b, np.inf), expect)
    reach = scale * 10.0 ** log_reach
    assert np.array_equal(nearest_sample(a, b, reach), np.where(expect <= reach, expect, np.inf))


def test_nearest_sample_bits_do_not_depend_on_the_batch():
    # lams far above the samples: their neighbours in real-part order lie farther than
    # the whole cloud, so every lam is paired with all 5000 samples; 2^18 pairs are
    # about 52 lams, so the chunks split lams and the whole batch runs in several of them
    rng = np.random.default_rng(4)
    b = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    a = rng.normal(size=300) + 1j * (100.0 + rng.normal(size=300))
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


def test_a_sample_past_the_neighbours_whose_squares_round_lower_is_kept():
    # lam = 0 and its neighbours in real-part order at -1e-163 + 1j and b = (1.72 +
    # 1.72j)e-162, |b| = 2.43e-162; a = -2.53e-162 lies farther, but the squares are
    # subnormal and round to one unit each, so a's rounded distance beats b's
    a, b = complex(-2.53e-162, 0.0), complex(1.72e-162, 1.72e-162)
    samples = np.array([a, complex(-1e-163, 1.0), b])
    assert abs(a) > abs(b) and a.real ** 2 == b.real ** 2 == 5e-324
    got = nearest_sample(np.zeros(1, dtype=complex), samples, np.inf)
    assert got.tolist() == _kdtree_distances(np.zeros(1, dtype=complex), samples).tolist() == [math.sqrt(5e-324)]


def test_nearest_sample_pairs_follow_the_curve_not_the_reach(monkeypatch):
    # samples every 1e-3 on [-1, 1]: a lam 1e-4 off the line pairs with one or two
    # of them, at reach inf too, and a lam 1 above it with at most the three whose
    # real part lies within the reach 1e-3, not with the thousand its neighbours span
    from specpoint import numerics

    pairs = []

    class CountingNumpy:  # numpy, with the pair indices of each chunk counted
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args):
            pairs.append(np.arange(*args).size)
            return np.arange(*args)

    monkeypatch.setattr(numerics, "np", CountingNumpy())
    b = np.linspace(-1.0, 1.0, 2001) + 0j
    near = np.linspace(-0.9, 0.9, 50) + 1e-4j
    assert np.array_equal(nearest_sample(near, b, np.inf), _kdtree_distances(near, b))
    assert sum(pairs) <= 2 * near.size
    pairs.clear()
    assert nearest_sample(near + 1j, b, 1e-3).tolist() == [np.inf] * near.size
    assert sum(pairs) <= 3 * near.size
