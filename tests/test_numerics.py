import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from specpoint import planar
from specpoint.numerics import directed_distance, golden_min, sphere_directions, sphere_polish

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
# sphere search


def scalar_sphere_polish(fn, u0, maxfev=600, simplex_radius=0.15):
    """Reference: one scipy Nelder-Mead run on the Householder tangent frame of u0.

    fn maps one unit vector to its value; returns (unit vector, value).
    """
    from scipy import optimize

    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.linalg.norm(u0)
    dim = u0.size
    e1 = np.zeros(dim)
    e1[0] = 1.0
    v = e1 - u0
    H = np.eye(dim)
    if np.linalg.norm(v) > 1e-14:
        v = v / np.linalg.norm(v)
        H -= 2.0 * np.outer(v, v)
    T = H[:, 1:]

    def obj(t):
        u = u0 + T @ t
        return fn(u / np.linalg.norm(u))

    k = dim - 1
    simplex = np.zeros((k + 1, k))
    simplex[1:] = simplex_radius * np.eye(k)
    res = optimize.minimize(obj, np.zeros(k), method="Nelder-Mead", options={
        "maxfev": maxfev, "xatol": 1e-12, "fatol": 1e-14, "initial_simplex": simplex})
    f0 = float(fn(u0))
    if res.fun <= f0:
        u = u0 + T @ res.x
        return u / np.linalg.norm(u), float(res.fun)
    return u0, f0


def linear_objectives(mats, shifts):
    """Row b: u -> |M_b u| + c_b |u - e1|^2, a batch objective for sphere_polish."""
    mats, shifts = np.asarray(mats), np.asarray(shifts)

    def fn(U):
        e1 = np.zeros(U.shape[-1])
        e1[0] = 1.0
        vals = np.linalg.norm(np.einsum("bij,bmj->bmi", mats, U), axis=-1)
        return vals + shifts[:, None] * np.sum((U - e1) ** 2, axis=-1)

    return fn


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_sphere_polish_no_worse_than_scalar_scipy_reference(dim, batch, seed, shifted):
    """Each element ends at most 1e-12 above the scalar scipy run from its start."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(batch, dim, dim))
    shifts = rng.uniform(0.0, 0.5, size=batch) if shifted else np.zeros(batch)
    U0 = rng.normal(size=(batch, dim))
    fn = linear_objectives(mats, shifts)
    values, points = sphere_polish(fn, U0)
    assert values.shape == (batch,) and points.shape == (batch, dim)
    assert np.allclose(np.linalg.norm(points, axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(values, fn(points[:, None, :])[:, 0], rtol=1e-14, atol=0)  # its point's value
    for b in range(batch):
        def one(u, _b=b):
            return float(linear_objectives(mats[_b:_b + 1], shifts[_b:_b + 1])(u[None, None, :])[0, 0])

        _, ref = scalar_sphere_polish(one, U0[b], maxfev=200 * dim)
        assert values[b] <= ref + 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_sphere_polish_follows_the_scipy_simplex(dim):
    """The first 40 points scipy's Nelder-Mead evaluates appear, in order,
    among the kernel's trial points: the lockstep run is the same method.

    Later on both runs compare values that differ only by rounding, so
    their paths may part; in 160 seeded runs of dimension 2 to 8 the first
    40 points always matched.
    """
    for seed in range(10):
        rng = np.random.default_rng(seed)
        fn = linear_objectives(rng.normal(size=(1, dim, dim)), np.zeros(1))
        u0 = rng.normal(size=dim)
        ours, theirs = [], []

        def recording(U):
            ours.extend(U.reshape(-1, dim))
            return fn(U)

        def one(u):
            theirs.append(u)
            return float(fn(u[None, None, :])[0, 0])

        sphere_polish(recording, u0[None, :])
        scalar_sphere_polish(one, u0, maxfev=200 * dim)
        i = 0
        for p in theirs[:40]:
            while i < len(ours) and np.max(np.abs(ours[i] - p)) > 1e-12:
                i += 1
            assert i < len(ours), (seed, p)
            i += 1


@pytest.mark.parametrize("dim", range(2, 9))
def test_sphere_polish_reaches_the_smallest_singular_value(dim):
    """min over the sphere of |M u| is sigma_min(M), from starts anywhere."""
    rng = np.random.default_rng(100 + dim)
    mats = rng.normal(size=(12, dim, dim))
    values, _ = sphere_polish(linear_objectives(mats, np.zeros(12)), rng.normal(size=(12, dim)))
    sigma_min = np.linalg.svd(mats, compute_uv=False)[:, -1]
    assert np.max(np.abs(values - sigma_min)) <= 1e-12


def test_sphere_polish_evaluates_the_whole_batch_per_call():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(7, 4, 4))
    inner = linear_objectives(mats, np.zeros(7))
    shapes = []

    def fn(U):
        shapes.append(U.shape)
        return inner(U)

    sphere_polish(fn, rng.normal(size=(7, 4)))
    # the initial simplices, then the four trial points or a shrink of three
    assert shapes[0] == (7, 4, 4)
    assert set(shapes[1:]) <= {(7, 4, 4), (7, 3, 4)}
    assert len(shapes) < 2000


# ---------------------------------------------------------------------------
# directions


def _sobol_directions(dim, n, seed):
    """Reference: scrambled Sobol points through the normal quantile, normalized."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    m = max(1, math.ceil(math.log2(max(2, n))))
    pts = qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(m)[:n]
    g = ndtri(np.clip(pts, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _mean_nearest_angle(dirs, probes):
    """Mean over the probes of the angle to the nearest direction of the set."""
    return float(np.mean(np.arccos(np.clip(probes @ dirs.T, -1.0, 1.0).max(axis=1))))


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("dim", range(3, 9))
def test_directions_cover_the_sphere_like_sobol(dim, n):
    probes = np.random.default_rng(dim).normal(size=(4096, dim))
    probes /= np.linalg.norm(probes, axis=-1, keepdims=True)
    dirs = sphere_directions(dim, n)
    assert dirs.shape == (n, dim)
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=0, atol=1e-15)
    ours = _mean_nearest_angle(dirs, probes)
    for seed in (0, 3):  # two scramblings of the Sobol points
        assert ours <= 1.05 * _mean_nearest_angle(_sobol_directions(dim, n, seed), probes)


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
