import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from specpoint.numerics import golden_min

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


@given(bracket, shape, st.integers(0, 80))
def test_golden_min_scalar_matches_reference_loop(br, params, iters):
    fn = lambda x: smooth(x, *params)
    x, fx = golden_min(fn, *br, iters=iters)
    rx, rfx = scalar_golden_reference(fn, *br, iters=iters)
    assert np.shape(x) == np.shape(fx) == ()
    assert float(x) == rx and float(fx) == rfx


@given(st.lists(st.tuples(bracket, shape), min_size=1, max_size=8))
def test_golden_min_array_matches_per_element_calls(items):
    lo = np.array([br[0] for br, _ in items])
    hi = np.array([br[1] for br, _ in items])
    params = np.array([p for _, p in items]).T
    x, fx = golden_min(lambda t: smooth(t, *params), lo, hi, iters=40)
    for i, (br, p) in enumerate(items):
        rx, rfx = scalar_golden_reference(lambda t: smooth(t, *p), *br, iters=40)
        assert x[i] == rx and fx[i] == rfx


def test_golden_min_evaluates_once_per_iteration():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return (x - 0.3) ** 2

    x, _ = golden_min(fn, np.zeros(5), np.ones(5), iters=40)
    assert len(calls) == 42 and set(calls) == {(5,)}
    assert np.allclose(x, 0.3, atol=1e-8)
