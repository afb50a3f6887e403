import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from specpoint.core import (
    DiniQuad,
    NEG_INF,
    POS_INF,
    RealIntervalSet,
    as_complex,
    ext_from_json,
    ext_to_json,
    inf_of,
    sup_of,
)
from specpoint.maps import black_box, lambda_minus, scalar_action

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
endpoint = st.one_of(finite, st.just(POS_INF), st.just(NEG_INF))


def test_empty_extrema_conventions():
    assert sup_of([]) == NEG_INF
    assert inf_of([]) == POS_INF
    assert sup_of([3.0, -1.0]) == 3.0
    assert inf_of([3.0, -1.0]) == -1.0


def test_nan_rejected():
    with pytest.raises(ValueError):
        sup_of([float("nan")])


def test_ext_json_round_trip():
    for v in (1.5, POS_INF, NEG_INF, 0.0):
        assert ext_from_json(ext_to_json(v)) == v
    assert ext_to_json(POS_INF) == "inf"
    assert ext_to_json(NEG_INF) == "-inf"


@st.composite
def interval_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = []
    for _ in range(n):
        a = draw(endpoint)
        b = draw(endpoint)
        lo, hi = min(a, b), max(a, b)
        pairs.append((lo, hi))
    return pairs


@given(interval_pairs())
def test_interval_set_normalized(pairs):
    s = RealIntervalSet.from_pairs(pairs)
    ivs = s.intervals
    for lo, hi in ivs:
        assert lo <= hi
        assert not (lo == hi and math.isinf(lo))
    for (l1, h1), (l2, h2) in zip(ivs, ivs[1:]):
        assert h1 < l2  # disjoint and sorted after merging


@given(interval_pairs(), finite)
def test_interval_set_contains_matches_inputs(pairs, x):
    s = RealIntervalSet.from_pairs(pairs)
    should = any(lo <= x <= hi for lo, hi in pairs)
    assert s.contains(x) == should


@given(interval_pairs())
def test_interval_set_idempotent(pairs):
    s = RealIntervalSet.from_pairs(pairs)
    assert RealIntervalSet.from_pairs(s.intervals) == s


@given(interval_pairs())
def test_hull_is_smallest_interval(pairs):
    s = RealIntervalSet.from_pairs(pairs)
    h = s.hull()
    if s.is_empty:
        assert h.is_empty
    else:
        (lo, hi), = h.intervals
        assert lo == min(p[0] for p in s.intervals)
        assert hi == max(p[1] for p in s.intervals)


def test_interval_display():
    assert RealIntervalSet.empty().display() == "[]"
    assert RealIntervalSet.reals().display() == "(-inf,+inf)"
    assert RealIntervalSet.point(0.0).display() == "{0}"
    assert RealIntervalSet.from_pairs([(0.0, POS_INF)]).display() == "[0,+inf)"
    assert RealIntervalSet.from_pairs([(-1, -1), (1, 1)]).display() == "{-1} u {1}"


def test_degenerate_infinite_pairs_dropped():
    assert RealIntervalSet.from_pairs([(POS_INF, POS_INF)]).is_empty
    assert RealIntervalSet.from_pairs([(NEG_INF, NEG_INF)]).is_empty
    assert RealIntervalSet.from_pairs([(NEG_INF, POS_INF)]).is_all_reals


def test_quad_validation():
    with pytest.raises(ValueError):
        DiniQuad(1.0, 0.0, 0.0, 0.0)
    q = DiniQuad(-1.0, -1.0, 1.0, 1.0)
    assert q.as_tuple() == (-1.0, -1.0, 1.0, 1.0)


@given(finite, finite, finite, finite, st.sampled_from([-3.0, -0.5, 0.5, 2.0]))
def test_quad_scaling_round_trip(a, b, c, d, s):
    lo_m, hi_m = min(a, b), max(a, b)
    lo_p, hi_p = min(c, d), max(c, d)
    q = DiniQuad(lo_m, hi_m, lo_p, hi_p)
    back = q.scaled(s).scaled(1.0 / s)
    assert np.allclose(back.as_tuple(), q.as_tuple(), rtol=1e-12, atol=1e-12)


def test_quad_scale_zero():
    q = DiniQuad(NEG_INF, -1.0, 1.0, POS_INF)
    assert q.scaled(0.0).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_quad_reflect_matches_pointwise():
    q = DiniQuad(-2.0, -1.0, 3.0, 5.0)
    f = black_box(1, lambda x: np.asarray(x, dtype=float), dini_exact=lambda p: q)
    r = lambda_minus(1.0, f).dini_exact(0.0)
    assert r.as_tuple() == (1.0 - (-1.0), 1.0 - (-2.0), 1.0 - 5.0, 1.0 - 3.0)


def test_complex_scale_on_two_pairs():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = scalar_action(1j, x, True)
    # i*(1+2i) = -2+i ; i*(3+4i) = -4+3i
    assert np.allclose(out, [-2.0, 1.0, -4.0, 3.0])


def test_complex_scale_does_not_depend_on_the_batch():
    # numpy multiplies into a temporary of 256 KiB or more in place, and
    # that product rounds differently: one (lam, u) row per lam of the
    # 128 x 128 scan grid makes one
    xs = np.linspace(-1.5, 1.5, 128)
    lams = np.array([complex(x, y) for y in xs for x in xs])
    theta = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, lams.size)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=-1)[:, None, :]
    whole = scalar_action(lams[:, None], U, True)
    sliced = [scalar_action(lams[lo:lo + 1000, None], U[lo:lo + 1000], True)
              for lo in range(0, lams.size, 1000)]
    assert np.array_equal(whole, np.concatenate(sliced))


def test_as_complex_accepts_scalars_and_pairs():
    assert as_complex(1 + 2j) == 1 + 2j
    assert as_complex(0.5) == 0.5 + 0j
    assert as_complex((3.0, -4.0)) == as_complex(np.array([3.0, -4.0])) == 3 - 4j
    with pytest.raises(ValueError):
        as_complex([1.0, 2.0, 3.0])


def test_core_runs_without_numpy():
    # run the module file itself: importing through the package would load maps, and numpy with it
    core = Path(__file__).resolve().parents[1] / "src" / "specpoint" / "core.py"
    code = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "as_complex = runpy.run_path(sys.argv[1])['as_complex']\n"
        "assert as_complex(1 + 2j) == 1 + 2j\n"
        "assert as_complex(0.5) == 0.5 + 0j\n"
        "assert as_complex((3.0, -4.0)) == 3 - 4j\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(core)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
