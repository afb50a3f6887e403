import dataclasses
import math
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from specpoint.core import (
    DiniQuad,
    MapSpec,
    NEG_INF,
    POS_INF,
    Record,
    RealIntervalSet,
    as_complex,
    ext,
    ext_to_json,
    replace,
    scan_verdicts,
)
from specpoint.homog2d import PlaneSpectrum
from specpoint.rates import Interval

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
endpoint = st.one_of(finite, st.just(POS_INF), st.just(NEG_INF))


def test_nan_rejected():
    with pytest.raises(ValueError):
        ext(float("nan"))


def test_ext_json():
    for v in (1.5, 0.0, -2.0):
        assert ext_to_json(v) == v
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
    assert any(lo <= x <= hi for lo, hi in s.intervals) == should


@given(interval_pairs())
def test_interval_set_idempotent(pairs):
    s = RealIntervalSet.from_pairs(pairs)
    assert RealIntervalSet.from_pairs(s.intervals) == s


def test_interval_display():
    assert RealIntervalSet().display() == "[]"
    assert RealIntervalSet(((NEG_INF, POS_INF),)).display() == "(-inf,+inf)"
    assert RealIntervalSet.from_pairs([(0.0, 0.0)]).display() == "{0}"
    assert RealIntervalSet.from_pairs([(0.0, POS_INF)]).display() == "[0,+inf)"
    assert RealIntervalSet.from_pairs([(-1, -1), (1, 1)]).display() == "{-1} u {1}"


def test_degenerate_infinite_pairs_dropped():
    assert RealIntervalSet.from_pairs([(POS_INF, POS_INF)]) == RealIntervalSet()
    assert RealIntervalSet.from_pairs([(NEG_INF, NEG_INF)]) == RealIntervalSet()
    assert RealIntervalSet.from_pairs([(NEG_INF, POS_INF)]) == RealIntervalSet(((NEG_INF, POS_INF),))


def test_scan_verdicts_read_the_smallest_radius_alone():
    # a rising row is a candidate when its last residual is below tol
    rows = [(0.001, 0.01), (0.5, 0.01), (0.0, 0.03), (0.0, 0.04)]
    assert scan_verdicts(rows, 0.02) == ("candidate", "candidate", "undecided", "rejected")


def test_scan_verdicts_leave_residuals_within_the_chord_undecided():
    # a curve traced short of its chord bound: a residual below tol is still a candidate,
    # one in [2 tol, chord] is undecided, and one beyond the chord or inf is rejected
    tol, chord = 0.02, 0.1
    rows = [[0.0], [0.019], [0.02], [0.039], [0.04], [0.1], [0.1000001], [math.inf]]
    want = ("candidate", "candidate", "undecided", "undecided", "undecided", "undecided", "rejected", "rejected")
    assert scan_verdicts(rows, tol, chord) == want
    assert scan_verdicts([[0.5, 0.019]], tol, 1.0) == ("candidate",)
    # chord 0, its default, leaves the verdicts of tol alone
    plain = ("candidate", "candidate", "undecided", "undecided") + ("rejected",) * 4
    assert scan_verdicts(rows, tol) == scan_verdicts(rows, tol, 0.0) == plain


def test_quad_validation():
    with pytest.raises(ValueError):
        DiniQuad(1.0, 0.0, 0.0, 0.0)
    q = DiniQuad(-1.0, -1.0, 1.0, 1.0)
    assert q.as_tuple() == (-1.0, -1.0, 1.0, 1.0)


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


# Frozen-dataclass twins of four records, the reference for `core.Record`:
# the same fields, defaults and __post_init__, built by `dataclasses`.


@dataclasses.dataclass(frozen=True)
class DiniQuadTwin:
    d_minus_low: float
    d_minus_high: float
    d_plus_low: float
    d_plus_high: float

    def __post_init__(self):
        for v in (self.d_minus_low, self.d_minus_high, self.d_plus_low, self.d_plus_high):
            ext(v)
        if self.d_minus_low > self.d_minus_high or self.d_plus_low > self.d_plus_high:
            raise ValueError("quadruple sides out of order")


@dataclasses.dataclass(frozen=True)
class IntervalTwin:
    lo: float
    hi: float

    def __post_init__(self):
        if ext(self.lo) > ext(self.hi):
            raise ValueError("interval endpoints out of order")


def _iv(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (tuple, list)):
        return Interval(float(x[0]), float(x[1]))
    if x is None:
        return Interval.unknown()
    return Interval.exact(float(x))


class KnownRates(Record):
    """A record whose __post_init__ converts its fields: a value, a pair or None to an Interval."""

    alpha: Interval = None
    omega: Interval = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _iv(self.alpha))
        object.__setattr__(self, "omega", _iv(self.omega))


@dataclasses.dataclass(frozen=True)
class KnownRatesTwin:
    alpha: Interval = None
    omega: Interval = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _iv(self.alpha))
        object.__setattr__(self, "omega", _iv(self.omega))


@dataclasses.dataclass(frozen=True)
class PlaneSpectrumTwin:
    curve: object
    xs: object
    ys: object
    labels: object
    band_radius: float
    violations: tuple = ()
    component_consistent: bool = True
    metadata: dict = dataclasses.field(default_factory=dict)


# (record, twin, positional arguments, the first n of them required,
#  arguments __post_init__ rejects, a new value of the last field)
RECORD_CASES = [
    (DiniQuad, DiniQuadTwin, (-1.0, 0.0, 1.0, POS_INF), 4, [(1.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0)], 5.0),
    (Interval, IntervalTwin, (0.5, 2.0), 2, [(2.0, 1.0), (0.0, math.nan)], 3.0),
    (KnownRates, KnownRatesTwin, (1.0, (0.0, 2.0)), 0, [((2.0, 1.0),), (1.0, math.nan)], (1.0, 2.0)),
    # metadata is passed: a record's default is an empty mappingproxy, a twin's an empty dict
    (PlaneSpectrum, PlaneSpectrumTwin, ("curve", (0.0, 1.0), (0.0,), ((1, 2),), 0.1, (), False, {"k": "v"}), 5, [],
     {"a": "b"}),
]


def _plain(values):
    """A record's values with its empty mappingproxy default as the twin's dict."""
    return tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


def _twin_fields(twin_obj):
    return tuple(getattr(twin_obj, f.name) for f in dataclasses.fields(twin_obj))


def _twin_repr(twin_obj):
    name = type(twin_obj).__name__
    return repr(twin_obj).replace(name, name.removesuffix("Twin"), 1)


@pytest.mark.parametrize("record, twin, args, required, bad, last", RECORD_CASES,
                         ids=[case[0].__name__ for case in RECORD_CASES])
def test_record_matches_its_frozen_dataclass_twin(record, twin, args, required, bad, last):
    names = tuple(f.name for f in dataclasses.fields(twin))
    assert record._fields == names
    rec, ref = record(*args), twin(*args)
    assert record._values(rec) == _twin_fields(ref)
    # keywords, and defaults for every field after the required ones
    assert record(**dict(zip(names, args))) == rec
    assert _plain(record._values(record(*args[:required]))) == _twin_fields(twin(*args[:required]))
    for values in bad:
        with pytest.raises(ValueError):
            twin(*values)
        with pytest.raises(ValueError):
            record(*values)
    wrong = [(args + args, {}), (args, {"nope": 1}), (args, {names[0]: args[0]})]  # too many, unknown, repeated
    if required:
        wrong.append((args[:required - 1], {}))  # a field missing
    for wrong_args, wrong_kwargs in wrong:
        with pytest.raises(TypeError):
            twin(*wrong_args, **wrong_kwargs)
        with pytest.raises(TypeError):
            record(*wrong_args, **wrong_kwargs)
    for obj in (rec, ref):
        with pytest.raises(AttributeError):
            setattr(obj, names[0], args[0])
        with pytest.raises(AttributeError):
            delattr(obj, names[-1])
    # value semantics: ==, hash and repr over the fields, NotImplemented for another class
    assert rec == record(*args) and not rec != record(*args)
    assert rec.__eq__(ref) is NotImplemented and ref.__eq__(rec) is NotImplemented
    assert repr(rec) == _twin_repr(ref)
    try:
        want = hash(ref)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == want == hash(record(*args))
    # replace keeps every other field and runs __post_init__ again
    new = replace(rec, **{names[-1]: last})
    assert record._values(new) == _twin_fields(dataclasses.replace(ref, **{names[-1]: last}))
    assert record._values(new)[:-1] == record._values(rec)[:-1] and new != rec
    if bad:
        with pytest.raises(ValueError):
            dataclasses.replace(ref, **dict(zip(names, bad[0])))
        with pytest.raises(ValueError):
            replace(rec, **dict(zip(names, bad[0])))


def test_record_equality_over_arrays_matches_a_dataclass():
    # tuple equality: the same array objects compare equal, distinct ones are ambiguous
    xs = np.linspace(0.0, 1.0, 3)
    args = ("curve", xs, xs, np.zeros((3, 3)), 0.1)
    assert PlaneSpectrum(*args) == PlaneSpectrum(*args)
    assert PlaneSpectrumTwin(*args) == PlaneSpectrumTwin(*args)
    for cls in (PlaneSpectrum, PlaneSpectrumTwin):
        with pytest.raises(ValueError):
            cls(*args) == cls("curve", xs.copy(), *args[2:])  # noqa: B015
        with pytest.raises(TypeError):
            hash(cls(*args))
    # the default metadata is empty and immutable; summary() copies it with dict()
    meta = PlaneSpectrum(*args).metadata
    assert dict(meta) == PlaneSpectrumTwin(*args).metadata == {}
    with pytest.raises(TypeError):
        meta["k"] = "v"


def test_mapspec_compares_by_identity_and_replace_keeps_fields():
    f = MapSpec(name="f", dim=1, evaluator=abs, homogeneous=True)
    g = replace(f, name="g")
    assert f == f and f != replace(f) and hash(f) == object.__hash__(f)
    assert (g.name, g.dim, g.evaluator, g.homogeneous, g.jacobian, g.sphere_matrix) == ("g", 1, abs, True, None, None)
    assert repr(g) == "MapSpec(g, dim=1)"
