"""Shared domain types for local spectra of continuous maps.

The `Record` base of every frozen value type, extended reals (floats with
+-inf, never NaN) and their JSON form, normalized sets of closed
real intervals, the four-derivative quadruple used by the one dimensional
engine, complex scalar parsing, the verdicts of bifurcation scans, the
`MapSpec` map description with the names of the one dimensional builtins,
and the exception taxonomy shared by every engine.  Pure Python: the
scalar action on (re, im) coordinate pairs lives in `maps.scalar_action`.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

POS_INF = math.inf
NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# frozen records


class Record:
    """Base of the frozen value types: what `@dataclass(frozen=True)` gave them, with no build at import.

    The fields are the annotated class attributes, in order, and a class
    attribute is a field's default.  `__post_init__` runs once the fields
    are set, and assigning a field raises AttributeError.  ==, hash and
    repr go over the fields as a dataclass's do.  (`dataclasses` compiles
    source for every class at import, and imports `inspect`.)
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields) or not set(kwargs) <= set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {len(args)} and {sorted(kwargs)}")
        values = dict(zip(cls._fields, args), **kwargs)
        for name in cls._fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} is missing the field {name!r}")
        self.__dict__.update({name: values.get(name, getattr(cls, name, None)) for name in cls._fields})
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: Record, **changes) -> Record:
    """A copy of record with some fields changed; `__post_init__` runs again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


# ---------------------------------------------------------------------------
# errors


class SpecpointError(Exception):
    """Base class for all library errors."""


class DomainError(SpecpointError):
    """A point that no map takes: not finite, or with the wrong number of coordinates."""


class EvaluationError(SpecpointError):
    """An evaluator produced a non finite value; never silently propagated."""


class UnsupportedError(SpecpointError):
    """A requested exact facility is not registered for this map."""


class PreconditionError(SpecpointError):
    """A documented precondition of an operation does not hold."""


class NumericError(SpecpointError):
    """A numeric kernel (eigenvalues, refinement) failed to converge."""


class UsageError(SpecpointError):
    """Bad command line or expression input."""


# ---------------------------------------------------------------------------
# extended reals


def ext(v) -> float:
    """Validate a value as an extended real (floats with +-inf, no NaN)."""
    v = float(v)
    if math.isnan(v):
        raise ValueError("NaN is not an extended real")
    return v


def ext_to_json(v: float):
    """Serialize an extended real: finite values as numbers, infinities as strings."""
    v = ext(v)
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return v


def _fmt_endpoint(v: float) -> str:
    if v == POS_INF:
        return "+inf"
    if v == NEG_INF:
        return "-inf"
    return f"{v:g}"


# ---------------------------------------------------------------------------
# interval sets


class RealIntervalSet(Record):
    """A normalized finite union of closed intervals of the real line.

    Endpoints are extended reals; every stored interval is nonempty as a
    subset of the reals, so degenerate pairs like [+inf, +inf] are dropped
    at construction.  Intervals are pairwise disjoint and sorted.
    """

    intervals: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "RealIntervalSet":
        cleaned = []
        for lo, hi in pairs:
            lo, hi = ext(lo), ext(hi)
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: ({lo}, {hi})")
            if lo == hi and math.isinf(lo):
                continue  # empty once intersected with the reals
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    def display(self) -> str:
        if not self.intervals:
            return "[]"
        parts = []
        for lo, hi in self.intervals:
            if lo == hi:
                parts.append("{" + _fmt_endpoint(lo) + "}")
            else:
                left = "(-inf," if lo == NEG_INF else f"[{_fmt_endpoint(lo)},"
                right = "+inf)" if hi == POS_INF else f"{_fmt_endpoint(hi)}]"
                parts.append(left + right)
        return " u ".join(parts)

    def to_json(self) -> dict:
        return {
            "intervals": [[ext_to_json(lo), ext_to_json(hi)] for lo, hi in self.intervals],
            "display": self.display(),
        }


# ---------------------------------------------------------------------------
# Dini quadruple


class DiniQuad(Record):
    """The four one-sided limit extremes of difference quotients at a point.

    Field order: (left lower, left upper, right lower, right upper).
    Each side satisfies lower <= upper; values are extended reals.
    """

    d_minus_low: float
    d_minus_high: float
    d_plus_low: float
    d_plus_high: float

    def __post_init__(self):
        for v in self.as_tuple():
            ext(v)
        if self.d_minus_low > self.d_minus_high or self.d_plus_low > self.d_plus_high:
            raise ValueError(f"quadruple sides out of order: {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d_minus_low, self.d_minus_high, self.d_plus_low, self.d_plus_high)

    def to_json(self) -> dict:
        return {
            "d_minus_low": ext_to_json(self.d_minus_low),
            "d_minus_high": ext_to_json(self.d_minus_high),
            "d_plus_low": ext_to_json(self.d_plus_low),
            "d_plus_high": ext_to_json(self.d_plus_high),
        }


# ---------------------------------------------------------------------------
# complex scalars


def as_complex(lam) -> complex:
    """Accept complex, real, or an (a, b) pair as a tuple, list or array."""
    if isinstance(lam, (tuple, list)) or getattr(lam, "ndim", 0):
        pair = lam.reshape(-1).tolist() if hasattr(lam, "reshape") else list(lam)
        if len(pair) != 2:
            raise ValueError(f"expected an (a, b) pair, got {lam!r}")
        return complex(float(pair[0]), float(pair[1]))
    return complex(lam)


# ---------------------------------------------------------------------------
# bifurcation scan verdicts

UNDECIDED_FACTOR = 2.0  # scan residuals in [tol, UNDECIDED_FACTOR * tol) are undecided


def scan_verdicts(normalized, tol: float):
    """candidate / undecided / rejected from normalized residual profiles, one row per lambda.

    The verdict reads the smallest-radius residual alone (the last of its
    row): below tol it is a candidate, whatever the larger radii read.
    Residuals landing in the gray zone [tol, UNDECIDED_FACTOR * tol) are
    undecided: sampled minimization only certifies upper bounds, so
    near-threshold values cannot be rejected.  Returns the candidate mask
    and the verdicts, as tuples.
    """
    mask, verdicts = [], []
    for row in normalized:
        last = row[-1]
        keep = bool(last < tol)
        mask.append(keep)
        verdicts.append("candidate" if keep else "undecided" if last < UNDECIDED_FACTOR * tol else "rejected")
    return tuple(mask), tuple(verdicts)


# ---------------------------------------------------------------------------
# map descriptions

# the one dimensional builtins of `dini`, named here so that `cli` and `maps` import dini only to build one
NAMES_1D = ("signed_sqrt_abs", "sqrt_abs", "sqrt_abs_sin_inv", "xsq_sin_inv")


class MapSpec(Record):  # built by `maps` for the array engines, by `dini` for the 1-D builtins, and for a user map
    """A map based at the origin, with what it declares of itself.

    jacobian is p -> f'(p), the derivative of a C^1 map.  sphere_matrix is
    r -> A(r) with f(r u) = r A(r) u for every unit u: a map that is linear
    on each sphere about the origin (a linear map, A(r) its matrix, and
    norm_times_x, A(r) = r I), whose sphere extrema are then exact.
    """

    name: str
    dim: int
    evaluator: Callable
    homogeneous: bool = False
    complex_pairs: bool = False
    dini_exact: Optional[Callable] = None
    jacobian: Optional[Callable] = None
    sphere_matrix: Optional[Callable] = None
    inv_oscillation_hint: bool = False

    __eq__ = object.__eq__  # identity: evaluators and arrays have no useful equality
    __hash__ = object.__hash__

    def __repr__(self):  # factory arguments are baked into the name
        return f"MapSpec({self.name}, dim={self.dim})"
