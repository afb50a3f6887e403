"""Shared domain types for local spectra of continuous maps.

Extended-real conventions (sup of nothing is -inf, inf of nothing is +inf),
normalized sets of closed real intervals, the four-derivative quadruple used
by the one dimensional engine, complex pair utilities, and the exception
taxonomy shared by every engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

POS_INF = math.inf
NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# errors


class SpecpointError(Exception):
    """Base class for all library errors."""


class DomainError(SpecpointError):
    """A point lies outside the domain of a map."""


class EvaluationError(SpecpointError):
    """An evaluator produced a non finite value; never silently propagated."""


class UnsupportedError(SpecpointError):
    """A requested exact facility is not registered for this map."""


class PreconditionError(SpecpointError):
    """A documented precondition of an operation does not hold."""


class AdmissibilityError(PreconditionError):
    """A boundary curve passes too close to the origin for a degree count."""


class SolverError(SpecpointError):
    """An iterative solver stagnated; the message carries the best residual."""


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


def sup_of(values: Iterable[float], default: float = NEG_INF) -> float:
    """Supremum with the empty convention sup {} = -inf."""
    out = default
    for v in values:
        v = ext(v)
        if v > out:
            out = v
    return out


def inf_of(values: Iterable[float], default: float = POS_INF) -> float:
    """Infimum with the empty convention inf {} = +inf."""
    out = default
    for v in values:
        v = ext(v)
        if v < out:
            out = v
    return out


def ext_to_json(v: float):
    """Serialize an extended real: finite values as numbers, infinities as strings."""
    v = ext(v)
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return v


def ext_from_json(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return POS_INF
        if v == "-inf":
            return NEG_INF
        raise ValueError(f"bad extended real literal {v!r}")
    return ext(v)


def _fmt_endpoint(v: float) -> str:
    if v == POS_INF:
        return "+inf"
    if v == NEG_INF:
        return "-inf"
    return f"{v:g}"


# ---------------------------------------------------------------------------
# interval sets


@dataclass(frozen=True)
class RealIntervalSet:
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

    @classmethod
    def empty(cls) -> "RealIntervalSet":
        return cls(())

    @classmethod
    def reals(cls) -> "RealIntervalSet":
        return cls(((NEG_INF, POS_INF),))

    @classmethod
    def point(cls, x: float) -> "RealIntervalSet":
        return cls.from_pairs([(x, x)])

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_all_reals(self) -> bool:
        return self.intervals == ((NEG_INF, POS_INF),)

    def contains(self, x: float) -> bool:
        x = float(x)
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def hull(self) -> "RealIntervalSet":
        """Smallest closed interval containing the set."""
        if self.is_empty:
            return RealIntervalSet.empty()
        lo = min(p[0] for p in self.intervals)
        hi = max(p[1] for p in self.intervals)
        return RealIntervalSet.from_pairs([(lo, hi)])

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


@dataclass(frozen=True)
class DiniQuad:
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

    def scaled(self, c: float) -> "DiniQuad":
        """Quadruple of c*f: components scale, and swap within each side for c < 0."""
        c = float(c)
        if c == 0.0:
            return DiniQuad(0.0, 0.0, 0.0, 0.0)
        if c > 0:
            a, b, e, d = (c * v for v in self.as_tuple())
        else:
            a = c * self.d_minus_high
            b = c * self.d_minus_low
            e = c * self.d_plus_high
            d = c * self.d_plus_low
        return DiniQuad(a, b, e, d)

    def plus_const(self, c: float) -> "DiniQuad":
        """Quadruple of (c*id + f): every quotient shifts by c."""
        c = float(c)
        return DiniQuad(*(c + v for v in self.as_tuple()))

    def reflected_about(self, lam: float) -> "DiniQuad":
        """Quadruple of (lam*id - f): negation swaps lower/upper on each side."""
        lam = float(lam)
        return DiniQuad(
            lam - self.d_minus_high,
            lam - self.d_minus_low,
            lam - self.d_plus_high,
            lam - self.d_plus_low,
        )

    def to_json(self) -> dict:
        return {
            "d_minus_low": ext_to_json(self.d_minus_low),
            "d_minus_high": ext_to_json(self.d_minus_high),
            "d_plus_low": ext_to_json(self.d_plus_low),
            "d_plus_high": ext_to_json(self.d_plus_high),
        }


# ---------------------------------------------------------------------------
# complex pair utilities
#
# Points live in dense real coordinate tuples; a complex number a+ib is the
# pair (a, b).  Spaces with a complex scalar action are real spaces of even
# dimension whose coordinates pair up as (re, im, re, im, ...).


def cmul(p, q) -> np.ndarray:
    """Complex product of pairs: (a,b)*(c,d) = (ac-bd, ad+bc), broadcasting."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a, b = p[..., 0], p[..., 1]
    c, d = q[..., 0], q[..., 1]
    return np.stack([a * c - b * d, a * d + b * c], axis=-1)


def as_complex(lam) -> complex:
    """Accept complex, real, or an (a, b) pair."""
    if isinstance(lam, (tuple, list, np.ndarray)):
        arr = np.asarray(lam, dtype=float).reshape(-1)
        if arr.size != 2:
            raise ValueError(f"expected an (a, b) pair, got {lam!r}")
        return complex(arr[0], arr[1])
    return complex(lam)


def complex_scale(lam, x) -> np.ndarray:
    """Multiply every (re, im) coordinate pair of x by the complex scalar lam."""
    lam = as_complex(lam)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("complex scalar action needs an even last dimension")
    shape = x.shape
    pairs = x.reshape(shape[:-1] + (shape[-1] // 2, 2))
    z = pairs[..., 0] + 1j * pairs[..., 1]
    z = lam * z
    out = np.stack([z.real, z.imag], axis=-1)
    return out.reshape(shape)
