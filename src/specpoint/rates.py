"""Symbolic compactness-rate calculus over operator expressions, pure Python.

Operator expressions are trees of atoms with known local compactness rates
(alpha = worst-case expansion of the noncompactness measure, omega =
best-case), combined by sums, compositions, and scalar multiples.  One
bottom-up pass propagates interval bounds through the standard rules:

    scale      alpha(c f) = |c| alpha(f),        omega(c f) = |c| omega(f)
    sum        |alpha(f) - alpha(g)| <= alpha(f+g) <= alpha(f) + alpha(g)
               omega(f) - alpha(g) <= omega(f+g) <= omega(f) + alpha(g)
    compose    alpha(g o f) <= alpha(g) alpha(f)
               omega(g) omega(f) <= omega(g o f) <= alpha(g) omega(f)
    order      omega <= alpha, both nonnegative
    compact    locally compact atoms have alpha = omega = 0

`parse_expr` reads expressions in the plain-text grammar written out above
`_TOKEN`.  The module imports no numpy, so `specpoint mnc` runs on bare
Python.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .core import POS_INF, UsageError, ext, ext_to_json


# ---------------------------------------------------------------------------
# intervals of nonnegative extended reals


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = ext(self.lo), ext(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: ({lo}, {hi})")

    @classmethod
    def exact(cls, v: float) -> "Interval":
        return cls(float(v), float(v))

    @classmethod
    def unknown(cls) -> "Interval":
        return cls(0.0, POS_INF)

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self):
        return [ext_to_json(self.lo), ext_to_json(self.hi)]


def _iv(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (tuple, list)):
        return Interval(float(x[0]), float(x[1]))
    if x is None:
        return Interval.unknown()
    return Interval.exact(float(x))


def _mul_bound(a: float, b: float) -> float:
    # 0 * inf = 0: a vanishing rate forces the composite rate to vanish
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return POS_INF
    return a * b


def _sub_floor0(a: float, b: float) -> float:
    if math.isinf(b):
        return 0.0
    if math.isinf(a):
        return POS_INF
    return max(0.0, a - b)


def _add_bound(a: float, b: float) -> float:
    if math.isinf(a) or math.isinf(b):
        return POS_INF
    return a + b


# ---------------------------------------------------------------------------
# operator expressions


class OperatorExpr:
    """Base class; atoms carry rates, combinators carry children."""


@dataclass(frozen=True)
class Identity(OperatorExpr):
    pass


@dataclass(frozen=True)
class ScalarMultiple(OperatorExpr):
    c: float


@dataclass(frozen=True)
class IsometryOntoCodim(OperatorExpr):
    k: int


@dataclass(frozen=True)
class CompactLinear(OperatorExpr):
    pass


@dataclass(frozen=True)
class FiniteRank(OperatorExpr):
    r: int


@dataclass(frozen=True)
class LocallyCompactNonlinear(OperatorExpr):
    pass


@dataclass(frozen=True)
class KnownRates(OperatorExpr):
    alpha: Interval = None  # type: ignore[assignment]
    omega: Interval = None  # type: ignore[assignment]
    d: Optional[Interval] = None
    q: Optional[Interval] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _iv(self.alpha))
        object.__setattr__(self, "omega", _iv(self.omega))
        if self.d is not None:
            object.__setattr__(self, "d", _iv(self.d))
        if self.q is not None:
            object.__setattr__(self, "q", _iv(self.q))


@dataclass(frozen=True)
class Sum(OperatorExpr):
    left: OperatorExpr
    right: OperatorExpr


@dataclass(frozen=True)
class Compose(OperatorExpr):
    outer: OperatorExpr
    inner: OperatorExpr


@dataclass(frozen=True)
class Scale(OperatorExpr):
    c: float
    inner: OperatorExpr


@dataclass(frozen=True)
class RateBounds:
    """Derived intervals for the two compactness rates plus the rule trace."""

    alpha: Interval
    omega: Interval
    derivation: tuple

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "omega": self.omega.to_json(),
            "derivation": list(self.derivation),
        }


def _tighten(alpha: Interval, omega: Interval, trace: list):
    """Apply omega <= alpha and nonnegativity, recording when they bite."""
    a_lo, a_hi = max(alpha.lo, 0.0), alpha.hi
    w_lo, w_hi = max(omega.lo, 0.0), omega.hi
    if w_hi > a_hi:
        w_hi = a_hi
        trace.append("order:omega<=alpha")
    if a_lo < w_lo:
        a_lo = w_lo
        trace.append("order:alpha>=omega")
    return Interval(a_lo, a_hi), Interval(min(w_lo, w_hi), w_hi)


def mnc_bounds(e: OperatorExpr) -> RateBounds:
    """Tightest rate intervals derivable in one bottom-up pass of the rules."""
    trace: list[str] = []

    def walk(node: OperatorExpr) -> tuple[Interval, Interval]:
        if isinstance(node, Identity):
            trace.append("atom:identity")
            return Interval.exact(1.0), Interval.exact(1.0)
        if isinstance(node, ScalarMultiple):
            trace.append("atom:scalar-multiple")
            c = abs(node.c)
            return Interval.exact(c), Interval.exact(c)
        if isinstance(node, IsometryOntoCodim):
            trace.append("atom:isometry")
            return Interval.exact(1.0), Interval.exact(1.0)
        if isinstance(node, (CompactLinear, FiniteRank, LocallyCompactNonlinear)):
            trace.append("atom:locally-compact(alpha=omega=0)")
            return Interval.exact(0.0), Interval.exact(0.0)
        if isinstance(node, KnownRates):
            if node.alpha == Interval.unknown() and node.omega == Interval.unknown():
                trace.append("atom:no rule")
            else:
                trace.append("atom:known-rates")
            return node.alpha, node.omega
        if isinstance(node, Scale):
            a, w = walk(node.inner)
            c = abs(node.c)
            trace.append("rule:scale")
            return (
                Interval(c * a.lo, _mul_bound(c, a.hi)),
                Interval(c * w.lo, _mul_bound(c, w.hi)),
            )
        if isinstance(node, Sum):
            a1, w1 = walk(node.left)
            a2, w2 = walk(node.right)
            trace.append("rule:sum.alpha.two-sided")
            a_lo = max(0.0, _sub_floor0(a1.lo, a2.hi), _sub_floor0(a2.lo, a1.hi))
            a_hi = _add_bound(a1.hi, a2.hi)
            trace.append("rule:sum.omega.sandwich")
            w_lo = max(0.0, _sub_floor0(w1.lo, a2.hi), _sub_floor0(w2.lo, a1.hi))
            w_hi = min(_add_bound(w1.hi, a2.hi), _add_bound(w2.hi, a1.hi))
            return Interval(a_lo, a_hi), Interval(w_lo, max(w_lo, w_hi))
        if isinstance(node, Compose):
            ag, wg = walk(node.outer)
            af, wf = walk(node.inner)
            trace.append("rule:compose.alpha.product")
            a_hi = _mul_bound(ag.hi, af.hi)
            trace.append("rule:compose.omega.sandwich")
            w_lo = _mul_bound(wg.lo, wf.lo)
            w_hi = _mul_bound(ag.hi, wf.hi)
            return Interval(0.0, a_hi), Interval(min(w_lo, w_hi), max(w_lo, w_hi))
        raise UsageError(f"unknown expression node {node!r}")

    alpha, omega = walk(e)
    alpha, omega = _tighten(alpha, omega, trace)
    return RateBounds(alpha=alpha, omega=omega, derivation=tuple(trace))


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr    := term ('+' term)*
#   term    := factor (('o' | '∘') factor)*        composition binds tighter
#   factor  := atom | 'scale(' number ',' expr ')' | '(' expr ')'
#   atom    := Identity | ScalarMultiple(c) | IsometryOntoCodim(k)
#            | CompactLinear | FiniteRank(r) | LocallyCompactNonlinear
#            | KnownRates(alpha=V, omega=V [, d=V, q=V])
#   V       := number | number '..' number | 'inf'
#
# Compose(a, b) applies b first: 'g o f' is the map x -> g(f(x)).

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[-+]?(?:\d+\.\d+|\d+|\.\d+)(?:[eE][-+]?\d+)?|inf)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\.\.|[()+,=∘]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise UsageError(f"bad expression near {text[pos:pos+12]!r}")
            break
        if m.lastgroup == "num" or m.group("num"):
            tok = m.group("num")
            out.append(("num", POS_INF if tok == "inf" else float(tok)))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


# the fixed atoms: name -> (node, cast of its one argument, or None for a bare atom)
_ATOMS = {
    "Identity": (Identity, None),
    "CompactLinear": (CompactLinear, None),
    "LocallyCompactNonlinear": (LocallyCompactNonlinear, None),
    "ScalarMultiple": (ScalarMultiple, float),
    "IsometryOntoCodim": (IsometryOntoCodim, int),
    "FiniteRank": (FiniteRank, int),
}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if kind is not None and k != kind:
            raise UsageError(f"expected {kind}, found {v!r}")
        if value is not None and v != value:
            raise UsageError(f"expected {value!r}, found {v!r}")
        self.i += 1
        return v

    def parse(self) -> OperatorExpr:
        e = self.expr()
        if self.peek() != (None, None):
            raise UsageError(f"trailing input at {self.peek()[1]!r}")
        return e

    def expr(self) -> OperatorExpr:
        node = self.term()
        while self.peek() == ("op", "+"):
            self.take()
            node = Sum(node, self.term())
        return node

    def term(self) -> OperatorExpr:
        node = self.factor()
        while self.peek() in (("name", "o"), ("op", "∘")):
            self.take()
            node = Compose(node, self.factor())
        return node

    def value(self) -> Interval:
        v = self.take("num")
        if self.peek() == ("op", ".."):
            self.take()
            hi = self.take("num")
            try:
                return Interval(v, hi)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        return Interval.exact(v)

    def factor(self) -> OperatorExpr:
        k, v = self.peek()
        if k == "op" and v == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if k != "name":
            raise UsageError(f"expected an atom, found {v!r}")
        name = self.take("name")
        if name == "scale":
            self.take("op", "(")
            c = self.take("num")
            self.take("op", ",")
            inner = self.expr()
            self.take("op", ")")
            return Scale(c, inner)
        if name in _ATOMS:
            node, cast = _ATOMS[name]
            if cast is None:
                return node()
            self.take("op", "(")
            arg = self.take("num")
            if cast is int and not (arg >= 0.0 and arg.is_integer()):
                raise UsageError(f"{name} takes a nonnegative integer, got {arg!r}")
            self.take("op", ")")
            return node(cast(arg))
        if name == "KnownRates":
            self.take("op", "(")
            fields: dict[str, Interval] = {}
            while True:
                key = self.take("name")
                self.take("op", "=")
                fields[key] = self.value()
                if self.peek() == ("op", ","):
                    self.take()
                    continue
                break
            self.take("op", ")")
            bad = set(fields) - {"alpha", "omega", "d", "q"}
            if bad:
                raise UsageError(f"unknown KnownRates fields {sorted(bad)}")
            return KnownRates(
                alpha=fields.get("alpha"),
                omega=fields.get("omega"),
                d=fields.get("d"),
                q=fields.get("q"),
            )
        raise UsageError(f"unknown atom {name!r}")


def parse_expr(text: str) -> OperatorExpr:
    """Parse the plain-text operator expression grammar (written out above `_TOKEN`)."""
    return _Parser(_tokenize(text)).parse()


