"""Symbolic compactness-rate calculus over operator expressions, pure Python.

Operator expressions combine atoms with known local compactness rates
(alpha = worst-case expansion of the noncompactness measure, omega =
best-case) by sums, compositions, and scalar multiples.  The parser applies
each rule as soon as it has read the rule's operands, so one pass over the
text propagates interval bounds through the standard rules:

    scale      alpha(c f) = |c| alpha(f),        omega(c f) = |c| omega(f)
    sum        |alpha(f) - alpha(g)| <= alpha(f+g) <= alpha(f) + alpha(g)
               omega(f) - alpha(g) <= omega(f+g) <= omega(f) + alpha(g)
    compose    alpha(g o f) <= alpha(g) alpha(f)
               omega(g) omega(f) <= omega(g o f) <= alpha(g) omega(f)
    order      omega <= alpha, both nonnegative
    compact    locally compact atoms have alpha = omega = 0

`mnc_bounds` reads expressions in the plain-text grammar written out above
`_TOKEN`.  The module imports no numpy, so `specpoint mnc` runs on bare
Python.
"""
from __future__ import annotations

import math
import re

from .core import POS_INF, Record, UsageError, ext, ext_to_json


# ---------------------------------------------------------------------------
# intervals of nonnegative extended reals


class Interval(Record):
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

    def to_json(self):
        return [ext_to_json(self.lo), ext_to_json(self.hi)]


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


class RateBounds(Record):
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


# ---------------------------------------------------------------------------
# the rules, each on (alpha, omega) pairs of its operands


def _scale(c: float, inner, trace: list):
    a, w = inner
    c = abs(c)
    trace.append("rule:scale")
    return (
        Interval(_mul_bound(c, a.lo), _mul_bound(c, a.hi)),
        Interval(_mul_bound(c, w.lo), _mul_bound(c, w.hi)),
    )


def _sum(left, right, trace: list):
    (a1, w1), (a2, w2) = left, right
    trace.append("rule:sum.alpha.two-sided")
    a_lo = max(0.0, _sub_floor0(a1.lo, a2.hi), _sub_floor0(a2.lo, a1.hi))
    a_hi = _add_bound(a1.hi, a2.hi)
    trace.append("rule:sum.omega.sandwich")
    w_lo = max(0.0, _sub_floor0(w1.lo, a2.hi), _sub_floor0(w2.lo, a1.hi))
    w_hi = min(_add_bound(w1.hi, a2.hi), _add_bound(w2.hi, a1.hi))
    return Interval(a_lo, a_hi), Interval(w_lo, max(w_lo, w_hi))


def _compose(outer, inner, trace: list):
    (ag, wg), (af, wf) = outer, inner
    trace.append("rule:compose.alpha.product")
    a_hi = _mul_bound(ag.hi, af.hi)
    trace.append("rule:compose.omega.sandwich")
    w_lo = _mul_bound(wg.lo, wf.lo)
    w_hi = _mul_bound(ag.hi, wf.hi)
    return Interval(0.0, a_hi), Interval(min(w_lo, w_hi), max(w_lo, w_hi))


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr    := term ('+' term)*
#   term    := factor (('o' | '∘') factor)*        composition binds tighter
#   factor  := atom | 'scale(' number ',' expr ')' | '(' expr ')'
#   atom    := Identity | ScalarMultiple(c) | IsometryOntoCodim(k)
#            | CompactLinear | FiniteRank(r) | LocallyCompactNonlinear
#            | KnownRates(alpha=V, omega=V)
#   V       := number | number '..' number | 'inf'      (nonnegative)
#
# 'g o f' applies f first: it is the map x -> g(f(x)).

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


_COMPACT = "atom:locally-compact(alpha=omega=0)"
# the fixed atoms: name -> (cast of its one argument, or None for a bare atom;
# alpha = omega, or None for the cast argument; trace label)
_ATOMS = {
    "Identity": (None, 1.0, "atom:identity"),
    "CompactLinear": (None, 0.0, _COMPACT),
    "LocallyCompactNonlinear": (None, 0.0, _COMPACT),
    "ScalarMultiple": (abs, None, "atom:scalar-multiple"),
    "IsometryOntoCodim": (int, 1.0, "atom:isometry"),
    "FiniteRank": (int, 0.0, _COMPACT),
}


class _Parser:
    """Recursive descent that returns the (alpha, omega) pair of each phrase and traces its rules."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.trace: list[str] = []

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

    def expr(self):
        rates = self.term()
        while self.peek() == ("op", "+"):
            self.take()
            rates = _sum(rates, self.term(), self.trace)
        return rates

    def term(self):
        rates = self.factor()
        while self.peek() in (("name", "o"), ("op", "∘")):
            self.take()
            rates = _compose(rates, self.factor(), self.trace)
        return rates

    def rate(self) -> float:
        v = self.take("num")
        if v < 0.0:
            raise UsageError(f"KnownRates takes nonnegative rates, got {v!r}")
        return v + 0.0  # -0 reads as 0

    def value(self) -> Interval:
        lo = hi = self.rate()
        if self.peek() == ("op", ".."):
            self.take()
            hi = self.rate()
        try:
            return Interval(lo, hi)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def factor(self):
        k, v = self.peek()
        if k == "op" and v == "(":
            self.take()
            rates = self.expr()
            self.take("op", ")")
            return rates
        if k != "name":
            raise UsageError(f"expected an atom, found {v!r}")
        name = self.take("name")
        if name == "scale":
            self.take("op", "(")
            c = self.take("num")
            self.take("op", ",")
            inner = self.expr()
            self.take("op", ")")
            return _scale(c, inner, self.trace)
        if name in _ATOMS:
            cast, rate, label = _ATOMS[name]
            if cast is not None:
                self.take("op", "(")
                arg = self.take("num")
                if cast is int and not (arg >= 0.0 and arg.is_integer()):
                    raise UsageError(f"{name} takes a nonnegative integer, got {arg!r}")
                self.take("op", ")")
                if rate is None:
                    rate = cast(arg)
            self.trace.append(label)
            return Interval.exact(rate), Interval.exact(rate)
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
            bad = set(fields) - {"alpha", "omega"}
            if bad:
                raise UsageError(f"unknown KnownRates fields {sorted(bad)}")
            alpha, omega = (fields.get(key, Interval.unknown()) for key in ("alpha", "omega"))
            if omega.lo > alpha.hi:  # no map has omega > alpha
                raise UsageError(f"KnownRates has omega >= {omega.lo!r} above alpha <= {alpha.hi!r}")
            self.trace.append("atom:no rule" if alpha == omega == Interval.unknown() else "atom:known-rates")
            return alpha, omega
        raise UsageError(f"unknown atom {name!r}")


def mnc_bounds(text: str) -> RateBounds:
    """Tightest rate intervals of the expression `text`, each rule applied as the parser reads it."""
    parser = _Parser(_tokenize(text))
    alpha, omega = parser.expr()
    if parser.peek() != (None, None):
        raise UsageError(f"trailing input at {parser.peek()[1]!r}")
    alpha, omega = _tighten(alpha, omega, parser.trace)
    return RateBounds(alpha=alpha, omega=omega, derivation=tuple(parser.trace))
