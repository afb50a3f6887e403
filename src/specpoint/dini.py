"""One dimensional engine: derivative quadruples, spectral intervals and the bifurcation set at 0.

For a real function the local spectrum at a point is read off the four
one-sided limit extremes of difference quotients:

    full spectrum       = closed interval from the smallest to the largest
                          of the four (empty when all four are +inf, or all
                          four are -inf)
    point-spectrum part = union of the closed interval spanned by the two
                          left extremes and the one spanned by the two right
                          extremes, dropping a side whose endpoints are both
                          infinite of the same sign

The numerical estimator samples difference quotients on a two-sided
geometric grid h = +-h0 * ratio^k and takes running extrema over the tail
half of the grid only; early large-h quotients otherwise poison the
estimate for oscillatory maps.  Maps that declare an inverse-argument
oscillation hint get extra samples snapped to the phases h = 1/(pi/2 + 2 pi m)
and h = 1/(3 pi/2 + 2 pi m), where a blind geometric grid provably misses
the oscillation extremes.

Divergence handling is a documented heuristic with no certification: any
tail quotient beyond the configurable threshold flags the corresponding
extreme as infinite, and a side whose quotients all share one sign while
its extreme diverges has both components flagged (monotone blow-up).

Pure Python: maps are evaluated one float at a time, and the one
dimensional builtins are scalar `math` functions next to their exact
quadruples.
"""
from __future__ import annotations

import math

from .core import (
    DiniQuad,
    EvaluationError,
    MapSpec,
    NEG_INF,
    POS_INF,
    PreconditionError,
    RealIntervalSet,
    Record,
    UnsupportedError,
)

MAX_STEPS = 4096  # grid steps: the same cap as classify --res and bifurcate --angles


# ---------------------------------------------------------------------------
# the one dimensional builtins


def _sin_inv(x: float) -> float:
    """sin(1/x), 0 at x = 0, and nan where 1/x overflows (numpy's sin(inf))."""
    y = 1.0 / x if x else 0.0
    return math.sin(y) if math.isfinite(y) else math.nan


def _dini_sqrt_abs(p: float) -> DiniQuad:
    if p == 0.0:
        return DiniQuad(NEG_INF, NEG_INF, POS_INF, POS_INF)
    d = math.copysign(1.0, p) / (2.0 * math.sqrt(abs(p)))
    return DiniQuad(d, d, d, d)


def _dini_signed_sqrt_abs(p: float) -> DiniQuad:
    if p == 0.0:
        return DiniQuad(POS_INF, POS_INF, POS_INF, POS_INF)
    d = 1.0 / (2.0 * math.sqrt(abs(p)))
    return DiniQuad(d, d, d, d)


def _dini_sqrt_abs_sin_inv(p: float) -> DiniQuad:
    if p == 0.0:
        return DiniQuad(NEG_INF, POS_INF, NEG_INF, POS_INF)
    if p * p == 0.0:
        raise PreconditionError(f"the exact quadruple of sqrt_abs_sin_inv needs p * p > 0, got p = {p!r}")
    r = math.sqrt(abs(p))
    d = math.copysign(1.0, p) * math.sin(1.0 / p) / (2.0 * r) - r * math.cos(1.0 / p) / (p * p)
    return DiniQuad(d, d, d, d)


def _dini_xsq_sin_inv(p: float) -> DiniQuad:
    if p == 0.0:
        return DiniQuad(0.0, 0.0, 0.0, 0.0)
    if not math.isfinite(1.0 / p):
        raise PreconditionError(f"the exact quadruple of xsq_sin_inv needs a finite 1 / p, got p = {p!r}")
    d = 2.0 * p * math.sin(1.0 / p) - math.cos(1.0 / p)
    return DiniQuad(d, d, d, d)


# name -> (scalar evaluator, exact quadruple, inverse-argument oscillation hint)
BUILTINS_1D = {
    "sqrt_abs": (lambda x: math.sqrt(abs(x)), _dini_sqrt_abs, False),
    "signed_sqrt_abs": (
        lambda x: math.copysign(math.sqrt(abs(x)), x) if x else 0.0, _dini_signed_sqrt_abs, False
    ),
    "sqrt_abs_sin_inv": (lambda x: math.sqrt(abs(x)) * _sin_inv(x), _dini_sqrt_abs_sin_inv, True),
    "xsq_sin_inv": (lambda x: x * x * _sin_inv(x), _dini_xsq_sin_inv, True),
}


def builtin_1d(name: str) -> MapSpec:
    """A one dimensional builtin with its scalar evaluator (no numpy); its name is one of `core.NAMES_1D`."""
    ev, quad, hint = BUILTINS_1D[name]
    return MapSpec(name=name, dim=1, evaluator=ev, dini_exact=quad, inv_oscillation_hint=hint)


class DiniEstimate(Record):
    """Estimated quadruple plus which components were divergence-flagged."""

    quad: DiniQuad
    flagged: tuple[bool, bool, bool, bool]
    tail_h: tuple[float, float]  # (smallest, largest) |h| used for extrema


def dini_exact(f: MapSpec, p: float) -> DiniQuad:
    """Exact quadruple from the map's registered provider."""
    if f.dim != 1:
        raise PreconditionError("exact derivative quadruples are one dimensional")
    if f.dini_exact is None:
        raise UnsupportedError(f"map {f.name} has no exact derivative provider")
    return f.dini_exact(float(p))


def _osc_snaps(tail: list[float], h0: float) -> list[float]:
    """Sample points snapped to the oscillation extremes nearest each tail h."""
    snaps = []
    for phase in (0.5 * math.pi, 1.5 * math.pi):
        for h in tail:
            # round(v, 0) rounds half to even and keeps an infinite v, as np.round does
            m = max(1.0, round((1.0 / h - phase) / (2.0 * math.pi), 0))
            snaps.append(1.0 / (phase + 2.0 * math.pi * m))
    return [s for s in snaps if 0.0 < s <= h0]


def _flag_side(quotients: list[float], threshold: float):
    lo = min(quotients)
    hi = max(quotients)
    lo_flag = hi_flag = False
    if hi > threshold:
        hi, hi_flag = POS_INF, True
    elif hi < -threshold:
        hi, hi_flag = NEG_INF, True
    if lo < -threshold:
        lo, lo_flag = NEG_INF, True
    elif lo > threshold:
        lo, lo_flag = POS_INF, True
    # monotone blow-up: one extreme diverges and the whole tail shares its sign
    if hi == POS_INF and not lo_flag and lo > 0.0:
        lo, lo_flag = POS_INF, True
    if lo == NEG_INF and not hi_flag and hi < 0.0:
        hi, hi_flag = NEG_INF, True
    return lo, hi, lo_flag, hi_flag


def _evaluate(f: MapSpec, xs: list[float]) -> list[float]:
    """f at each of xs.

    Every x is finite: `check_estimator` keeps p +- h0, and so each grid point, finite.
    """
    return [float(f.evaluator(x)) for x in xs]


def check_estimator(p: float, h0: float, ratio: float, steps: int, divergence_threshold: float) -> None:
    """The preconditions of `dini_estimate` on its grid; spec1d checks them in every mode."""
    if not 0.0 < h0 < POS_INF:
        raise PreconditionError(f"h0 must be positive and finite, got {h0!r}")
    if not 0.0 < ratio < 1.0:
        raise PreconditionError(f"ratio must lie in (0, 1), got {ratio!r}")
    if not 8 <= steps <= MAX_STEPS:
        raise PreconditionError(f"steps must lie in [8, {MAX_STEPS}], got {steps!r}")
    if not h0 * ratio ** (steps - 1) > 0.0:
        raise PreconditionError("the smallest step h0 * ratio^(steps - 1) underflows to 0")
    if not divergence_threshold > 0.0:
        raise PreconditionError(f"divergence threshold must be positive, got {divergence_threshold!r}")
    if not (math.isfinite(p - h0) and math.isfinite(p + h0)):
        raise PreconditionError(f"the grid points p +- h0 must be finite, got p = {p!r} and h0 = {h0!r}")


def dini_estimate(
    f: MapSpec,
    p: float,
    h0: float = 0.1,
    ratio: float = 0.6,
    steps: int = 60,
    divergence_threshold: float = 1e6,
) -> DiniEstimate:
    """Numerical quadruple from two-sided geometric difference quotients.

    A divergence threshold of inf turns divergence detection off.
    """
    if f.dim != 1:
        raise PreconditionError("difference-quotient estimation is one dimensional")
    p = float(p)
    check_estimator(p, h0, ratio, steps, divergence_threshold)
    (fp,) = _evaluate(f, [p])
    if not math.isfinite(fp):
        raise EvaluationError(f"non-finite value from {f.name}")

    tail = [h0 * ratio**k for k in range(steps // 2, steps)]
    if f.inv_oscillation_hint:
        tail = sorted(set(tail).union(_osc_snaps(tail, h0)))

    sides = []
    flags = []
    for sign in (-1.0, 1.0):
        hs = [sign * t for t in tail]
        vals = _evaluate(f, [p + h for h in hs])
        for h, v in zip(hs, vals):
            if not math.isfinite(v):
                raise EvaluationError(f"evaluation failed at h={h!r}: non-finite value from {f.name}")
        quot = [(v - fp) / h for h, v in zip(hs, vals)]
        lo, hi, lo_flag, hi_flag = _flag_side(quot, divergence_threshold)
        sides.append((lo, hi))
        flags.extend([lo_flag, hi_flag])

    (dml, dmh), (dpl, dph) = sides
    return DiniEstimate(
        quad=DiniQuad(dml, dmh, dpl, dph),
        flagged=tuple(flags),
        tail_h=(min(tail), max(tail)),
    )


def spectrum_1d(q: DiniQuad) -> RealIntervalSet:
    """Full spectrum: the closed interval spanned by all four extremes.

    Empty exactly when the smallest and largest extremes are infinite with
    the same sign (all four are +inf, or all four are -inf).
    """
    vals = q.as_tuple()
    lo, hi = min(vals), max(vals)
    return RealIntervalSet.from_pairs([(lo, hi)])


def point_spectrum_1d(q: DiniQuad) -> RealIntervalSet:
    """Point-spectrum part: one closed interval per side, normalized."""
    return RealIntervalSet.from_pairs(
        [(q.d_minus_low, q.d_minus_high), (q.d_plus_low, q.d_plus_high)]
    )


def sigma_distances(f: MapSpec, lams) -> list[float]:
    """dist(lam, Sigma) for each real lam, Sigma the point-spectrum part of f's exact quadruple at 0.

    For f(0) = 0, Sigma is the bifurcation set of lam x = f(x): the limits of f(x) / x as x -> 0
    from one side fill the interval between that side's extremes (intermediate value theorem).
    So each distance is the liminf as r -> 0 of min(|lam - f(r) / r|, |lam - f(-r) / (-r)|),
    and inf where Sigma is empty.
    """
    if abs(f.evaluator(0.0)) > 1e-12:  # the tolerance of `estimators.bifurcation_scan`
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    sigma = point_spectrum_1d(dini_exact(f, 0.0)).intervals
    return [min((max(lo - lam, lam - hi, 0.0) for lo, hi in sigma), default=math.inf) for lam in lams]
