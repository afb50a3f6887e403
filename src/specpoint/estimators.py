"""Finite dimensional numerical estimators.

Growth rates d_p and q_p by sphere sampling over a shrinking radius
schedule, point-spectrum membership tests with first-class Undecided
verdicts, the smooth-map reduction to Jacobian eigenvalues, equivalence
checking under rate-null perturbations, and a bifurcation candidate
scanner for maps vanishing at the origin.

Sampling cannot certify that an infimum is zero, so membership verdicts
report Undecided whenever the per-radius minima straddle the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    NumericError,
    POS_INF,
    PreconditionError,
    as_complex,
    complex_scale,
)
from .maps import MapSpec, difference, evaluate, lambda_minus, translate_to_origin
from .numerics import golden_min, hausdorff, sphere_directions, sphere_polish
from .homog2d import SigmaCurve, _curve_values, _unit_points, sigma_curve

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RateConfig:
    r0: float = 0.1
    ratio: float = 0.5
    n_radii: int = 17
    tail: int = 6
    directions: int = 1024
    polish: bool = True
    divergence_threshold: float = 1e6
    seed: int = 0


@dataclass(frozen=True)
class LocalRates:
    """Sampled lower/upper local growth rates of f at p (0 <= d_p <= q_p)."""

    d_p: float
    q_p: float
    radii_used: tuple
    samples_per_sphere: int
    d_flagged: bool = False
    q_flagged: bool = False
    per_radius_min: tuple = ()
    per_radius_max: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.d_p <= self.q_p):
            raise ValueError(f"rates out of order: d={self.d_p}, q={self.q_p}")


def _sphere_norm_ratios(g: MapSpec, dirs: np.ndarray, r: float) -> np.ndarray:
    if g.dim == 1:
        vals = evaluate(g, r * dirs[:, 0])
        return np.abs(np.asarray(vals, dtype=float)) / r
    vals = evaluate(g, r * dirs)
    return np.linalg.norm(vals, axis=-1) / r


def _polish_ratio(g: MapSpec, r: float, u0: np.ndarray, maximize: bool) -> float:
    """Locally refine min/max of |g(r u)| / r over unit directions u."""
    if g.dim == 1:
        return _sphere_norm_ratios(g, np.array([[u0[0]]]), r)[0]
    sign = -1.0 if maximize else 1.0

    def on_sphere(u):
        return sign * float(np.linalg.norm(evaluate(g, r * u))) / r

    _, best = sphere_polish(on_sphere, u0, maxfev=200 * g.dim)
    return sign * best


def estimate_rates(f: MapSpec, p, config: RateConfig = RateConfig()) -> LocalRates:
    """Estimate d_p and q_p from sphere samples over a geometric radius tail."""
    g = translate_to_origin(f, p)
    dirs = sphere_directions(g.dim, config.directions, config.seed)
    radii = config.r0 * config.ratio ** np.arange(config.n_radii)
    tail = radii[-config.tail :]

    mins, maxs = [], []
    for r in radii:
        ratios = _sphere_norm_ratios(g, dirs, float(r))
        mins.append(float(ratios.min()))
        maxs.append(float(ratios.max()))
    t0 = config.n_radii - config.tail
    d = min(mins[t0:])
    q = max(maxs[t0:])

    if config.polish and g.dim >= 2:
        for r in tail:
            ratios = _sphere_norm_ratios(g, dirs, float(r))
            d = min(d, _polish_ratio(g, float(r), dirs[int(np.argmin(ratios))], False))
            q = max(q, _polish_ratio(g, float(r), dirs[int(np.argmax(ratios))], True))

    th = config.divergence_threshold
    d_flagged = d > th
    q_flagged = q > th
    return LocalRates(
        d_p=POS_INF if d_flagged else d,
        q_p=POS_INF if q_flagged else q,
        radii_used=tuple(float(r) for r in radii),
        samples_per_sphere=dirs.shape[0],
        d_flagged=d_flagged,
        q_flagged=q_flagged,
        per_radius_min=tuple(mins),
        per_radius_max=tuple(maxs),
    )


class Verdict(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class MembershipResult:
    verdict: Verdict
    margin: float
    per_radius_min: tuple


def sigma_membership(
    f: MapSpec, p, lam, tol: float = 1e-3, config: RateConfig = RateConfig()
) -> MembershipResult:
    """Point-spectrum membership of lam via the lower rate of lam*id - f.

    Member when every tail-radius minimum sits below tol, NonMember (with
    the estimated rate as margin) when every one sits above, Undecided when
    the per-radius minima straddle the tolerance.
    """
    g = lambda_minus(lam, translate_to_origin(f, p))
    dirs = sphere_directions(g.dim, config.directions, config.seed)
    radii = config.r0 * config.ratio ** np.arange(config.n_radii)
    tail = radii[-config.tail :]

    per_radius = []
    for r in tail:
        ratios = _sphere_norm_ratios(g, dirs, float(r))
        m = float(ratios.min())
        if config.polish and g.dim >= 2:
            m = min(m, _polish_ratio(g, float(r), dirs[int(np.argmin(ratios))], False))
        per_radius.append(m)

    below = [m < tol for m in per_radius]
    if all(below):
        verdict = Verdict.MEMBER
    elif not any(below):
        verdict = Verdict.NON_MEMBER
    else:
        verdict = Verdict.UNDECIDED
    return MembershipResult(verdict=verdict, margin=min(per_radius), per_radius_min=tuple(per_radius))


def c1_spectrum(f: MapSpec, p) -> np.ndarray:
    """Spectrum of a continuously differentiable map at p: Jacobian eigenvalues."""
    if f.jacobian is None:
        raise PreconditionError(f"map {f.name} has no Jacobian provider at p")
    J = np.asarray(f.jacobian(np.asarray(p, dtype=float)), dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise NumericError("Jacobian provider returned a non-square matrix")
    try:
        eigs = np.linalg.eigvals(J)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def spectrum_set(eigs: np.ndarray, tol: float = 1e-8) -> tuple:
    """Collapse an eigenvalue list to a tolerance-deduplicated sorted set."""
    out: list[complex] = []
    for e in np.asarray(eigs, dtype=complex):
        if not any(abs(e - o) <= tol for o in out):
            out.append(complex(e))
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def local_sigma_curve(f: MapSpec, p, radius: float = 1e-3, samples: int = 2048) -> SigmaCurve:
    """Normalized small-radius eigenvalue curve of a planar map at p.

    For maps that are homogeneous plus a higher-order remainder this
    converges to the eigenvalue curve of the homogeneous part as the radius
    shrinks.
    """
    if f.dim != 2:
        raise PreconditionError("local curves are planar")
    n = max(16, 4 * math.ceil(samples / 4))
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = _curve_values(translate_to_origin(f, p), thetas, radius)
    return SigmaCurve(thetas, vals, float("nan"), True, label="local")


@dataclass(frozen=True)
class EquivalenceReport:
    applicable: bool
    rate_of_difference: float
    hausdorff_distance: float | None
    message: str


def perturbation_equivalence_check(
    f: MapSpec,
    g: MapSpec,
    p,
    rate_tol: float = 1e-3,
    curve_radius: float = 1e-3,
    curve_samples: int = 2048,
    config: RateConfig = RateConfig(),
) -> EquivalenceReport:
    """Check that g - f is rate-null at p and compare the computed spectra.

    A vanishing upper rate of the difference forces the two local spectra to
    coincide; the report carries the distance between the computed spectra
    as corroboration.  A non-null difference is reported as inapplicable,
    not as a failure.
    """
    diff = difference(f, g)
    rates = estimate_rates(diff, p, config)
    if rates.q_p >= rate_tol:
        return EquivalenceReport(
            applicable=False,
            rate_of_difference=rates.q_p,
            hausdorff_distance=None,
            message=f"difference has upper rate {rates.q_p:.6g} >= {rate_tol:g}; "
            "the equivalence criterion does not apply",
        )
    if f.dim == 2:
        ca = (
            sigma_curve(f, samples=curve_samples)
            if f.homogeneous and np.all(np.asarray(p, dtype=float) == 0)
            else local_sigma_curve(f, p, curve_radius, curve_samples)
        )
        cb = (
            sigma_curve(g, samples=curve_samples)
            if g.homogeneous and np.all(np.asarray(p, dtype=float) == 0)
            else local_sigma_curve(g, p, curve_radius, curve_samples)
        )
        dist = hausdorff(ca.pairs(), cb.pairs())
        return EquivalenceReport(
            applicable=True,
            rate_of_difference=rates.q_p,
            hausdorff_distance=dist,
            message=f"equivalent; curve distance {dist:.3e}",
        )
    if f.dim == 1:
        from .dini import dini_estimate

        qa = dini_estimate(f, float(np.asarray(p))).quad.as_tuple()
        qb = dini_estimate(g, float(np.asarray(p))).quad.as_tuple()
        gaps = []
        for a, b in zip(qa, qb):
            if math.isinf(a) or math.isinf(b):
                if a != b:
                    return EquivalenceReport(
                        applicable=True,
                        rate_of_difference=rates.q_p,
                        hausdorff_distance=None,
                        message="rate-null but divergence flags disagree",
                    )
            else:
                gaps.append(abs(a - b))
        dist = max(gaps, default=0.0)
        return EquivalenceReport(
            applicable=True,
            rate_of_difference=rates.q_p,
            hausdorff_distance=dist,
            message=f"equivalent; quadruple components within {dist:.3e}",
        )
    return EquivalenceReport(
        applicable=True,
        rate_of_difference=rates.q_p,
        hausdorff_distance=None,
        message="equivalent by the rate criterion (no curve engine in this dimension)",
    )


@dataclass(frozen=True)
class BifurcationScan:
    lams: tuple
    radii: tuple
    residuals: np.ndarray  # (n_lams, n_radii) normalized residuals
    candidates: tuple  # complex candidates
    candidate_mask: np.ndarray
    contained_in_sigma: bool | None
    verdicts: tuple  # per-lam "candidate" / "rejected"


def _planar_scan_residuals(g: MapSpec, lams: np.ndarray, radii, theta_samples: int):
    thetas = np.linspace(0.0, TWO_PI, theta_samples, endpoint=False)
    dt = TWO_PI / theta_samples
    res = np.empty((lams.size, len(radii)))
    for j, r in enumerate(radii):

        def gap(ts, lam=lams):  # |lam e^{it} - g(r e^{it}) / r|
            w = evaluate(g, r * _unit_points(ts))
            return np.abs(lam * np.exp(1j * ts) - (w[..., 0] + 1j * w[..., 1]) / r)

        sampled = gap(thetas, lams[:, None])
        # golden-polish the angular minimum of every lam around its best sample
        t_best = thetas[sampled.argmin(axis=1)]
        _, refined = golden_min(gap, t_best - dt, t_best + dt, iters=40)
        res[:, j] = np.minimum(sampled.min(axis=1), refined)
    return res


def _general_scan_residuals(g: MapSpec, lams: np.ndarray, radii, samples: int, seed: int):
    dirs = sphere_directions(g.dim, samples, seed)
    res = np.empty((lams.size, len(radii)))
    for j, r in enumerate(radii):
        vals = evaluate(g, r * dirs) / r
        for i, lam in enumerate(lams):
            lam = as_complex(lam)
            if g.complex_pairs:
                target = complex_scale(lam, dirs)
            else:
                target = lam.real * dirs
            gap = np.linalg.norm(target - vals, axis=-1)
            i0 = int(np.argmin(gap))

            def on_sphere(u, _r=r, _lam=lam):
                if g.complex_pairs:
                    t = complex_scale(_lam, u)
                else:
                    t = _lam.real * u
                return float(np.linalg.norm(t - evaluate(g, _r * u) / _r))

            _, best = sphere_polish(on_sphere, dirs[i0], maxfev=150 * g.dim)
            res[i, j] = min(float(gap[i0]), best)
    return res


def scan_verdicts(normalized: np.ndarray, tol: float, undecided_factor: float = 2.0):
    """candidate / undecided / rejected from normalized residual profiles.

    A candidate needs the smallest-radius residual below tol and a
    non-increasing trend (the minima must head to zero).  Residuals landing
    in the gray zone just above tol are undecided: sampled minimization only
    certifies upper bounds, so near-threshold values cannot be rejected.
    """
    last = normalized[:, -1]
    trend_ok = last <= normalized[:, 0] + tol
    mask = (last < tol) & trend_ok
    gray = (last < undecided_factor * tol) & ~mask
    verdicts = tuple(
        "candidate" if m else ("undecided" if u else "rejected")
        for m, u in zip(mask, gray)
    )
    return mask, verdicts


def bifurcation_scan(
    f: MapSpec,
    lam_grid,
    radii=(1e-1, 1e-2, 1e-3),
    tol: float = 0.02,
    theta_samples: int = 1024,
    seed: int = 0,
    check_containment: bool = True,
) -> BifurcationScan:
    """Flag lam values near which lam x = f(x) has small nontrivial solutions.

    For each lam and each radius r the scanner minimizes the normalized
    residual |lam x - f(x)| / r over the sphere |x| = r; lam is a candidate
    when the residual at the smallest radius drops below tol with a
    non-increasing trend.  Candidates are cross-checked for containment in
    the computed point-spectrum part.  Any scan output is a candidate list,
    not a certificate.
    """
    g = translate_to_origin(f, f.basepoint)
    z0 = evaluate(f, f.basepoint)
    if float(np.max(np.abs(z0))) > 1e-12:
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    lams = np.asarray([as_complex(l) for l in lam_grid], dtype=complex)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    if g.dim == 2:
        res = _planar_scan_residuals(g, lams, radii, theta_samples)
    else:
        res = _general_scan_residuals(g, lams, radii, min(theta_samples, 512), seed)

    mask, verdicts = scan_verdicts(res, tol)
    candidates = tuple(complex(l) for l in lams[mask])

    contained = None
    if check_containment and candidates and f.dim == 2:
        curve = (
            sigma_curve(f, samples=2048)
            if f.homogeneous
            else local_sigma_curve(f, f.basepoint, radius=radii[-1], samples=2048)
        )
        pts = np.array([[c.real, c.imag] for c in candidates])
        from .numerics import directed_distance

        contained = directed_distance(pts, curve.pairs()) <= max(
            2.0 * tol, 10.0 * radii[-1]
        )

    return BifurcationScan(
        lams=tuple(complex(l) for l in lams),
        radii=radii,
        residuals=res,
        candidates=candidates,
        candidate_mask=mask,
        contained_in_sigma=contained,
        verdicts=verdicts,
    )
