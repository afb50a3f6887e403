"""Finite dimensional numerical estimators.

Growth rates d_p and q_p from sphere minima and maxima at the six radii
0.1 * 2^-11 .. 0.1 * 2^-16 of RADII, point-spectrum membership tests, the
smooth-map reduction to Jacobian eigenvalues, and a bifurcation candidate
scanner for maps vanishing at the origin.  Every sphere extremum comes
from `numerics.sphere_extrema`: exact for a map that declares its sphere
matrix, else sampled and polished (membership's and the scan's at the
smallest radius alone); the planar engine `homog2d` is loaded only where a
scan with candidates traces its containment curve.

Sampling cannot certify that an infimum is zero, so membership and the
scans share one rule and its verdicts, `core.scan_verdicts`: "candidate",
"undecided" for a minimum in [tol, 2 tol), and "rejected".
"""
from __future__ import annotations

import numpy as np

from .core import (
    NumericError,
    POS_INF,
    PreconditionError,
    Record,
    as_complex,
    scan_verdicts,
)
from .maps import MapSpec, evaluate, translate_to_origin
from .numerics import directed_distance, sphere_extrema
from .planar import SPHERE_DIRECTIONS

RADII = 0.1 * 0.5 ** np.arange(11, 17)  # the sphere radii of the growth rates; membership reads the last
DIVERGENCE_THRESHOLD = 1e6  # a rate above it is flagged and reported as inf


class LocalRates(Record):
    """Lower/upper local growth rates of f at p (0 <= d_p <= q_p).

    per_radius_min and per_radius_max hold the sphere minimum and maximum
    of |f(p + x) - f(p)| / r at every radius r of RADII, each sampled and
    then polished from its best sample; d_p and q_p are their extremes.
    """

    d_p: float
    q_p: float
    radii_used: tuple
    d_flagged: bool = False
    q_flagged: bool = False
    per_radius_min: tuple = ()
    per_radius_max: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.d_p <= self.q_p):
            raise ValueError(f"rates out of order: d={self.d_p}, q={self.q_p}")


def estimate_rates(f: MapSpec, p) -> LocalRates:
    """Estimate d_p and q_p from the sphere minima and maxima at the radii RADII.

    Every radius's minimum and maximum of |f(p + x) - f(p)| / r over the
    sphere |x| = r is sampled at SPHERE_DIRECTIONS directions and polished;
    d_p and q_p are the smallest minimum and the largest maximum, each
    flagged and reported as inf above DIVERGENCE_THRESHOLD.
    """
    g = translate_to_origin(f, p)
    zero = np.zeros(1, dtype=complex)
    mins = sphere_extrema(g, zero, RADII, SPHERE_DIRECTIONS, sign=1.0)[0]
    maxs = sphere_extrema(g, zero, RADII, SPHERE_DIRECTIONS, sign=-1.0)[0]
    d = float(mins.min())
    q = float(maxs.max())

    d_flagged = d > DIVERGENCE_THRESHOLD
    q_flagged = q > DIVERGENCE_THRESHOLD
    return LocalRates(
        d_p=POS_INF if d_flagged else d,
        q_p=POS_INF if q_flagged else q,
        radii_used=tuple(float(r) for r in RADII),
        d_flagged=d_flagged,
        q_flagged=q_flagged,
        per_radius_min=tuple(float(x) for x in mins),
        per_radius_max=tuple(float(x) for x in maxs),
    )


class MembershipResult(Record):
    verdict: str  # the `core.scan_verdicts` verdict of margin: candidate, undecided or rejected
    margin: float  # the sphere minimum the verdict reads


def sigma_membership(f: MapSpec, p, lam, tol: float = 1e-3) -> MembershipResult:
    """Point-spectrum membership of lam by the rule of the bifurcation scans.

    The sphere minimum of |lam x - (f(p + x) - f(p))| / r at the smallest
    radius r of RADII, sampled and polished, gets its `core.scan_verdicts`
    verdict.
    """
    g = translate_to_origin(f, p)
    res = sphere_extrema(g, np.array([as_complex(lam)]), RADII[-1:], SPHERE_DIRECTIONS)
    return MembershipResult(verdict=scan_verdicts(res.tolist(), tol)[1][0], margin=float(res[0, 0]))


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


class BifurcationScan(Record):
    radii: tuple
    residuals: np.ndarray  # (n_lams, 1) normalized residuals at the smallest radius
    candidates: tuple  # complex candidates
    contained_in_sigma: bool | None
    verdicts: tuple  # per-lam "candidate" / "undecided" / "rejected"


def bifurcation_scan(
    f: MapSpec,
    lam_grid,
    radii=(1e-1, 1e-2, 1e-3),
    tol: float = 0.02,
) -> BifurcationScan:
    """Flag lam values near which lam x = f(x) has small nontrivial solutions.

    For each lam the scanner minimizes the normalized residual
    |lam x - f(x)| / r over the sphere |x| = r at the smallest radius r,
    the one residual `core.scan_verdicts` reads: lam is a candidate when it
    drops below tol.  The larger radii are only echoed.  The candidates of
    a planar map are checked for containment in its eigenvalue curve
    sigma_r at the same radius: each must lie within reach = max(2 tol,
    10 r) of the curve, traced from 2048 samples to the chord bound
    max(reach, `homog2d.CHORD_BOUND`).  Any scan output is a candidate
    list, not a certificate.
    """
    origin = np.zeros(() if f.dim == 1 else f.dim)
    g = translate_to_origin(f, origin)
    if float(np.max(np.abs(evaluate(f, origin)))) > 1e-12:
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    lams = np.asarray([as_complex(l) for l in lam_grid], dtype=complex)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    r = radii[-1]
    res = sphere_extrema(g, lams, (r,), 512)

    mask, verdicts = scan_verdicts(res.tolist(), tol)
    candidates = tuple(complex(l) for l, keep in zip(lams, mask) if keep)

    contained = None
    if candidates and f.dim == 2:
        from .homog2d import CHORD_BOUND, sigma_curve

        reach = max(2.0 * tol, 10.0 * r)
        curve = sigma_curve(f, samples=2048, chord_bound=max(reach, CHORD_BOUND), radius=r)
        pts = np.array([[c.real, c.imag] for c in candidates])
        contained = directed_distance(pts, curve.pairs()) <= reach

    return BifurcationScan(
        radii=radii,
        residuals=res,
        candidates=candidates,
        contained_in_sigma=contained,
        verdicts=verdicts,
    )
