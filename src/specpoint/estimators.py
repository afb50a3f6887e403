"""Finite dimensional estimators.

The smooth-map reduction to Jacobian eigenvalues, and a bifurcation
candidate scanner for maps vanishing at the origin.  The scan reads the
sphere minimum of |lam u - f(r u)| / r at its smallest radius r: exact,
from `numerics.sphere_extrema`, for a map that declares its sphere matrix,
and else the distance from lam to the nearest sample of the eigenvalue
curve sigma_r, by `numerics.nearest_sample`.  In dimension 1 sigma_r is
two points; in the plane `homog2d.sigma_curve` traces it once.

Sampling cannot certify that an infimum is zero, so a scan reads the
verdicts of `core.scan_verdicts`: "candidate", "undecided" for a minimum
in [tol, 2 tol), and "rejected".
"""
from __future__ import annotations

import numpy as np

from .core import (
    NumericError,
    PreconditionError,
    Record,
    as_complex,
    scan_verdicts,
)
from .maps import MapSpec, evaluate, translate_to_origin
from .numerics import nearest_sample, sphere_extrema


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
    drops below tol.  The larger radii are only echoed.

    A map that declares its sphere matrix has exact residuals.  Any other
    map, of dimension 1 or 2, has the distance from lam to the nearest
    sample of its eigenvalue curve sigma_r, since |lam u - f(r u) / r| =
    |lam - sigma_r(theta)| for u = e^{i theta}: the two points f(r) / r and
    f(-r) / (-r) on the line, and in the plane the curve traced from 2048
    samples to the chord bound tol / 16.  That residual is inf beyond reach
    = 2 tol, where it could only reject.  A trace that stops at its sample
    cap short of the bound widens reach to its longest chord, and a lam
    beyond 2 tol but within that chord is undecided: no rejection rests on
    a chord over the bound.

    The candidates of a planar map are checked for containment in sigma_r:
    each must lie within max(2 tol, 10 r) of a sample, as those of the
    curve route do.  A map with a sphere matrix traces sigma_r for the
    check from 2048 samples to the chord bound max(that reach,
    `homog2d.CHORD_BOUND`).  Any scan output is a candidate list, not a
    certificate.
    """
    origin = np.zeros(() if f.dim == 1 else f.dim)
    g = translate_to_origin(f, origin)
    if float(np.max(np.abs(evaluate(f, origin)))) > 1e-12:
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    lams = np.asarray([as_complex(l) for l in lam_grid], dtype=complex)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    r = radii[-1]
    on_curve = g.sphere_matrix is None and g.dim <= 2
    chord = 0.0
    if on_curve:
        if not g.complex_pairs and np.any(lams.imag != 0.0):
            raise PreconditionError("complex scalar acting on a map without complex structure")
        samples, chord = _local_curve(g, r, tol)
        res = nearest_sample(lams, samples, max(2.0 * float(tol), chord))[:, None]  # 2 tol may be inf
    else:
        res = sphere_extrema(g, lams, (r,))

    mask, verdicts = scan_verdicts(res.tolist(), tol)
    if chord:
        verdicts = tuple("undecided" if v == "rejected" and d <= chord else v
                         for v, d in zip(verdicts, res[:, 0]))
    candidates = tuple(complex(l) for l, keep in zip(lams, mask) if keep)

    contained = None
    if candidates and f.dim == 2:
        contained = True
        if not on_curve:
            from .homog2d import CHORD_BOUND, sigma_curve

            reach = max(2.0 * tol, 10.0 * r)
            curve = sigma_curve(f, samples=2048, chord_bound=max(reach, CHORD_BOUND), radius=r)
            contained = bool(np.all(nearest_sample(candidates, curve.values, reach) <= reach))

    return BifurcationScan(
        radii=radii,
        residuals=res,
        candidates=candidates,
        contained_in_sigma=contained,
        verdicts=verdicts,
    )


def _local_curve(g: MapSpec, r: float, tol: float):
    """The samples of sigma_r of a map of dimension 1 or 2, and the longest chord if the trace missed tol / 16, else 0."""
    if g.dim == 2:
        from .homog2d import _max_chord, sigma_curve

        curve = sigma_curve(g, samples=2048, chord_bound=tol / 16.0, radius=r)
        return curve.values, 0.0 if curve.chord_met else _max_chord(curve.values)
    x = np.array([r, -r])
    with np.errstate(over="ignore"):  # an overflow is reported below
        samples = evaluate(g, x) / x
    if not np.isfinite(samples).all():
        raise NumericError(f"the local curve of {g.name} at radius {r!r} is not finite")
    return samples, 0.0
