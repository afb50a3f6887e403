"""Finite dimensional estimators.

The smooth-map reduction to Jacobian eigenvalues, and a bifurcation
candidate scanner for maps vanishing at the origin.  The scan's sphere
minima come from `numerics.sphere_extrema` at its smallest radius: exact
for a map that declares its sphere matrix, else sampled, and polished in
the plane; the planar engine `homog2d` is loaded only where a scan with
candidates traces its containment curve.

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
from .numerics import directed_distance, sphere_extrema


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
        contained = directed_distance(pts, np.stack([curve.values.real, curve.values.imag], axis=-1)) <= reach

    return BifurcationScan(
        radii=radii,
        residuals=res,
        candidates=candidates,
        contained_in_sigma=contained,
        verdicts=verdicts,
    )
