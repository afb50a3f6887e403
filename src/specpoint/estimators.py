"""Finite dimensional estimators.

The smooth-map reduction to Jacobian eigenvalues, and a bifurcation
candidate scanner for maps vanishing at the origin.  The scan reads the
sphere minimum of |lam u - f(r u)| / r at its smallest radius r: exact,
from `numerics.sphere_extrema`, for a map that declares its sphere matrix,
and else, in the plane, the distance from lam to the nearest sample of the
eigenvalue curve sigma_r that `homog2d.sigma_curve` traces once, by
`numerics.nearest_sample`.  A 1-D builtin is scanned by `dini.sigma_distances`.

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
    map must be planar, and has the distance from lam to the nearest sample
    of its eigenvalue curve sigma_r, since |lam u - f(r u) / r| =
    |lam - sigma_r(theta)| for u = e^{i theta}, the curve traced from 2048
    samples to the chord bound tol / 16.  That residual is inf beyond reach
    = 2 tol, where it could only reject.  A trace that stops at its sample
    cap short of the bound widens reach to its longest chord, and a lam
    beyond 2 tol but within that chord is undecided: no rejection rests on
    a chord over the bound.

    In the plane either residual is dist(lam, sigma_r), exactly or to a
    sample, so the candidates lie within tol of sigma_r: contained, where
    any other dimension reads None.  Any scan output is a candidate list,
    not a certificate.
    """
    origin = np.zeros(() if f.dim == 1 else f.dim)
    g = translate_to_origin(f, origin)
    if float(np.max(np.abs(evaluate(f, origin)))) > 1e-12:
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    lams = np.asarray([as_complex(l) for l in lam_grid], dtype=complex)
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    r = radii[-1]
    if g.sphere_matrix is not None or g.dim != 2:
        res, chord = sphere_extrema(g, lams, (r,)), 0.0
    else:
        from .homog2d import _max_chord, sigma_curve

        if not g.complex_pairs and np.any(lams.imag != 0.0):
            raise PreconditionError("complex scalar acting on a map without complex structure")
        curve = sigma_curve(g, samples=2048, chord_bound=tol / 16.0, radius=r)
        chord = 0.0 if curve.chord_met else _max_chord(curve.values)
        res = nearest_sample(lams, curve.values, max(2.0 * float(tol), chord))[:, None]  # 2 tol may be inf

    mask, verdicts = scan_verdicts(res.tolist(), tol)
    if chord:
        verdicts = tuple("undecided" if v == "rejected" and d <= chord else v
                         for v, d in zip(verdicts, res[:, 0]))
    candidates = tuple(complex(l) for l, keep in zip(lams, mask) if keep)
    return BifurcationScan(
        radii=radii,
        residuals=res,
        candidates=candidates,
        contained_in_sigma=True if candidates and f.dim == 2 else None,
        verdicts=verdicts,
    )
