"""Finite dimensional estimators.

The smooth-map reduction to Jacobian eigenvalues, and the residuals of a
bifurcation scan for maps vanishing at the origin: the sphere minimum of
|lam u - f(r u)| / r at one radius r, exact, from
`numerics.sphere_extrema`, for a map that declares its sphere matrix, and
else, in the plane, the distance from lam to the nearest sample of the
eigenvalue curve sigma_r that `homog2d.sigma_curve` traces once, by
`numerics.nearest_sample`.  A 1-D builtin declares neither: `cli` scans it
by `dini.sigma_distances`.

Sampling cannot certify that an infimum is zero, so `cli` reads the
residuals with `core.scan_verdicts`: "candidate", "undecided" for a
minimum in [tol, 2 tol) or within the chord the scan returns, and
"rejected".
"""
from __future__ import annotations

import numpy as np

from .core import NumericError, PreconditionError, as_complex
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


def bifurcation_scan(f: MapSpec, lam_grid, radius: float = 1e-3, tol: float = 0.02) -> tuple[np.ndarray, float]:
    """Normalized residual rows of lam x = f(x) on the sphere |x| = radius, and the chord they leave undecided.

    For each lam the scanner minimizes the normalized residual
    |lam x - f(x)| / r over the sphere |x| = r: lam is a candidate for a
    bifurcation point when it drops below tol.  Returns the (len(lams), 1)
    residuals and the chord that `core.scan_verdicts` reads them with.

    A map that declares its sphere matrix has exact residuals, and chord 0.
    Any other map must be planar, and has the distance from lam to the
    nearest sample of its eigenvalue curve sigma_r, since
    |lam u - f(r u) / r| = |lam - sigma_r(theta)| for u = e^{i theta}, the
    curve traced from 2048 samples to the chord bound tol / 16.  That
    residual is inf beyond reach = 2 tol, where it could only reject.  A
    trace that stops at its sample cap short of the bound returns its
    longest chord, which widens reach: a lam within it is undecided.

    In the plane either residual is dist(lam, sigma_r), exactly or to a
    sample, so a candidate lies within tol of sigma_r; it is not a
    certificate.
    """
    origin = np.zeros(() if f.dim == 1 else f.dim)
    g = translate_to_origin(f, origin)
    if float(np.max(np.abs(evaluate(f, origin)))) > 1e-12:
        raise PreconditionError("bifurcation scans need f(0) = 0 at the basepoint")
    lams = np.asarray([as_complex(l) for l in lam_grid], dtype=complex)
    if g.sphere_matrix is not None or g.dim != 2:
        return sphere_extrema(g, lams, radius)[:, None], 0.0
    from .homog2d import _max_chord, sigma_curve

    if not g.complex_pairs and np.any(lams.imag != 0.0):
        raise PreconditionError("complex scalar acting on a map without complex structure")
    curve = sigma_curve(g, samples=2048, chord_bound=tol / 16.0, radius=radius)
    chord = 0.0 if curve.chord_met else _max_chord(curve.values)
    reach = max(2.0 * float(tol), chord)  # 2 tol may be inf
    return nearest_sample(lams, curve.values, reach)[:, None], chord
