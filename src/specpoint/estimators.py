"""Finite dimensional estimators: the smooth-map reduction to Jacobian eigenvalues.

No command calls them yet.  The residuals of a bifurcation scan are on
floats: `cli` reads a declared sphere minimum, `planar.curve_distances`
or `dini.sigma_distances`.
"""
from __future__ import annotations

import numpy as np

from .core import MapSpec, NumericError, PreconditionError


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
