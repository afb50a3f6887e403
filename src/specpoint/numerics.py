"""Deterministic sampling and derivative-free local search helpers."""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

# scipy.optimize and scipy.stats cost about a second of start-up, so they
# are imported inside the helpers that use them.

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc
    sampler = qmc.Sobol(d=dim, scramble=True, seed=int(seed))
    m = max(1, math.ceil(math.log2(max(2, n))))
    pts = sampler.random_base2(m)[:n]
    return np.clip(pts, 1e-12, 1.0 - 1e-12)


def sphere_directions(dim: int, n: int, seed: int = 0) -> np.ndarray:
    """n low-discrepancy unit vectors in R^dim, deterministic per seed.

    dim == 1 returns the two directions; dim == 2 uses a rotated uniform
    angle grid; higher dimensions push scrambled Sobol points through the
    normal quantile and normalize.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        offset = (seed * _GOLDEN) % 1.0
        theta = 2.0 * np.pi * ((np.arange(n) + 0.5 + offset) / n)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    g = ndtri(_sobol(dim, n, seed))
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def disk_points(n: int, radius: float, seed: int = 0) -> np.ndarray:
    """n low-discrepancy points in the open disk of the given radius."""
    uv = _sobol(2, n, seed)
    r = radius * np.sqrt(uv[:, 0])
    phi = 2.0 * np.pi * uv[:, 1]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def nm_polish(fn, x0, maxfev: int = 400, xatol: float = 1e-12, fatol: float = 1e-14):
    """Local Nelder-Mead refinement; returns (x, fn(x)) at the best point seen."""
    from scipy import optimize
    x0 = np.asarray(x0, dtype=float)
    res = optimize.minimize(
        fn,
        x0,
        method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol},
    )
    f0 = fn(x0)
    if res.fun <= f0:
        return np.asarray(res.x, dtype=float), float(res.fun)
    return x0, float(f0)


def _tangent_frame(u0: np.ndarray) -> np.ndarray:
    """Orthonormal complement of the unit vector u0 (Householder columns)."""
    dim = u0.size
    e1 = np.zeros(dim)
    e1[0] = 1.0
    v = e1 - u0
    nv = np.linalg.norm(v)
    H = np.eye(dim)
    if nv > 1e-14:
        v = v / nv
        H -= 2.0 * np.outer(v, v)
    return H[:, 1:]


def sphere_polish(fn, u0, maxfev: int = 600, simplex_radius: float = 0.15):
    """Minimize fn over unit vectors near u0, parametrized on the tangent frame.

    The normalization map x -> x/|x| is constant along rays, which stalls a
    simplex in ambient coordinates; optimizing over tangent offsets removes
    the degeneracy.  Returns (unit vector, value).
    """
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.linalg.norm(u0)
    dim = u0.size
    if dim == 1:
        return u0, float(fn(u0))
    T = _tangent_frame(u0)

    def obj(t):
        u = u0 + T @ t
        return fn(u / np.linalg.norm(u))

    from scipy import optimize
    k = dim - 1
    simplex = np.zeros((k + 1, k))
    simplex[1:] = simplex_radius * np.eye(k)
    res = optimize.minimize(
        obj,
        np.zeros(k),
        method="Nelder-Mead",
        options={
            "maxfev": maxfev,
            "xatol": 1e-12,
            "fatol": 1e-14,
            "initial_simplex": simplex,
        },
    )
    f0 = float(fn(u0))
    if res.fun <= f0:
        u = u0 + T @ res.x
        u = u / np.linalg.norm(u)
        return u, float(res.fun)
    return u0, f0


_COMPASS_8 = np.array(
    [
        [1.0, 0.0],
        [-1.0, 0.0],
        [0.0, 1.0],
        [0.0, -1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [-1.0, 1.0],
        [-1.0, -1.0],
    ]
)


def pattern_search_2d(obj, x0, step0: float, *, feasible=None, f_tol: float = 0.0,
                      step_tol: float = 1e-14, max_iter: int = 4000):
    """Damped fixed-direction descent: try compass moves, halve on failure.

    Suited to continuous objectives without derivatives.  Returns (x, value).
    """
    x = np.asarray(x0, dtype=float)
    fx = float(obj(x))
    step = float(step0)
    it = 0
    while step > step_tol and fx > f_tol and it < max_iter:
        it += 1
        improved = False
        for d in _COMPASS_8:
            cand = x + step * d
            if feasible is not None and not feasible(cand):
                continue
            fc = float(obj(cand))
            if fc < fx:
                x, fx = cand, fc
                improved = True
                break
        if not improved:
            step *= 0.5
    return x, fx


def golden_min(fn, lo, hi, iters: int = 60):
    """Golden-section minimization on brackets; returns (x, fn(x)).

    lo and hi may be arrays: every element is searched on its own bracket
    and fn maps an array of points to their values, one call per iteration.
    Each element follows the iterates of the scalar search exactly.
    """
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        left = fc <= fd  # keep [a, d]: d <- c and c is new; else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = fn(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    left = fc <= fd
    return np.where(left, c, d)[()], np.where(left, fc, fd)[()]


def directed_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup over rows of a of the distance to the point set b."""
    tree = cKDTree(np.asarray(b, dtype=float))
    d, _ = tree.query(np.asarray(a, dtype=float))
    return float(np.max(d))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return max(directed_distance(a, b), directed_distance(b, a))
