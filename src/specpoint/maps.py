"""Map descriptions on arrays: the builtin catalogue, evaluation and translation.

A MapSpec (defined in `core`) bundles a deterministic evaluator, based at
the origin, with the metadata the engines need: dimension, a
positive-homogeneity flag, an optional exact derivative-quadruple provider
(one dimensional maps), an optional Jacobian provider, an optional sphere
matrix A(r) with f(r u) = r A(r) u on the sphere of radius r, an optional
exact sphere minimum, and whether the real coordinates carry a complex
scalar action.

Builtin catalogue (addressable by name from tests and the CLI):

    one dimensional     sqrt_abs, signed_sqrt_abs, sqrt_abs_sin_inv, xsq_sin_inv
    planar              abs_re_plus_i_im, half_abs_re_plus_i_im,
                        real_linear(s,t,u,v), norm_plus_i_im (alias cardioid_map),
                        norm_plus_i_im_pow(n), norm_only
    R^4                 conj_pair
    general dimension   norm_times_x(dim), 1 <= dim <= MAX_DIM

A user map is a MapSpec built directly, with the fields it declares.
Evaluators from dimension 2 take arrays of shape (..., dim) and act on
the last axis, a user evaluator included.  A one dimensional evaluator
takes a bare float, as `dini` evaluates one float at a time: the one
dimensional builtins are the scalar functions of `dini`, built there, whose
batch `evaluate` refuses, and `norm_times_x(1)` is x |x|, which takes
arrays too.  Every other builtin is built by `planar`, on floats, with its
exact sphere minimum where it has one: the planar formulas are evaluated
here on arrays of points, and the evaluators of conj_pair and
norm_times_x take arrays as they are.  Here the linear builtins,
real_linear and conj_pair, declare their matrices as their Jacobians,
and norm_times_x its derivative.  The factories in `planar` check the
integer parameters of norm_times_x and norm_plus_i_im_pow on the value as
given.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import planar
from .core import DomainError, EvaluationError, MapSpec, NAMES_1D, replace
from .planar import BUILTIN_NAMES, MAX_DIM  # noqa: F401  (the names of the catalogue and the dimension cap)


def evaluate(f: MapSpec, x) -> np.ndarray:
    """Evaluate f at x (scalar/point or batch).  A wrong shape or non finite output is an error.

    A 1-D builtin of `dini`, or one translated, declares its exact
    derivative quadruple and takes one float: a batch is a wrong shape.
    """
    arr = np.asarray(x, dtype=float)
    if f.dim >= 2 and (arr.ndim == 0 or arr.shape[-1] != f.dim):
        raise DomainError(f"map {f.name} expects points with {f.dim} coordinates")
    if f.dini_exact is not None and arr.ndim:
        raise DomainError(f"map {f.name} expects one float, got an array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite input to {f.name}")
    out = np.asarray(f.evaluator(arr), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value from {f.name}")
    return out


def translate_to_origin(f: MapSpec, p) -> MapSpec:
    """The map x -> f(p + x) - f(p), based at the origin; the sphere matrix and minimum carry over at p = 0 only."""
    p = np.asarray(p, dtype=float)
    if f.dim >= 2 and p.shape != (f.dim,):
        raise DomainError(f"basepoint must have {f.dim} coordinates")
    if not np.all(np.isfinite(p)):
        raise DomainError("basepoint must be finite")
    fp = evaluate(f, p)
    ev = f.evaluator

    def shifted(x, _ev=ev, _p=p, _fp=fp):
        return _ev(x + _p) - _fp

    at_origin = bool(np.all(p == 0))
    return MapSpec(
        name=f"{f.name}@{np.round(p, 12).tolist()}",
        dim=f.dim,
        evaluator=shifted,
        homogeneous=f.homogeneous and at_origin,
        complex_pairs=f.complex_pairs,
        dini_exact=(lambda t, _d=f.dini_exact, _p=p: _d(float(_p) + t)) if f.dini_exact else None,
        jacobian=(lambda q, _j=f.jacobian, _p=p: _j(_p + q)) if f.jacobian else None,
        sphere_matrix=f.sphere_matrix if at_origin else None,
        sphere_min=f.sphere_min if at_origin else None,
        inv_oscillation_hint=f.inv_oscillation_hint,
    )


# ---------------------------------------------------------------------------
# builtin catalogue


# (z, w) -> (conj w, i conj z) on R^4 coordinates (x1, y1, x2, y2): R-linear, this matrix
_CONJ_PAIR = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def _builtin_plane(name, **params):
    """A planar builtin of `planar`, its formula evaluated on arrays of points with np.hypot."""
    f = planar.builtin(name, **params)

    def ev(x, _formula=f.evaluator):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0], out[..., 1] = _formula(x[..., 0], x[..., 1], np.hypot)
        return out

    jac = sphere = None
    if f.sphere_matrix is not None:  # real_linear: its matrix is its Jacobian too
        m = np.array(f.sphere_matrix(1.0), dtype=float)
        jac, sphere = (lambda q, _m=m: _m), (lambda r, _m=m: _m)
    return replace(f, evaluator=ev, jacobian=jac, sphere_matrix=sphere)


def _norm_times_x(dim=2):
    """x -> |x| x of `planar`, with its derivative |p| I + p p^T / |p| (0 at p = 0)."""
    f = planar.builtin("norm_times_x", dim=dim)

    def jac(p):
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        if r == 0.0:
            return np.zeros((f.dim, f.dim))
        return r * np.eye(f.dim) + np.outer(p, p) / r

    return replace(f, jacobian=jac)


_FACTORIES: dict[str, Callable[..., MapSpec]] = {
    **{name: partial(_builtin_plane, name) for name in planar.BUILTINS},
    "conj_pair": lambda: replace(planar.builtin("conj_pair"), jacobian=lambda q: _CONJ_PAIR),
    "norm_times_x": _norm_times_x,
}


def builtin(name: str, **params) -> MapSpec:
    """Construct a catalogue map by name (parameters by keyword); the one dimensional builtins are `dini`'s."""
    if name in NAMES_1D:
        from .dini import builtin_1d  # here, so that the planar commands load no dini

        return builtin_1d(name, **params)
    factory = _FACTORIES.get(name)
    return planar.builtin(name, **params) if factory is None else factory(**params)
