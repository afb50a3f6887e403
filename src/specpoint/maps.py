"""Map descriptions, the builtin catalogue, evaluation, translation, and the scalar action.

A MapSpec (defined in `core`) bundles a deterministic evaluator, based at
the origin, with the metadata the engines need: dimension, a
positive-homogeneity flag, an optional exact derivative-quadruple provider
(one dimensional maps), an optional Jacobian provider, an optional sphere
matrix A(r) with f(r u) = r A(r) u on the sphere of radius r, and whether
the real coordinates carry a complex scalar action.

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
dimensional builtins are the scalar functions of `dini`, built there, and
`norm_times_x(1)` is x |x|, which takes arrays too.  The planar builtins
are formulas of `planar`, evaluated here on arrays of points.  The linear
builtins, real_linear and conj_pair, declare their matrices as their
Jacobians and as their sphere matrices; norm_times_x(dim) declares A(r) =
r I.  The factories of norm_times_x and norm_plus_i_im_pow check their
integer parameter's range on the value as given.  `numerics.sphere_extrema`
reads the sphere matrix alone; a map without one is scanned on its curve,
which needs the plane, and a one dimensional builtin by
`dini.sigma_distances`.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import planar
from .core import (
    DomainError,
    EvaluationError,
    MapSpec,
    NAMES_1D,
    PreconditionError,
    UnsupportedError,
    replace,
)

MAX_DIM = 16  # the largest norm_times_x dimension: a scan holds a dim x dim matrix per lambda


def evaluate(f: MapSpec, x) -> np.ndarray:
    """Evaluate f at x (scalar/point or batch).  Non finite output is an error."""
    arr = np.asarray(x, dtype=float)
    if f.dim >= 2 and (arr.ndim == 0 or arr.shape[-1] != f.dim):
        raise DomainError(f"map {f.name} expects points with {f.dim} coordinates")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite input to {f.name}")
    out = np.asarray(f.evaluator(arr), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value from {f.name}")
    return out


def translate_to_origin(f: MapSpec, p) -> MapSpec:
    """The map x -> f(p + x) - f(p), based at the origin; the sphere matrix carries over at p = 0 only."""
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
        inv_oscillation_hint=f.inv_oscillation_hint,
    )


# ---------------------------------------------------------------------------
# the scalar action


def scalar_action(lam, x, complex_pairs: bool) -> np.ndarray:
    """lam * x for the scalar field of the space.

    With complex_pairs the coordinates of x pair up as (re, im, re, im,
    ...) and lam acts on every pair as a complex number; otherwise lam must
    be real and multiplies every coordinate.  lam is a scalar or an array
    that broadcasts against x without its last axis.
    """
    lam = np.asarray(lam)
    x = np.asarray(x, dtype=float)
    if complex_pairs:
        if x.shape[-1] % 2:
            raise ValueError("complex scalar action needs an even last dimension")
        # named, pairs is no temporary for numpy to multiply into in place,
        # which rounds differently: a lam gets the same bits in any batch
        pairs = x[..., 0::2] + 1j * x[..., 1::2]
        z = (lam[..., None] if lam.ndim else lam) * pairs
        return np.ascontiguousarray(z).view(float)
    if np.iscomplexobj(lam):
        if np.any(lam.imag != 0.0):
            raise PreconditionError("complex scalar acting on a map without complex structure")
        lam = lam.real
    return (lam[..., None] if lam.ndim else lam) * x


# ---------------------------------------------------------------------------
# builtin catalogue


# (z, w) -> (conj w, i conj z) on R^4 coordinates (x1, y1, x2, y2): R-linear, this matrix
_CONJ_PAIR = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def _f_conj_pair(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = x[..., 2]
    out[..., 1] = -x[..., 3]
    out[..., 2] = x[..., 1]
    out[..., 3] = x[..., 0]
    return out


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
    """x -> |x| x: on the sphere of radius r it is x -> r x, so A(r) = r I."""
    if not 1 <= dim <= MAX_DIM:  # on the value as given: int(1e300) prints 301 digits
        raise PreconditionError(f"norm_times_x needs 1 <= dim <= {MAX_DIM}, got {dim:.16g}")
    dim = int(dim)

    def ev(x):
        if dim == 1:  # no coordinate axis: a bare float or an array of points
            return x * abs(x)
        x = np.asarray(x, dtype=float)
        return x * np.linalg.norm(x, axis=-1, keepdims=True)

    def jac(p):
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        if r == 0.0:
            return np.zeros((dim, dim))
        return r * np.eye(dim) + np.outer(p, p) / r

    return MapSpec(name=f"norm_times_x({dim})", dim=dim, evaluator=ev, jacobian=jac,
                   sphere_matrix=lambda r: r * np.eye(dim))


_FACTORIES: dict[str, Callable[..., MapSpec]] = {
    **{name: partial(_builtin_plane, name) for name in planar.BUILTINS},
    "conj_pair": lambda: MapSpec(
        name="conj_pair",
        dim=4,
        evaluator=_f_conj_pair,
        homogeneous=True,
        complex_pairs=True,
        jacobian=lambda q: _CONJ_PAIR,
        sphere_matrix=lambda r: _CONJ_PAIR,
    ),
    "norm_times_x": _norm_times_x,
}

BUILTIN_NAMES = tuple(sorted([*_FACTORIES, *NAMES_1D]))


def builtin(name: str, **params) -> MapSpec:
    """Construct a catalogue map by name (parameters by keyword); the one dimensional builtins are `dini`'s."""
    if name in NAMES_1D:
        from .dini import builtin_1d  # here, so that the planar commands load no dini

        return builtin_1d(name, **params)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnsupportedError(
            f"unknown builtin {name!r}; known names: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory(**params)
