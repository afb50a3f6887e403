"""Map descriptions, the builtin catalogue, evaluation, and map algebra.

A MapSpec (defined in `core`) bundles a deterministic evaluator with the
metadata the engines need: dimension, basepoint, a positive-homogeneity
flag, an optional exact derivative-quadruple provider (one dimensional
maps), an optional Jacobian provider, and whether the real coordinates
carry a complex scalar action.

Builtin catalogue (addressable by name from tests and the CLI):

    one dimensional     sqrt_abs, signed_sqrt_abs, sqrt_abs_sin_inv, xsq_sin_inv
    planar              abs_re_plus_i_im, half_abs_re_plus_i_im,
                        real_linear(s,t,u,v), norm_plus_i_im (alias cardioid_map),
                        norm_plus_i_im_pow(n), norm_only
    R^4                 conj_pair
    general dimension   norm_times_x(dim), 1 <= dim <= MAX_DIM

Evaluators are vectorized: one dimensional maps take arrays of shape (...,),
higher dimensional maps take arrays of shape (..., dim) and act on the last
axis, and so does the user evaluator that `black_box` wraps.  A one
dimensional evaluator also takes a bare float, the convention of `dini`,
which evaluates one float at a time: the one dimensional builtins are
scalar functions of `dini`, vectorized here, and `norm_times_x(1)` is
x |x|, elementwise.  The planar builtins are formulas of `planar`,
evaluated here on arrays of points.  The linear builtins, real_linear
and conj_pair, declare their matrices as their Jacobians.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from . import planar
from .core import (
    DiniQuad,
    DomainError,
    EvaluationError,
    MapSpec,
    PreconditionError,
    UnsupportedError,
    as_complex,
    replace,
)


MAX_DIM = 16  # the largest norm_times_x dimension: a sphere scan's Nelder-Mead work grows fast with it


def _zero_point(dim: int) -> np.ndarray:
    return np.zeros(() if dim == 1 else (dim,))


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
    """The map x -> f(p + x) - f(p), based at the origin."""
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
        basepoint=_zero_point(f.dim),
        homogeneous=f.homogeneous and at_origin,
        complex_pairs=f.complex_pairs,
        dini_exact=(lambda t, _d=f.dini_exact, _p=p: _d(float(_p) + t)) if f.dini_exact else None,
        jacobian=(lambda q, _j=f.jacobian, _p=p: _j(_p + q)) if f.jacobian else None,
        inv_oscillation_hint=f.inv_oscillation_hint,
    )


# ---------------------------------------------------------------------------
# scalar algebra on maps


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


def _affine(a, c, f: MapSpec, name: str) -> MapSpec:
    """The map x -> a*x + c*f(x), the scalars acting on the space of f."""
    a, c = as_complex(a), as_complex(c)
    cp, ev = f.complex_pairs, f.evaluator

    def combined(x):
        y = scalar_action(c, ev(x), cp)
        return y if a == 0 else scalar_action(a, x, cp) + y  # scale_map has no a*x term

    dini = None
    if f.dini_exact is not None and a.imag == c.imag == 0.0:
        dini = lambda p, _d=f.dini_exact: _d(p).scaled(c.real).plus_const(a.real)
    jac = None
    if f.jacobian is not None and (cp or a.imag == c.imag == 0.0):
        eye = np.eye(max(f.dim, 1))
        m_a, m_c = scalar_action(a, eye, cp).T, scalar_action(c, eye, cp).T
        jac = lambda q, _j=f.jacobian: m_a + m_c @ _j(q)
    return replace(f, name=name, evaluator=combined, dini_exact=dini, jacobian=jac)


def scale_map(c, f: MapSpec) -> MapSpec:
    """The map x -> c * f(x), with the complex action when available."""
    return _affine(0.0, c, f, f"scale({c})*{f.name}")


def add_identity(c, f: MapSpec) -> MapSpec:
    """The map x -> c*x + f(x) (c acts as the scalar of the space)."""
    return _affine(c, 1.0, f, f"({c}*id+{f.name})")


def lambda_minus(lam, f: MapSpec) -> MapSpec:
    """The map x -> lam*x - f(x) whose regularity decides membership of lam."""
    return _affine(lam, -1.0, f, f"({lam}*id-{f.name})")


# ---------------------------------------------------------------------------
# black boxes


def black_box(
    dim: int,
    evaluator: Callable,
    *,
    name: str = "black_box",
    dini_exact: Optional[Callable] = None,
    jacobian: Optional[Callable] = None,
    complex_pairs: bool = False,
    homogeneous: bool = False,
) -> MapSpec:
    """Wrap a user evaluator, vectorized as every evaluator is."""
    return MapSpec(
        name=name,
        dim=dim,
        evaluator=evaluator,
        basepoint=_zero_point(dim),
        homogeneous=homogeneous,
        complex_pairs=complex_pairs,
        dini_exact=dini_exact,
        jacobian=jacobian,
    )


def identity_map(dim: int) -> MapSpec:
    if dim == 1:
        return black_box(
            1,
            lambda x: np.asarray(x, dtype=float),
            name="identity",
            dini_exact=lambda p: DiniQuad(1.0, 1.0, 1.0, 1.0),
            jacobian=lambda q: np.eye(1),
            homogeneous=True,
        )
    if dim == 2:
        return builtin("real_linear", s=1.0, t=0.0, u=0.0, v=1.0)
    return black_box(
        dim,
        lambda x: np.asarray(x, dtype=float),
        name="identity",
        jacobian=lambda q, _d=dim: np.eye(_d),
        homogeneous=True,
    )


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


def _make_norm_times_x(dim):
    dim = int(dim)
    if not 1 <= dim <= MAX_DIM:
        raise PreconditionError(f"norm_times_x needs 1 <= dim <= {MAX_DIM}, got {dim}")

    def ev(x, _d=dim):
        if _d == 1:  # no coordinate axis: a bare float or an array of points
            return x * abs(x)
        x = np.asarray(x, dtype=float)
        return x * np.linalg.norm(x, axis=-1, keepdims=True)

    def jac(p, _d=dim):
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        if r == 0.0:
            return np.zeros((_d, _d))
        return r * np.eye(_d) + np.outer(p, p) / r

    return ev, jac


def _builtin_1d(name):
    from .dini import builtin_1d  # here, so that the planar commands load no dini

    f = builtin_1d(name)  # the scalar evaluator, vectorized for the array engines
    return replace(f, evaluator=np.vectorize(f.evaluator, otypes=[float]), basepoint=np.zeros(()))


def _builtin_plane(name, **params):
    """A planar builtin of `planar`, its formula evaluated on arrays of points with np.hypot."""
    f = planar.builtin(name, **params)

    def ev(x, _formula=f.evaluator):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0], out[..., 1] = _formula(x[..., 0], x[..., 1], np.hypot)
        return out

    jac = None
    if f.jacobian is not None:
        jac = lambda q, _m=np.array(f.jacobian(None), dtype=float): _m
    return replace(f, evaluator=ev, basepoint=np.zeros(2), jacobian=jac)


def _factory_norm_times_x(dim=2):
    ev, jac = _make_norm_times_x(dim)
    return MapSpec(
        name=f"norm_times_x({int(dim)})",
        dim=int(dim),
        evaluator=ev,
        basepoint=np.zeros(int(dim)),
        homogeneous=False,
        complex_pairs=False,
        jacobian=jac,
    )


_FACTORIES: dict[str, Callable[..., MapSpec]] = {
    "sqrt_abs": lambda: _builtin_1d("sqrt_abs"),
    "signed_sqrt_abs": lambda: _builtin_1d("signed_sqrt_abs"),
    "sqrt_abs_sin_inv": lambda: _builtin_1d("sqrt_abs_sin_inv"),
    "xsq_sin_inv": lambda: _builtin_1d("xsq_sin_inv"),
    **{name: partial(_builtin_plane, name) for name in planar.BUILTINS},
    "conj_pair": lambda: MapSpec(
        name="conj_pair",
        dim=4,
        evaluator=_f_conj_pair,
        basepoint=np.zeros(4),
        homogeneous=True,
        complex_pairs=True,
        jacobian=lambda q: _CONJ_PAIR,
    ),
    "norm_times_x": _factory_norm_times_x,
}

BUILTIN_NAMES = tuple(sorted(_FACTORIES))


def builtin(name: str, **params) -> MapSpec:
    """Construct a catalogue map by name (parameters by keyword)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnsupportedError(
            f"unknown builtin {name!r}; known names: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory(**params)
