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
                        norm_plus_i_im_pow(n), norm_only, conj_pair
    general dimension   norm_times_x(dim)

Evaluators are vectorized: one dimensional maps take arrays of shape (...,),
higher dimensional maps take arrays of shape (..., dim) and act on the last
axis.  The one dimensional builtins are scalar functions of `dini`,
vectorized here.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

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


def _zero_point(dim: int) -> np.ndarray:
    return np.zeros(() if dim == 1 else (dim,))


def evaluate(f: MapSpec, x) -> np.ndarray:
    """Evaluate f at x (scalar/point or batch).  Non finite output is an error."""
    arr = np.asarray(x, dtype=float)
    if f.dim >= 2 and (arr.ndim == 0 or arr.shape[-1] != f.dim):
        raise DomainError(f"map {f.name} expects points with {f.dim} coordinates")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite input to {f.name}")
    if f.domain is not None and not np.all(f.domain(arr)):
        raise DomainError(f"point outside the domain of {f.name}")
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
        domain=(lambda x, _d=f.domain, _p=p: _d(x + _p)) if f.domain else None,
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


def difference(f: MapSpec, g: MapSpec) -> MapSpec:
    """The map x -> f(x) - g(x)."""
    if f.dim != g.dim:
        raise PreconditionError("difference of maps with unequal dimensions")
    fe, ge = f.evaluator, g.evaluator

    def diff(x, _f=fe, _g=ge):
        return _f(x) - _g(x)

    return MapSpec(
        name=f"({f.name}-{g.name})",
        dim=f.dim,
        evaluator=diff,
        basepoint=_zero_point(f.dim),
        homogeneous=f.homogeneous and g.homogeneous,
        complex_pairs=f.complex_pairs and g.complex_pairs,
    )


# ---------------------------------------------------------------------------
# black boxes


def _wrap_unvectorized(ev: Callable, dim: int) -> Callable:
    if dim == 1:
        return np.vectorize(ev, otypes=[float])

    def wrapped(x, _ev=ev, _dim=dim):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            return np.asarray(_ev(arr), dtype=float)
        flat = arr.reshape(-1, _dim)
        out = np.stack([np.asarray(_ev(row), dtype=float) for row in flat])
        return out.reshape(arr.shape)

    return wrapped


def black_box(
    dim: int,
    evaluator: Callable,
    *,
    name: str = "black_box",
    vectorized: bool = True,
    dini_exact: Optional[Callable] = None,
    jacobian: Optional[Callable] = None,
    domain: Optional[Callable] = None,
    complex_pairs: bool = False,
    homogeneous: bool = False,
) -> MapSpec:
    """Wrap a user evaluator.  Set vectorized=False for pointwise callables."""
    ev = evaluator if vectorized else _wrap_unvectorized(evaluator, dim)
    return MapSpec(
        name=name,
        dim=dim,
        evaluator=ev,
        basepoint=_zero_point(dim),
        homogeneous=homogeneous,
        complex_pairs=complex_pairs,
        dini_exact=dini_exact,
        jacobian=jacobian,
        domain=domain,
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


def _f_abs_re_plus_i_im(x):
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = np.abs(out[..., 0])
    return out


def _f_half_abs_re_plus_i_im(x):
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = 0.5 * np.abs(out[..., 0])
    return out


def _f_norm_plus_i_im(x):
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = np.hypot(x[..., 0], x[..., 1])
    return out


def _f_norm_only(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[..., 0] = np.hypot(x[..., 0], x[..., 1])
    return out


def _make_real_linear(s, t, u, v):
    m = np.array([[s, t], [u, v]], dtype=float)

    def ev(x, _m=m):
        return np.asarray(x, dtype=float) @ _m.T

    return ev, m


def _make_norm_plus_i_im_pow(n):
    n = int(n)
    if n < 2:
        raise PreconditionError("norm_plus_i_im_pow needs an exponent n >= 2")

    def ev(x, _n=n):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = np.hypot(x[..., 0], x[..., 1])
        out[..., 1] = x[..., 1] ** _n
        return out

    return ev


def _f_conj_pair(x):
    # (z, w) -> (conj w, i conj z) on R^4 coordinates (x1, y1, x2, y2)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = x[..., 2]
    out[..., 1] = -x[..., 3]
    out[..., 2] = x[..., 1]
    out[..., 3] = x[..., 0]
    return out


def _make_norm_times_x(dim):
    dim = int(dim)
    if dim < 1:
        raise PreconditionError("norm_times_x needs dim >= 1")

    def ev(x, _d=dim):
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
    return replace(f, evaluator=_wrap_unvectorized(f.evaluator, 1), basepoint=np.zeros(()))


def _builtin_plane(name, ev, *, homogeneous, jacobian=None):
    return MapSpec(
        name=name,
        dim=2,
        evaluator=ev,
        basepoint=np.zeros(2),
        homogeneous=homogeneous,
        complex_pairs=True,
        jacobian=jacobian,
    )


def _factory_real_linear(s=1.0, t=0.0, u=0.0, v=1.0):
    ev, m = _make_real_linear(s, t, u, v)
    return _builtin_plane(
        f"real_linear({s},{t},{u},{v})",
        ev,
        homogeneous=True,
        jacobian=lambda q, _m=m: _m,
    )


def _factory_norm_plus_i_im_pow(n=2):
    return _builtin_plane(
        f"norm_plus_i_im_pow({int(n)})",
        _make_norm_plus_i_im_pow(n),
        homogeneous=False,
    )


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
    "abs_re_plus_i_im": lambda: _builtin_plane(
        "abs_re_plus_i_im", _f_abs_re_plus_i_im, homogeneous=True
    ),
    "half_abs_re_plus_i_im": lambda: _builtin_plane(
        "half_abs_re_plus_i_im", _f_half_abs_re_plus_i_im, homogeneous=True
    ),
    "real_linear": _factory_real_linear,
    "norm_plus_i_im": lambda: _builtin_plane(
        "norm_plus_i_im", _f_norm_plus_i_im, homogeneous=True
    ),
    "cardioid_map": lambda: _builtin_plane(
        "cardioid_map", _f_norm_plus_i_im, homogeneous=True
    ),
    "norm_plus_i_im_pow": _factory_norm_plus_i_im_pow,
    "norm_only": lambda: _builtin_plane("norm_only", _f_norm_only, homogeneous=True),
    "conj_pair": lambda: MapSpec(
        name="conj_pair",
        dim=4,
        evaluator=_f_conj_pair,
        basepoint=np.zeros(4),
        homogeneous=True,
        complex_pairs=True,
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
