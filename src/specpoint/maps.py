"""Map descriptions, the builtin catalogue, evaluation, and map algebra.

A MapSpec bundles a deterministic evaluator with the metadata the engines
need: dimension, basepoint, a positive-homogeneity flag, an optional exact
derivative-quadruple provider (one dimensional maps), an optional Jacobian
provider, and whether the real coordinates carry a complex scalar action.

Builtin catalogue (addressable by name from tests and the CLI):

    one dimensional     sqrt_abs, signed_sqrt_abs, sqrt_abs_sin_inv, xsq_sin_inv
    planar              abs_re_plus_i_im, half_abs_re_plus_i_im,
                        real_linear(s,t,u,v), norm_plus_i_im (alias cardioid_map),
                        norm_plus_i_im_pow(n), norm_only, conj_pair
    general dimension   norm_times_x(dim)

Evaluators are vectorized: one dimensional maps take arrays of shape (...,),
higher dimensional maps take arrays of shape (..., dim) and act on the last
axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    DiniQuad,
    DomainError,
    EvaluationError,
    NEG_INF,
    POS_INF,
    PreconditionError,
    UnsupportedError,
    as_complex,
    complex_scale,
)


@dataclass(frozen=True, eq=False)
class MapSpec:
    name: str
    dim: int
    evaluator: Callable
    basepoint: np.ndarray
    homogeneous: bool = False
    complex_pairs: bool = False
    dini_exact: Optional[Callable] = None
    jacobian: Optional[Callable] = None
    inv_oscillation_hint: bool = False
    domain: Optional[Callable] = None

    def __repr__(self):  # factory arguments are baked into the name
        return f"MapSpec({self.name}, dim={self.dim})"


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


def _scalar_apply(c, x, complex_pairs: bool) -> np.ndarray:
    c = as_complex(c)
    if complex_pairs:
        return complex_scale(c, x)
    if c.imag != 0.0:
        raise PreconditionError("complex scalar acting on a map without complex structure")
    return c.real * np.asarray(x, dtype=float)


def _rot_matrix(c: complex, dim: int) -> np.ndarray:
    """Matrix of x -> c*x for the complex pair action on R^dim."""
    blocks = dim // 2
    m = np.zeros((dim, dim))
    r = np.array([[c.real, -c.imag], [c.imag, c.real]])
    for k in range(blocks):
        m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = r
    return m


def _scalar_matrix(c, dim: int, complex_pairs: bool) -> np.ndarray:
    c = as_complex(c)
    if complex_pairs:
        return _rot_matrix(c, dim)
    if c.imag != 0.0:
        raise PreconditionError("complex scalar acting on a map without complex structure")
    return c.real * np.eye(max(dim, 1))


def scale_map(c, f: MapSpec) -> MapSpec:
    """The map x -> c * f(x), with the complex action when available."""
    cc = as_complex(c)
    ev = f.evaluator

    def scaled(x, _ev=ev, _c=cc, _cp=f.complex_pairs):
        return _scalar_apply(_c, _ev(x), _cp)

    dini = None
    if f.dini_exact is not None and cc.imag == 0.0:
        dini = lambda p, _d=f.dini_exact, _c=cc.real: _d(p).scaled(_c)
    jac = None
    if f.jacobian is not None and (cc.imag == 0.0 or f.complex_pairs):
        jac = lambda q, _j=f.jacobian, _m=_scalar_matrix(cc, f.dim, f.complex_pairs): _m @ _j(q)
    return replace(
        f,
        name=f"scale({c})*{f.name}",
        evaluator=scaled,
        dini_exact=dini,
        jacobian=jac,
    )


def add_identity(c, f: MapSpec) -> MapSpec:
    """The map x -> c*x + f(x) (c acts as the scalar of the space)."""
    cc = as_complex(c)
    ev = f.evaluator

    def added(x, _ev=ev, _c=cc, _cp=f.complex_pairs):
        return _scalar_apply(_c, x, _cp) + _ev(x)

    dini = None
    if f.dini_exact is not None and cc.imag == 0.0:
        dini = lambda p, _d=f.dini_exact, _c=cc.real: _d(p).plus_const(_c)
    jac = None
    if f.jacobian is not None and (cc.imag == 0.0 or f.complex_pairs):
        jac = lambda q, _j=f.jacobian, _m=_scalar_matrix(cc, f.dim, f.complex_pairs): _m + _j(q)
    return replace(
        f,
        name=f"({c}*id+{f.name})",
        evaluator=added,
        dini_exact=dini,
        jacobian=jac,
    )


def lambda_minus(lam, f: MapSpec) -> MapSpec:
    """The map x -> lam*x - f(x) whose regularity decides membership of lam."""
    cc = as_complex(lam)
    ev = f.evaluator

    def shifted(x, _ev=ev, _c=cc, _cp=f.complex_pairs):
        return _scalar_apply(_c, x, _cp) - _ev(x)

    dini = None
    if f.dini_exact is not None and cc.imag == 0.0:
        dini = lambda p, _d=f.dini_exact, _c=cc.real: _d(p).reflected_about(_c)
    jac = None
    if f.jacobian is not None and (cc.imag == 0.0 or f.complex_pairs):
        jac = lambda q, _j=f.jacobian, _m=_scalar_matrix(cc, f.dim, f.complex_pairs): _m - _j(q)
    return replace(
        f,
        name=f"({lam}*id-{f.name})",
        evaluator=shifted,
        dini_exact=dini,
        jacobian=jac,
    )


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


def _safe_inv_sin(x):
    x = np.asarray(x, dtype=float)
    nz = x != 0
    safe = np.where(nz, x, 1.0)
    return np.where(nz, np.sin(1.0 / safe), 0.0)


def _f_sqrt_abs(x):
    return np.sqrt(np.abs(np.asarray(x, dtype=float)))


def _f_signed_sqrt_abs(x):
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.sqrt(np.abs(x))


def _f_sqrt_abs_sin_inv(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.abs(x)) * _safe_inv_sin(x)


def _f_xsq_sin_inv(x):
    x = np.asarray(x, dtype=float)
    return x * x * _safe_inv_sin(x)


def _dini_sqrt_abs(p: float) -> DiniQuad:
    p = float(p)
    if p == 0.0:
        return DiniQuad(NEG_INF, NEG_INF, POS_INF, POS_INF)
    d = math.copysign(1.0, p) / (2.0 * math.sqrt(abs(p)))
    return DiniQuad(d, d, d, d)


def _dini_signed_sqrt_abs(p: float) -> DiniQuad:
    p = float(p)
    if p == 0.0:
        return DiniQuad(POS_INF, POS_INF, POS_INF, POS_INF)
    d = 1.0 / (2.0 * math.sqrt(abs(p)))
    return DiniQuad(d, d, d, d)


def _dini_sqrt_abs_sin_inv(p: float) -> DiniQuad:
    p = float(p)
    if p == 0.0:
        return DiniQuad(NEG_INF, POS_INF, NEG_INF, POS_INF)
    d = math.copysign(1.0, p) * math.sin(1.0 / p) / (2.0 * math.sqrt(abs(p))) - math.sqrt(
        abs(p)
    ) * math.cos(1.0 / p) / (p * p)
    return DiniQuad(d, d, d, d)


def _dini_xsq_sin_inv(p: float) -> DiniQuad:
    p = float(p)
    if p == 0.0:
        return DiniQuad(0.0, 0.0, 0.0, 0.0)
    d = 2.0 * p * math.sin(1.0 / p) - math.cos(1.0 / p)
    return DiniQuad(d, d, d, d)


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


def _builtin_1d(name, ev, dini, hint=False):
    return MapSpec(
        name=name,
        dim=1,
        evaluator=ev,
        basepoint=np.zeros(()),
        dini_exact=dini,
        inv_oscillation_hint=hint,
    )


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
    "sqrt_abs": lambda: _builtin_1d("sqrt_abs", _f_sqrt_abs, _dini_sqrt_abs),
    "signed_sqrt_abs": lambda: _builtin_1d(
        "signed_sqrt_abs", _f_signed_sqrt_abs, _dini_signed_sqrt_abs
    ),
    "sqrt_abs_sin_inv": lambda: _builtin_1d(
        "sqrt_abs_sin_inv", _f_sqrt_abs_sin_inv, _dini_sqrt_abs_sin_inv, hint=True
    ),
    "xsq_sin_inv": lambda: _builtin_1d(
        "xsq_sin_inv", _f_xsq_sin_inv, _dini_xsq_sin_inv, hint=True
    ),
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
