import numpy as np
import pytest

from specpoint.core import DiniQuad, DomainError, EvaluationError, PreconditionError, UnsupportedError
from specpoint.maps import (
    BUILTIN_NAMES,
    MAX_DIM,
    add_identity,
    black_box,
    builtin,
    evaluate,
    identity_map,
    lambda_minus,
    scale_map,
    translate_to_origin,
)

HOMOGENEOUS_PLANAR = [
    builtin("abs_re_plus_i_im"),
    builtin("half_abs_re_plus_i_im"),
    builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0),
    builtin("norm_plus_i_im"),
    builtin("norm_only"),
]


def test_eval_catalogue_values():
    assert evaluate(builtin("sqrt_abs"), 4.0) == pytest.approx(2.0)
    out = evaluate(builtin("abs_re_plus_i_im"), np.array([-3.0, 5.0]))
    assert np.allclose(out, [3.0, 5.0])
    out = evaluate(builtin("cardioid_map"), np.array([0.0, 1.0]))
    assert np.allclose(out, [1.0, 1.0])


def test_eval_batches():
    f = builtin("abs_re_plus_i_im")
    pts = np.array([[-1.0, 2.0], [3.0, -4.0]])
    out = evaluate(f, pts)
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1.0, 2.0], [3.0, -4.0]])


def test_unknown_builtin():
    with pytest.raises(UnsupportedError):
        builtin("not_a_map")


def test_translate_quadratic():
    f = black_box(1, lambda x: np.asarray(x, dtype=float) ** 2, name="square")
    g = translate_to_origin(f, 1.0)
    xs = np.linspace(-0.5, 0.5, 21)
    assert np.allclose(evaluate(g, xs), 2 * xs + xs**2, atol=1e-14)
    assert evaluate(g, 0.0) == 0.0


def test_translate_linear_is_unchanged():
    L = builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0)
    p = np.array([0.7, -0.3])
    g = translate_to_origin(L, p)
    pts = np.random.default_rng(0).normal(size=(50, 2))
    assert np.allclose(evaluate(g, pts), evaluate(L, pts), atol=1e-12)


def test_translate_at_zero_keeps_map():
    f = builtin("abs_re_plus_i_im")
    g = translate_to_origin(f, np.zeros(2))
    pts = np.random.default_rng(1).normal(size=(50, 2))
    assert np.allclose(evaluate(g, pts), evaluate(f, pts))
    assert g.homogeneous


def test_translate_round_trip():
    f = black_box(1, lambda x: np.sin(np.asarray(x, dtype=float)), name="sine")
    p = 0.4
    g = translate_to_origin(f, p)
    xs = np.linspace(-1, 1, 31)
    recovered = evaluate(g, xs - p) + evaluate(f, p)
    assert np.allclose(recovered, evaluate(f, xs), atol=1e-15)


def test_homogeneity_property_all_flagged_builtins():
    rng = np.random.default_rng(42)
    flagged = HOMOGENEOUS_PLANAR + [builtin("conj_pair")]
    for f in flagged:
        dirs = rng.normal(size=(1000, f.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fx = evaluate(f, dirs)
        for t in (0.5, 2.0, 10.0):
            gap = np.linalg.norm(evaluate(f, t * dirs) - t * fx, axis=1)
            bound = 1e-12 * t * np.linalg.norm(fx, axis=1)
            assert np.all(gap <= bound + 1e-15), f.name


def test_non_homogeneous_not_flagged():
    assert not builtin("norm_plus_i_im_pow", n=2).homogeneous
    assert not builtin("norm_times_x", dim=3).homogeneous


def test_nonfinite_output_is_error():
    f = black_box(1, lambda x: np.where(np.asarray(x) > 0, np.inf, 0.0), name="bad")
    with pytest.raises(EvaluationError):
        evaluate(f, 1.0)


def test_norm_times_x_dimension_cap():
    assert builtin("norm_times_x", dim=MAX_DIM).dim == MAX_DIM
    for dim in (0, MAX_DIM + 1, 1e20):
        with pytest.raises(PreconditionError, match=f"norm_times_x needs 1 <= dim <= {MAX_DIM}"):
            builtin("norm_times_x", dim=dim)


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        evaluate(builtin("abs_re_plus_i_im"), np.zeros(3))


def test_lambda_minus_planar_complex():
    f = builtin("abs_re_plus_i_im")
    g = lambda_minus(1 + 2j, f)
    z = np.array([0.3, -0.7])
    want = np.array(
        [1 * 0.3 - 2 * (-0.7) - abs(0.3), 1 * (-0.7) + 2 * 0.3 - (-0.7)]
    )
    assert np.allclose(evaluate(g, z), want)


def test_lambda_minus_real_structure_rejects_complex():
    f = builtin("norm_times_x", dim=3)
    g = lambda_minus(1j, f)
    with pytest.raises(PreconditionError):
        evaluate(g, np.ones(3))


INF = float("inf")
QUAD = DiniQuad(-2.0, -1.0, 3.0, 5.0)
CUSP = DiniQuad(-INF, -INF, INF, INF)  # sqrt|x| at 0


@pytest.mark.parametrize(
    "quad, combine, want",
    [
        (QUAD, lambda f: scale_map(2.5, f), (-5.0, -2.5, 7.5, 12.5)),
        (QUAD, lambda f: scale_map(-1.5, f), (1.5, 3.0, -7.5, -4.5)),  # c < 0 swaps within each side
        (QUAD, lambda f: scale_map(0.0, f), (0.0, 0.0, 0.0, 0.0)),
        (QUAD, lambda f: add_identity(0.5, f), (-1.5, -0.5, 3.5, 5.5)),
        (QUAD, lambda f: lambda_minus(1.0, f), (2.0, 3.0, -4.0, -2.0)),
        (CUSP, lambda f: scale_map(-2.0, f), (INF, INF, -INF, -INF)),
        (CUSP, lambda f: scale_map(0.0, f), (0.0, 0.0, 0.0, 0.0)),
        (CUSP, lambda f: add_identity(1.0, f), (-INF, -INF, INF, INF)),
        (CUSP, lambda f: lambda_minus(1.0, f), (INF, INF, -INF, -INF)),
    ],
    ids=["scale_positive", "scale_negative", "scale_zero", "add_identity", "lambda_minus",
         "cusp_scale_negative", "cusp_scale_zero", "cusp_add_identity", "cusp_lambda_minus"],
)
def test_map_algebra_carries_the_exact_quadruple(quad, combine, want):
    f = black_box(1, lambda x: np.asarray(x, dtype=float), dini_exact=lambda p: quad)
    assert combine(f).dini_exact(0.3).as_tuple() == want


def _rotation(c):
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def _central_jacobian(f, p, h=1e-6):
    cols = [(evaluate(f, p + h * e) - evaluate(f, p - h * e)) / (2.0 * h) for e in np.eye(f.dim)]
    return np.stack(cols, axis=-1)


def test_map_algebra_jacobians():
    f = builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    q = np.array([0.3, -0.7])
    lam, c = 1.5 - 0.5j, -0.4 + 2.0j
    g = lambda_minus(lam, f)
    assert np.allclose(g.jacobian(q), _rotation(lam) - M, rtol=0, atol=1e-15)
    assert np.allclose(g.jacobian(q), _central_jacobian(g, q), atol=1e-8)
    g = scale_map(c, f)
    assert np.allclose(g.jacobian(q), _rotation(c) @ M, rtol=0, atol=1e-15)
    assert np.allclose(g.jacobian(q), _central_jacobian(g, q), atol=1e-8)

    f = builtin("norm_times_x", dim=3)
    p = np.array([0.5, -1.0, 2.0])
    r = np.linalg.norm(p)
    g = add_identity(-0.75, f)
    assert np.allclose(g.jacobian(p), -0.75 * np.eye(3) + r * np.eye(3) + np.outer(p, p) / r, rtol=0, atol=1e-15)
    assert np.allclose(g.jacobian(p), _central_jacobian(g, p), atol=1e-6)
    g = scale_map(1j, f)  # no complex action on R^3: no derivative either
    assert g.jacobian is None
    assert scale_map(1j, builtin("sqrt_abs")).dini_exact is None


def test_scale_map_values():
    f = builtin("norm_plus_i_im")
    g = scale_map(-2.0, f)
    z = np.array([3.0, 4.0])
    assert np.allclose(evaluate(g, z), -2.0 * evaluate(f, z))


def test_conj_pair_is_isometry():
    f = builtin("conj_pair")
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 4))
    out = evaluate(f, pts)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1))


def test_identity_map_dims():
    for d in (1, 2, 5):
        ident = identity_map(d)
        x = np.linspace(1, d, d) if d > 1 else 0.7
        assert np.allclose(evaluate(ident, x), x)


def test_catalogue_names_fixed():
    for name in (
        "sqrt_abs",
        "signed_sqrt_abs",
        "sqrt_abs_sin_inv",
        "xsq_sin_inv",
        "abs_re_plus_i_im",
        "half_abs_re_plus_i_im",
        "real_linear",
        "norm_plus_i_im",
        "norm_plus_i_im_pow",
        "conj_pair",
        "norm_times_x",
        "cardioid_map",
        "norm_only",
    ):
        assert name in BUILTIN_NAMES
