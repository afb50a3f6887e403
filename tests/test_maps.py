import numpy as np
import pytest

from specpoint.core import DomainError, EvaluationError, PreconditionError, UnsupportedError
from specpoint.maps import (
    BUILTIN_NAMES,
    black_box,
    builtin,
    difference,
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


def test_domain_error():
    f = black_box(
        1,
        lambda x: np.sqrt(np.asarray(x, dtype=float)),
        name="sqrt",
        domain=lambda x: np.asarray(x) >= 0,
    )
    with pytest.raises(DomainError):
        evaluate(f, -1.0)
    with pytest.raises(DomainError):
        translate_to_origin(f, -2.0)


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


def test_scale_and_difference():
    f = builtin("norm_plus_i_im")
    g = scale_map(-2.0, f)
    z = np.array([3.0, 4.0])
    assert np.allclose(evaluate(g, z), -2.0 * evaluate(f, z))
    d = difference(f, f)
    assert np.allclose(evaluate(d, z), 0.0)


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
