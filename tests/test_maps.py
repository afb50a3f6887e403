import numpy as np
import pytest

from specpoint.core import DomainError, EvaluationError, MapSpec, PreconditionError, UnsupportedError, replace
from specpoint.estimators import bifurcation_scan
from specpoint.maps import BUILTIN_NAMES, MAX_DIM, builtin, evaluate, scalar_action, translate_to_origin
from specpoint.numerics import sphere_extrema
from test_homog2d import affine_map

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
    f = MapSpec(name="square", dim=1, evaluator=lambda x: np.asarray(x, dtype=float) ** 2)
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
    f = MapSpec(name="sine", dim=1, evaluator=lambda x: np.sin(np.asarray(x, dtype=float)))
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
    f = MapSpec(name="bad", dim=1, evaluator=lambda x: np.where(np.asarray(x) > 0, np.inf, 0.0))
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


def test_scalar_action_minus_a_planar_map():
    # lam z - f(z) with lam = 1 + 2i acting on the plane as a complex number
    f = builtin("abs_re_plus_i_im")
    z = np.array([0.3, -0.7])
    want = np.array(
        [1 * 0.3 - 2 * (-0.7) - abs(0.3), 1 * (-0.7) + 2 * 0.3 - (-0.7)]
    )
    assert np.allclose(scalar_action(1 + 2j, z, f.complex_pairs) - evaluate(f, z), want)


def _rotation(c):
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def _central_jacobian(f, p, h=1e-6):
    cols = [(evaluate(f, p + h * e) - evaluate(f, p - h * e)) / (2.0 * h) for e in np.eye(f.dim)]
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize(
    "f, p",
    [
        (builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0), np.array([0.3, -0.7])),
        (builtin("conj_pair"), np.array([0.3, -0.7, 1.1, 0.2])),
        (builtin("norm_times_x", dim=1), np.array([-0.6])),
        (builtin("norm_times_x", dim=2), np.array([0.3, -0.7])),
        (builtin("norm_times_x", dim=3), np.array([0.5, -1.0, 2.0])),
    ],
    ids=["real_linear", "conj_pair", "norm_times_x(1)", "norm_times_x(2)", "norm_times_x(3)"],
)
def test_builtin_jacobians_match_central_differences(f, p):
    assert np.allclose(f.jacobian(p), _central_jacobian(f, p), atol=1e-6)


def _exact_minima(g, lams, M):
    """sigma_min(R(lam) - M) for each lam, R(lam) the matrix of the scalar action on g's space."""
    out = []
    for lam in lams:
        R = np.kron(np.eye(g.dim // 2), _rotation(lam)) if g.complex_pairs else lam.real * np.eye(g.dim)
        out.append(np.linalg.svd(R - M, compute_uv=False)[-1])
    return np.array(out)


@pytest.mark.parametrize(
    "f",
    [builtin("real_linear", **dict(zip("stuv", np.random.default_rng(5).normal(size=4))))],
    ids=["real_linear"],
)
@pytest.mark.parametrize(
    "a, c",
    [(0.0, -0.4 + 2.0j), (0.3 - 1.1j, 1.0), (1.5 - 0.5j, -1.0)],
    ids=["scale_map", "add_identity", "lambda_minus"],
)
def test_declared_sphere_minima_of_an_affine_combination_of_real_linear_are_its_singular_values(f, a, c):
    # a x + c f(x) declares R(a) + R(c) A(r), composed from f's, and its minima
    # are the singular values of the matrix read off the map
    Ra, Rc = (scalar_action(s, np.eye(f.dim), f.complex_pairs).T for s in (a, c))
    g = replace(affine_map(a, c, f), sphere_matrix=lambda r: Ra + Rc @ f.sphere_matrix(r))
    M = evaluate(g, np.eye(g.dim)).T
    lams = np.array([0.0, 0.7 - 0.2j, -1.1 + 2.0j, 2.5 + 0.5j])
    res = sphere_extrema(g, lams, (0.1, 0.01))
    assert np.allclose(res, _exact_minima(g, lams, M)[:, None], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "a, c",
    [(0.0, -0.4 + 2.0j), (0.3 - 1.1j, 1.0), (1.5 - 0.5j, -1.0)],
    ids=["scale_map", "add_identity", "lambda_minus"],
)
def test_declared_sphere_minima_of_an_affine_combination_of_conj_pair_are_its_singular_values(a, c):
    # on R^4 sphere extrema need a sphere matrix: a x + c f(x) declares R(a) + R(c) A(r),
    # composed from f's, and its minima are the singular values of the matrix read off the map
    f = builtin("conj_pair")
    Ra, Rc = (scalar_action(s, np.eye(f.dim), f.complex_pairs).T for s in (a, c))
    g = replace(affine_map(a, c, f), sphere_matrix=lambda r: Ra + Rc @ f.sphere_matrix(r))
    M = evaluate(g, np.eye(g.dim)).T
    lams = np.array([0.0, 0.7 - 0.2j, -1.1 + 2.0j, 2.5 + 0.5j])
    res = sphere_extrema(g, lams, (0.1, 0.01))
    assert np.allclose(res, _exact_minima(g, lams, M)[:, None], rtol=0, atol=1e-12)


def test_sampled_sphere_minima_that_vary_with_the_radius():
    # 0.5 x + |x| x is linear on each sphere, A(r) = (0.5 + r) I: its sigma_r is the point
    # 0.5 + r, and the scan's residuals are |lam - 0.5 - r| at every radius (tol 2: reach 4)
    f = builtin("norm_times_x", dim=2)
    g = MapSpec(name="0.5*id+norm_times_x(2)", dim=2, evaluator=lambda x: 0.5 * np.asarray(x) + f.evaluator(x))
    lams = np.linspace(-1.5, 1.5, 13).astype(complex)
    for r in (0.1, 0.01):
        res = bifurcation_scan(g, lams, radii=(r,), tol=2.0).residuals[:, 0]
        assert np.allclose(res, np.abs(lams.real - 0.5 - r), rtol=0, atol=1e-15)


def test_translate_to_origin_keeps_the_sphere_matrix_at_the_origin_only():
    for f in (builtin("conj_pair"), builtin("norm_times_x", dim=3)):
        assert translate_to_origin(f, np.zeros(f.dim)).sphere_matrix is f.sphere_matrix
        p = np.linspace(0.1, 0.5, f.dim)
        assert translate_to_origin(f, p).sphere_matrix is None


def test_sphere_matrices_of_the_builtins_and_the_identity():
    # f(r u) = r A(r) u for unit u, checked on evaluations
    u = np.random.default_rng(8).normal(size=(6, 16))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    maps = [builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0), builtin("conj_pair"), builtin("real_linear")] + [
        builtin("norm_times_x", dim=d) for d in (1, 2, 3, 16)]
    for f in maps:
        for r in (1e-3, 0.1, 2.0):
            x = r * u[:, :f.dim] / np.linalg.norm(u[:, :f.dim], axis=-1, keepdims=True)
            want = evaluate(f, x if f.dim > 1 else x[:, 0])
            got = x @ np.asarray(f.sphere_matrix(r)).T
            assert np.allclose(got if f.dim > 1 else got[:, 0], want, rtol=1e-15, atol=0), f.name
    nonlinear = ["abs_re_plus_i_im", "norm_plus_i_im", "norm_only", "sqrt_abs", "xsq_sin_inv"]
    assert all(builtin(name).sphere_matrix is None for name in nonlinear)


def test_conj_pair_is_isometry():
    f = builtin("conj_pair")
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 4))
    out = evaluate(f, pts)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1))


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
