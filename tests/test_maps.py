import numpy as np
import pytest

from specpoint import planar
from specpoint.core import DomainError, EvaluationError, MapSpec, PreconditionError, UnsupportedError
from specpoint.maps import BUILTIN_NAMES, MAX_DIM, builtin, evaluate, translate_to_origin
from test_homog2d import affine_map, times

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


@pytest.mark.parametrize("name", ["sqrt_abs", "signed_sqrt_abs", "sqrt_abs_sin_inv", "xsq_sin_inv"])
def test_a_one_dimensional_builtin_refuses_a_batch_naming_the_map(name):
    # its evaluator is dini's and takes one float; a batch is a wrong shape, not numpy's TypeError
    f, xs = builtin(name), np.array([1.0, 2.0])
    for g in (f, translate_to_origin(f, 0.5)):
        for batch in (xs, xs[:1], xs[:, None]):
            with pytest.raises(DomainError, match=f"map {g.name} expects one float"):
                evaluate(g, batch)
        assert float(evaluate(g, 1.0)) == g.evaluator(1.0)
    # an array evaluator of dimension one takes a batch
    assert evaluate(builtin("norm_times_x", dim=1), xs).tolist() == [1.0, 4.0]


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
    "a, c",
    [(0.0, -0.4 + 2.0j), (0.3 - 1.1j, 1.0), (1.5 - 0.5j, -1.0)],
    ids=["scale_map", "add_identity", "lambda_minus"],
)
def test_declared_sphere_minima_of_an_affine_combination_of_real_linear_are_its_singular_values(a, c):
    # a x + c f(x) of a real_linear f is real_linear of the matrix R(a) + R(c) A, read off
    # the map; that builtin's closed-form minima are the singular values of R(lam) - M
    f = builtin("real_linear", **dict(zip("stuv", np.random.default_rng(5).normal(size=4))))
    M = evaluate(affine_map(a, c, f), np.eye(2)).T
    assert np.allclose(M, times(a, np.eye(2)).T + times(c, np.eye(2)).T @ f.sphere_matrix(1.0), rtol=0, atol=1e-15)
    g = planar.builtin("real_linear", **dict(zip("stuv", M.ravel().tolist())))
    lams = np.array([0.0, 0.7 - 0.2j, -1.1 + 2.0j, 2.5 + 0.5j])
    for r in (0.1, 0.01):
        got = [g.sphere_min(complex(lam), r) for lam in lams]
        assert np.allclose(got, _exact_minima(g, lams, M), rtol=0, atol=1e-12)


def test_sampled_sphere_minima_that_vary_with_the_radius():
    # 0.5 x + |x| x is linear on each sphere, A(r) = (0.5 + r) I: its sigma_r is the point
    # 0.5 + r, and the scan's residuals are |lam - 0.5 - r| at every radius (tol 2: reach 4)
    g = MapSpec(name="0.5*id+norm_times_x(2)", dim=2,
                evaluator=lambda x, y, hypot: (0.5 * x + hypot(x, y) * x, 0.5 * y + hypot(x, y) * y))
    lams = np.linspace(-1.5, 1.5, 13).astype(complex).tolist()
    for r in (0.1, 0.01):
        res = planar.curve_distances(g, lams, r, 2.0)[0]
        assert np.allclose(res, np.abs(np.real(lams) - 0.5 - r), rtol=0, atol=1e-15)


def test_translate_to_origin_keeps_the_sphere_matrix_at_the_origin_only():
    for f in (builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0), builtin("conj_pair"), builtin("norm_times_x", dim=3)):
        at = translate_to_origin(f, np.zeros(f.dim))
        assert at.sphere_matrix is f.sphere_matrix and at.sphere_min is f.sphere_min is not None
        p = np.linspace(0.1, 0.5, f.dim)
        assert translate_to_origin(f, p).sphere_matrix is translate_to_origin(f, p).sphere_min is None


def _sphere_matrix(f, r):
    """A(r) with f(r u) = r A(r) u: real_linear's declared matrix, conj_pair's Jacobian, r I for norm_times_x."""
    if f.sphere_matrix is not None:
        return np.asarray(f.sphere_matrix(r))
    return f.jacobian(np.zeros(f.dim)) if f.name == "conj_pair" else r * np.eye(f.dim)


def test_sphere_matrices_and_minima_of_the_builtins_and_the_identity():
    # f(r u) = r A(r) u for unit u, checked on evaluations, and each declared sphere
    # minimum is the least singular value of R(lam) - A(r), the real lam of a map
    # without complex structure acting as lam I
    rng = np.random.default_rng(8)
    u = rng.normal(size=(6, 16))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    lams = (rng.normal(size=5) + 1j * rng.normal(size=5)).tolist()
    maps = [builtin("real_linear", s=1.0, t=2.0, u=3.0, v=4.0), builtin("conj_pair"), builtin("real_linear")] + [
        builtin("norm_times_x", dim=d) for d in (1, 2, 3, 16)]
    for f in maps:
        for r in (1e-3, 0.1, 2.0):
            A = _sphere_matrix(f, r)
            x = r * u[:, :f.dim] / np.linalg.norm(u[:, :f.dim], axis=-1, keepdims=True)
            want = evaluate(f, x if f.dim > 1 else x[:, 0])
            got = x @ A.T
            assert np.allclose(got if f.dim > 1 else got[:, 0], want, rtol=1e-15, atol=0), f.name
            for lam in lams if f.complex_pairs else [complex(lam.real) for lam in lams]:
                R = times(lam, np.eye(f.dim)).T if f.complex_pairs else lam.real * np.eye(f.dim)
                least = np.linalg.svd(R - A, compute_uv=False)[-1]
                assert abs(f.sphere_min(lam, r) - least) <= 1e-14 * max(1.0, least), (f.name, lam, r)
    nonlinear = ["abs_re_plus_i_im", "norm_plus_i_im", "norm_only", "sqrt_abs", "xsq_sin_inv"]
    assert all(builtin(name).sphere_matrix is builtin(name).sphere_min is None for name in nonlinear)


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
