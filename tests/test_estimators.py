import math
import re
import tracemalloc

import numpy as np
import pytest

from specpoint.core import PreconditionError, UnsupportedError, replace
from specpoint.estimators import (
    bifurcation_scan,
    c1_spectrum,
    scan_verdicts,
    spectrum_set,
)
from specpoint.homog2d import SigmaCurve, _max_chord, _curve_values, sigma_curve
from specpoint.maps import MapSpec, builtin, evaluate, translate_to_origin
from specpoint.numerics import sphere_extrema, unit_points
from specpoint.planar import growth_rates

RNG = np.random.default_rng(11)
RATE_RADII = 0.1 * 0.5 ** np.arange(11, 17)  # six radii of the growth rates; membership reads the last


def circle_rates(g, r):
    """(d, q) of a planar map at radius r by `planar.growth_rates`, the route of spec2d and classify.

    A declared sphere matrix A(r) gives them in closed form.  Any other map
    is traced as sigma_r, and |g(r u)| / r is evaluated again at its
    extremal samples, by a formula on floats.  A black box has no sampled
    angle at its extrema, so the two arcs next to each extremal sample are
    traced again at 257 angles, twice, each round 128 times finer.
    """
    at_r = MapSpec(name=g.name, dim=2, evaluator=lambda x, y, hypot: tuple(evaluate(g, [r * x, r * y]).tolist()),
                   sphere_matrix=None if g.sphere_matrix is None else (lambda _: g.sphere_matrix(r)))
    if at_r.sphere_matrix is not None:
        return growth_rates(at_r)
    curve = sigma_curve(g, radius=r)
    rates = []
    for pick in (np.argmin, np.argmax):
        arc, width = curve, np.diff(curve.thetas, append=2.0 * math.pi).max()  # the widest arc
        for _ in range(2):
            thetas = arc.thetas[pick(np.abs(arc.values))] + np.linspace(-width, width, 257)
            arc = SigmaCurve(thetas, _curve_values(g, thetas, r), math.nan, True)
            width /= 128.0
        rates.append(growth_rates(at_r, arc)[pick is np.argmax] / r)
    return tuple(rates)


def rate_extrema(g):
    """The sphere minima and maxima of |g(x)| / r at each of RATE_RADII.

    In the plane they are `circle_rates`; from dimension 3, the extreme
    singular values of the declared sphere matrix, the minima by
    `sphere_extrema` at lam = 0.
    """
    if g.dim == 2:
        return np.array([circle_rates(g, r) for r in RATE_RADII]).T
    mins = sphere_extrema(g, np.zeros(1, dtype=complex), RATE_RADII)[0]
    return mins, np.array([np.linalg.svd(g.sphere_matrix(r), compute_uv=False)[0] for r in RATE_RADII])


def rates(f, p):
    """(d_p, q_p): the least sphere minimum and the largest maximum of |f(p + x) - f(p)| / r over RATE_RADII."""
    mins, maxs = rate_extrema(translate_to_origin(f, p))
    return float(mins.min()), float(maxs.max())


def membership(f, lam, tol=1e-3):
    """(verdict, residual): the scan's verdict on lam at the last rate radius, and its residual there."""
    scan = bifurcation_scan(f, [lam], radii=RATE_RADII[-1:], tol=tol)
    return scan.verdicts[0], float(scan.residuals[0, 0])


def linear_map(M):
    M = np.asarray(M, dtype=float)

    def ev(x, _M=M):
        return np.asarray(x, dtype=float) @ _M.T

    return MapSpec(name="linear", dim=M.shape[0], evaluator=ev, jacobian=lambda q, _M=M: _M)


def linear_black_box(M, homogeneous=False):
    """u -> M u, declaring its sphere matrix M, which exact sphere minima need."""
    return MapSpec(name="black_box", dim=M.shape[0], evaluator=lambda x, _M=M: np.asarray(x) @ _M.T,
                   homogeneous=homogeneous, sphere_matrix=lambda r, _M=M: _M)


# ---------------------------------------------------------------------------
# growth rates


def test_rates_abs_re():
    d, q = rates(builtin("abs_re_plus_i_im"), np.zeros(2))
    assert abs(d - 1.0) < 2e-3
    assert abs(q - 1.0) < 2e-3


def test_rates_diagonal_linear():
    d, q = rates(builtin("real_linear", s=2.0, t=0.0, u=0.0, v=3.0), np.zeros(2))
    assert abs(d - 2.0) < 1e-6
    assert abs(q - 3.0) < 1e-6


def test_rates_difference_of_pow_map():
    # the difference map is i*y^2; analytic bound: its ratio at radius r is <= r
    g = builtin("norm_plus_i_im_pow", n=2)
    f = builtin("norm_only")
    diff = MapSpec(name="black_box", dim=2, evaluator=lambda x: g.evaluator(x) - f.evaluator(x),
                   complex_pairs=True)
    d, q = rates(diff, np.zeros(2))
    assert d <= q <= max(RATE_RADII) * (1.0 + 1e-12)
    assert q < 1e-3


def test_rates_match_singular_values():
    worst = 0.0
    for _ in range(12):
        M = RNG.normal(size=(2, 2))
        d, q = rates(linear_map(M), np.zeros(2))
        sv = np.linalg.svd(M, compute_uv=False)
        worst = max(worst, abs(d - sv[-1]), abs(q - sv[0]))
    assert worst < 1e-4


def test_every_radius_of_a_linear_black_box_polishes_to_singular_values():
    # per-radius minima and maxima are read, and refined, at every radius
    M = np.random.default_rng(23).normal(size=(2, 2))
    sv = np.linalg.svd(M, compute_uv=False)
    mins, maxs = rate_extrema(linear_map(M))
    assert mins.shape == maxs.shape == RATE_RADII.shape
    assert np.max(np.abs(mins - sv[-1])) <= 1e-12
    assert np.max(np.abs(maxs - sv[0])) <= 1e-12


@pytest.mark.parametrize("homogeneous", [False, True])
def test_rates_and_membership_polish_to_singular_values(homogeneous):
    # every radius, min and max: the rates of black boxes of the plane are the closed
    # form of their declared matrix, as spec2d's; membership, and the rates from
    # dimension 3, are solved from the declared matrices too
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6):
        M = rng.normal(size=(n, n))
        f = linear_black_box(M, homogeneous)
        d, q = rates(f, np.zeros(n))
        sv = np.linalg.svd(M, compute_uv=False)
        assert abs(d - sv[-1]) <= 1e-12 and abs(q - sv[0]) <= 1e-12
        gap = np.linalg.svd(0.7 * np.eye(n) - M, compute_uv=False)[-1]
        verdict, margin = membership(f, 0.7, tol=gap * (1.0 + 1e-9))
        assert abs(margin - gap) <= 1e-12
        assert verdict == "candidate"


def test_rates_order_invariant():
    d, q = rates(builtin("conj_pair"), np.zeros(4))
    assert 0.0 <= d <= q
    assert abs(d - 1.0) < 1e-6 and abs(q - 1.0) < 1e-6


def _pinned_rate_maps():
    """(key, map, p): seeded planar linear maps, plain and homogeneous, and two planar builtins."""
    rng = np.random.default_rng(29)
    for k in range(3):
        M = rng.normal(size=(2, 2))
        for homogeneous in (False, True):
            f = MapSpec(name="linear", dim=2, evaluator=lambda x, _M=M: np.asarray(x) @ _M.T,
                        homogeneous=homogeneous)
            yield f"linear2_{k}" + ("_hom" if homogeneous else ""), f, np.zeros(2)
    yield "norm_plus_i_im", builtin("norm_plus_i_im"), np.zeros(2)
    yield "half_abs_re_plus_i_im", builtin("half_abs_re_plus_i_im"), np.zeros(2)


# (d_p, q_p) of each map, the bits of `circle_rates` at the six radii, each read at the
# extremal samples of its trace and refined twice
PINNED_RATES = {
    "linear2_0": (0.17395667614288934, 0.4257870373696075),
    "linear2_0_hom": (0.17395667614288934, 0.4257870373696075),
    "linear2_1": (0.19525318942615874, 0.3275607989748459),
    "linear2_1_hom": (0.19525318942615874, 0.3275607989748459),
    "linear2_2": (0.6685685441071978, 1.0818337798953523),
    "linear2_2_hom": (0.6685685441071978, 1.0818337798953523),
    "norm_plus_i_im": (1.0, 1.414213562373095),
    "half_abs_re_plus_i_im": (0.5, 1.0),
}


def test_rates_keep_their_bits():
    # the rates of each radius keep their bits, plain and homogeneous alike
    assert {key: rates(f, p) for key, f, p in _pinned_rate_maps()} == PINNED_RATES


# ---------------------------------------------------------------------------
# membership


def test_membership_abs_re():
    # 0 lies 1 from the unit circle: rejected, its residual beyond reach 2 tol reads inf
    f = builtin("abs_re_plus_i_im")
    assert membership(f, 1 + 0j)[0] == "candidate"
    assert membership(f, 0j) == ("rejected", math.inf)
    assert membership(f, 0j, tol=0.6)[0] == "undecided"
    assert abs(membership(f, 0j, tol=0.6)[1] - 1.0) < 2e-3


def test_membership_annulus_bound():
    f = builtin("half_abs_re_plus_i_im")
    tol = 1e-3
    d, q = 0.5, 1.0
    for lam in (0.5 + 0j, 1j * 0.99, -0.49 + 0.0j, 1.0 + 0j):
        if membership(f, lam, tol=tol)[0] == "candidate":
            assert d - tol <= abs(lam) <= q + tol


def test_membership_rejects_complex_lambda_without_complex_structure():
    with pytest.raises(PreconditionError):
        membership(builtin("norm_times_x", dim=3), 0.5 + 0.2j)


@pytest.mark.parametrize("homogeneous", [False, True])
def test_membership_takes_the_scan_verdicts(homogeneous):
    # sigma_min(lam I - M) = 1.5e-3 at lam = 1: undecided in [tol, 2 tol), as a scan reads it
    M = np.array([[1.0015, 0.0], [0.0, 3.0]])
    f = linear_black_box(M, homogeneous)
    verdicts = {tol: membership(f, 1.0, tol=tol) for tol in (1e-3, 2e-3, 7e-4)}
    assert verdicts[1e-3][0] == "undecided"
    assert verdicts[2e-3][0] == "candidate"
    assert verdicts[7e-4][0] == "rejected"
    assert all(abs(margin - 1.5e-3) <= 1e-12 for _, margin in verdicts.values())


# ---------------------------------------------------------------------------
# smooth reduction


def test_c1_norm_times_x_r3():
    f = builtin("norm_times_x", dim=3)
    eigs = spectrum_set(c1_spectrum(f, np.array([1.0, 0.0, 0.0])))
    assert eigs == pytest.approx((1.0, 2.0))
    assert spectrum_set(c1_spectrum(f, np.zeros(3))) == pytest.approx((0.0,))


def test_c1_norm_times_x_r2_oracle():
    # independent oracle: eigen-solve the explicitly assembled matrix
    p = np.array([3.0, 4.0])
    M = 5.0 * np.eye(2) + np.outer(p, p) / 5.0
    want = sorted(np.linalg.eigvalsh(M))
    eigs = spectrum_set(c1_spectrum(builtin("norm_times_x", dim=2), p))
    assert [e.real for e in eigs] == pytest.approx(want, abs=1e-10)
    assert eigs == pytest.approx((5.0, 10.0), abs=1e-10)


def test_c1_requires_jacobian():
    with pytest.raises(PreconditionError):
        c1_spectrum(builtin("abs_re_plus_i_im"), np.zeros(2))


def test_local_curve_close_to_homogeneous_part():
    g = builtin("norm_plus_i_im_pow", n=2)
    local = sigma_curve(g, samples=2048, radius=1e-3)
    assert np.max(np.abs(np.abs(local.values) - 1.0)) < 2e-3


# ---------------------------------------------------------------------------
# bifurcation scanning


def test_scan_identity():
    lams = [complex(x, 0.0) for x in np.linspace(-2, 2, 41)]
    scan = bifurcation_scan(builtin("real_linear"), lams, tol=0.02)
    assert scan.candidates == (1 + 0j,)
    assert scan.contained_in_sigma


def test_scan_pow_map_circle():
    g = builtin("norm_plus_i_im_pow", n=2)
    xs = np.linspace(-1.5, 1.5, 13)
    lams = [complex(x, y) for y in xs for x in xs]
    scan = bifurcation_scan(g, lams, tol=0.05)
    assert scan.candidates
    for c in scan.candidates:
        assert abs(abs(c) - 1.0) < 0.06
    assert scan.contained_in_sigma


def test_exact_planar_candidates_are_contained_in_sigma():
    # R(lam) - A(r)'s least singular value is dist(lam, sigma_r), so a candidate lies within
    # tol of sigma_r.  This lam lies on sigma, the unit circle of z -> conj z: the containment
    # check traced sigma_r again to chords of 1e-3 and missed it by more than its reach 2e-6
    f = builtin("real_linear", s=1.0, t=0.0, u=0.0, v=-1.0)
    phi = 0.3 + math.pi / 2048
    lam = complex(math.cos(phi), math.sin(phi))
    scan = bifurcation_scan(f, [lam], radii=(1e-6,), tol=1e-6)
    assert scan.candidates == (lam,) and scan.residuals[0, 0] < 1e-15
    assert scan.contained_in_sigma is True


def test_scan_real_linear_circle_oracle():
    # oracle: the eigenvalue condition is the explicit circle equation
    s, t, u, v = 1.0, 2.0, 3.0, 4.0
    f = builtin("real_linear", s=s, t=t, u=u, v=v)
    center = complex((s + v) / 2.0, (u - t) / 2.0)
    radius = math.sqrt((s + v) ** 2 / 4.0 + (u - t) ** 2 / 4.0 - s * v + t * u)
    angles = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    on_circle = [center + radius * complex(math.cos(a), math.sin(a)) for a in angles]
    off_circle = [center, center + 1.5 * radius]
    scan = bifurcation_scan(f, on_circle + off_circle, tol=0.02)
    assert all(v == "candidate" for v in scan.verdicts[: len(on_circle)])
    assert all(v == "rejected" for v in scan.verdicts[len(on_circle) :])


def test_scan_candidates_subset_of_members():
    g = builtin("norm_plus_i_im_pow", n=2)
    xs = np.linspace(-1.5, 1.5, 7)
    lams = [complex(x, y) for y in xs for x in xs]
    scan = bifurcation_scan(g, lams, tol=0.05)
    for c in scan.candidates:
        assert membership(g, c, tol=0.06)[0] in ("candidate", "undecided")


@pytest.mark.parametrize(
    "f",
    [
        builtin("norm_times_x", dim=3),
        MapSpec(name="black_box", dim=2,
                evaluator=lambda x: np.asarray(x, dtype=float) @ np.array([[1.0, 2.0], [0.0, 3.0]]).T),
    ],
    ids=["norm_times_x3", "planar_black_box"],
)
def test_scan_rejects_complex_lambda_without_complex_structure(f):
    with pytest.raises(PreconditionError, match="without complex structure"):
        bifurcation_scan(f, [0.0, 0.5 + 0.5j])


def test_scan_requires_zero_at_origin():
    shifted = MapSpec(name="affine", dim=2, evaluator=lambda x: np.asarray(x, dtype=float) + 1.0)
    with pytest.raises(PreconditionError):
        bifurcation_scan(shifted, [0j])


def test_scan_three_dimensional_path():
    # lam x = |x| x has solutions exactly at lam = r on the radius-r sphere,
    # so the only small-radius accumulation point is lam = 0
    f = builtin("norm_times_x", dim=3)
    scan = bifurcation_scan(f, [0.0, 0.5, 1.0], radii=(1e-1, 1e-2, 1e-3), tol=0.02)
    assert scan.verdicts[0] == "candidate"
    assert scan.verdicts[1] == scan.verdicts[2] == "rejected"


def test_scan_gray_zone_is_undecided():
    # identity: the normalized residual at lam is exactly |lam - 1|, so a
    # point 1.5*tol from the eigenvalue cannot be certified either way
    tol = 0.02
    scan = bifurcation_scan(
        builtin("real_linear"), [1 + 0j, complex(1.0 + 1.5 * tol, 0.0), 2 + 0j], tol=tol
    )
    assert scan.verdicts == ("candidate", "undecided", "rejected")
    assert scan.candidates == (1 + 0j,)


def _complex_scaling(lam, dim):
    """R(lam): multiplication by lam on each (re, im) coordinate pair of R^dim."""
    return np.kron(np.eye(dim // 2), np.array([[lam.real, -lam.imag], [lam.imag, lam.real]]))


def _grid(x0, x1, y0, y1, nx, ny):
    return [complex(x, y) for y in np.linspace(y0, y1, ny) for x in np.linspace(x0, x1, nx)]


def dense_tree(g, radius, n=1 << 18):
    """A k-d tree on sigma_r at n uniform angles."""
    from scipy.spatial import cKDTree

    dense = _curve_values(g, np.arange(n) * (2.0 * math.pi / n), radius)
    return cKDTree(np.stack([dense.real, dense.imag], -1))


def dense_distances(tree, lams, bound=np.inf):
    """min over the tree's angles of |lam - sigma_r(theta)| where it is below bound, else inf."""
    lams = np.asarray(lams, dtype=complex)
    return tree.query(np.stack([lams.real, lams.imag], -1), distance_upper_bound=bound)[0]


def assert_residuals_within_half_a_chord(f, lams, tol, radius, tree=None):
    """Each residual of the scan lies between the dense minimum and that minimum plus half the longest chord.

    A residual beyond reach 2 tol reads inf; then the dense minimum plus half the chord lies beyond 2 tol too.
    """
    scan = bifurcation_scan(f, lams, radii=(radius,), tol=tol)
    half = 0.5 * _max_chord(sigma_curve(f, samples=2048, chord_bound=tol / 16.0, radius=radius).values)
    tree = tree or dense_tree(translate_to_origin(f, np.zeros(2)), radius)
    dense = dense_distances(tree, lams, bound=4.0 * tol)
    res = scan.residuals[:, 0]
    near = np.isfinite(res)
    assert np.all(res[near] >= dense[near] - 1e-12), np.max(dense[near] - res[near])
    assert np.all(res[near] <= dense[near] + half)
    assert np.all(res[near] <= 2.0 * tol)
    assert np.all(dense[~near] + half > 2.0 * tol)
    return scan


@pytest.mark.parametrize("nx, ny", [(24, 30), (128, 128)], ids=["default-grid", "grid-cap"])
def test_planar_scan_memory_and_residuals_match_the_unchunked_scan(nx, ny):
    # the unchunked scan peaked at about 672 MB on the 128 x 128 grid
    f = builtin("norm_plus_i_im_pow", n=2)
    xs, ys = np.linspace(-1.5, 1.5, nx), np.linspace(-1.5, 1.5, ny)
    lams = [complex(x, y) for y in ys for x in xs]  # the order of `bifurcate --grid`
    tracemalloc.start()
    try:
        scan = bifurcation_scan(f, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
    # the reference is the minimum over 2^18 angles, which no chunk of lams splits
    again = assert_residuals_within_half_a_chord(f, lams, 0.02, scan.radii[-1])
    assert np.array_equal(again.residuals, scan.residuals) and again.verdicts == scan.verdicts


@pytest.mark.parametrize(
    "f",
    [builtin("norm_plus_i_im_pow", n=2), builtin("real_linear", s=0.5, t=-1.0, u=0.8, v=1.2)],
    ids=["norm_plus_i_im_pow2", "real_linear"],
)
def test_planar_scan_residuals_do_not_depend_on_the_batch(f):
    # every lam gets the same bits whether it is scanned with the whole
    # 128 x 128 grid or with 1000 lams at a time
    lams = np.array(_grid(-1.5, 1.5, -1.5, 1.5, 128, 128))
    whole = bifurcation_scan(f, lams).residuals
    sliced = np.concatenate([bifurcation_scan(f, lams[lo:lo + 1000]).residuals
                             for lo in range(0, lams.size, 1000)])
    assert np.array_equal(whole, sliced)


@pytest.mark.parametrize(
    "s, t, u, v",
    [(0.5, -1.0, 0.8, 1.2), (1.0, -2.0, 2.0, 1.0), (2.0, 0.5, -0.3, -1.0), (-1.2, 0.7, 1.1, 0.4)],
)
def test_planar_scan_matches_sigma_min_of_real_linear(s, t, u, v):
    # a real-linear map's residual at lam is exactly sigma_min(R(lam) - M);
    # it vanishes on the circle of the map's eigenvalue curve
    f = builtin("real_linear", s=s, t=t, u=u, v=v)
    M = np.array([[s, t], [u, v]])
    center = complex((s + v) / 2.0, (u - t) / 2.0)
    radius = math.sqrt(max((s + v) ** 2 / 4.0 + (u - t) ** 2 / 4.0 - s * v + t * u, 0.0))
    on_circle = center + radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 37))
    lams = np.concatenate([_grid(-3.0, 3.0, -3.0, 3.0, 15, 15), on_circle])
    exact = np.array([np.linalg.svd(_complex_scaling(l, 2) - M, compute_uv=False)[-1] for l in lams])
    scan = bifurcation_scan(f, lams)
    assert np.max(np.abs(scan.residuals - exact[:, None])) <= 1e-12
    assert np.max(exact[-37:]) <= 1e-12


# ---------------------------------------------------------------------------
# general-dimension scans against exact minima and the per-lambda search


def test_scan_conj_pair_matches_exact_sigma_min():
    # conj_pair is R-linear, so min over |u| = 1 of |lam u - f(u)| = sigma_min(R(lam) - M)
    f = builtin("conj_pair")
    M = evaluate(f, np.eye(4)).T
    lams = _grid(-1.5, 1.5, -1.5, 1.5, 8, 8)
    scan = bifurcation_scan(f, lams)
    exact = np.array([np.linalg.svd(_complex_scaling(l, 4) - M, compute_uv=False)[-1] for l in lams])
    assert np.max(np.abs(scan.residuals - exact[:, None])) <= 1e-12
    assert scan.residuals.shape == (len(lams), 1)  # the smallest radius alone


@pytest.mark.parametrize("dim", range(2, 9))
def test_scan_linear_black_box_matches_sigma_min(dim):
    # no complex_pairs: lam acts by real multiplication; the scan solves the declared matrix
    rng = np.random.default_rng(40 + dim)
    M = rng.normal(size=(dim, dim))
    lams = np.concatenate([np.linalg.eigvals(M).real, rng.uniform(-3.0, 3.0, size=6)])
    exact = np.array([np.linalg.svd(l * np.eye(dim) - M, compute_uv=False)[-1] for l in lams])
    for homogeneous in (True, False):
        scan = bifurcation_scan(linear_black_box(M, homogeneous), lams)
        assert np.max(np.abs(scan.residuals - exact[:, None])) <= 1e-12


@pytest.mark.parametrize("dim", range(1, 9))
def test_sphere_extrema_of_a_shifted_linear_map_are_its_extreme_singular_values(dim):
    # min over unit u of |lam u - M u| at every radius, solved from the declared matrix in
    # every dimension
    rng = np.random.default_rng(100 + dim)
    M = rng.normal(size=(dim, dim))
    lams = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, size=5)]).astype(complex)
    radii = (0.1, 0.01)
    sv = np.array([np.linalg.svd(l.real * np.eye(dim) - M, compute_uv=False) for l in lams])
    mins = sphere_extrema(linear_black_box(M), lams, radii)
    assert mins.shape == (lams.size, len(radii))
    assert np.max(np.abs(mins - sv[:, -1:])) <= 1e-12


@pytest.mark.parametrize("dim", [3, 4])
def test_scan_non_homogeneous_keeps_per_lambda_verdicts(dim):
    # lam x = |x| x: the residual at radius r is |lam - r|, so only lam near 0 is a candidate
    g = builtin("norm_times_x", dim=dim)
    lams = np.array([complex(x) for x in np.linspace(-0.06, 0.06, 13)] + [0.5 + 0j, -1.0 + 0j])
    radii = (1e-1, 1e-2, 1e-3)
    new = sphere_extrema(g, lams, radii)
    exact = np.abs(lams.real[:, None] - np.array(radii))
    assert np.max(np.abs(new - exact)) <= 1e-12
    assert scan_verdicts(new, 0.02)[1] == scan_verdicts(exact, 0.02)[1]
    assert set(scan_verdicts(new, 0.02)[1]) == {"candidate", "undecided", "rejected"}


@pytest.mark.parametrize(
    "name, params, grid",
    [
        ("norm_times_x", {"dim": 3}, (-1.5, 1.5, 0.0, 0.0, 63, 1)),  # a real map takes real lams
        ("conj_pair", {}, (-1.5, 1.5, -1.5, 1.5, 9, 7)),
        ("norm_plus_i_im_pow", {"n": 2}, (-1.5, 1.5, -1.5, 1.5, 9, 7)),
        ("norm_plus_i_im_pow", {"n": 3}, (-1.5, 1.5, -1.5, 1.5, 9, 7)),
    ],
    ids=["norm_times_x3", "conj_pair", "norm_plus_i_im_pow2", "norm_plus_i_im_pow3"],
)
def test_scan_residuals_match_the_per_radius_batches(name, params, grid):
    # the scan solves the smallest radius alone: it has the bits of a scan of that radius
    # only, and a declared matrix those of that radius's column in a batch of every radius,
    # in which no entry of sphere_extrema depends on the others
    f = builtin(name, **params)
    lams = np.array(_grid(*grid))
    radii = (1e-1, 1e-2, 1e-3)
    scan = bifurcation_scan(f, lams, radii=radii)
    alone = bifurcation_scan(f, lams, radii=radii[-1:])
    assert np.array_equal(scan.residuals, alone.residuals) and scan.verdicts == alone.verdicts
    if f.sphere_matrix is not None:
        batch = sphere_extrema(translate_to_origin(f, np.zeros(f.dim)), lams, radii)
        assert np.array_equal(scan.residuals, batch[:, -1:])


def test_norm_times_x_sphere_minima_are_exact_in_every_dimension():
    # |x| x is r x on the sphere of radius r: its declared sphere matrix r I
    # gives |lam - r| bit for bit on the 128 real lambdas of a bifurcate grid
    lams = np.linspace(-1.5, 1.5, 128).astype(complex)
    radii = (1e-1, 1e-2, 1e-3)
    exact = np.abs(lams.real[:, None] - np.array(radii))
    for dim in range(1, 17):
        assert np.array_equal(sphere_extrema(builtin("norm_times_x", dim=dim), lams, radii), exact), dim


def test_rates_of_a_homogeneous_map_repeat_one_radius():
    f = builtin("conj_pair")
    mins, maxs = rate_extrema(f)
    assert len(set(mins)) == len(set(maxs)) == 1
    assert abs(mins[0] - 1.0) < 1e-12 and abs(maxs[0] - 1.0) < 1e-12
    assert membership(f, 0.5 + 0.5j)[0] == "rejected"


@pytest.mark.parametrize(
    "f",
    [
        replace(builtin("norm_times_x", dim=3), sphere_matrix=None),
        replace(builtin("conj_pair"), sphere_matrix=None),
        translate_to_origin(builtin("conj_pair"), np.array([0.3, -0.2, 0.5, 0.1])),
        linear_map(np.random.default_rng(6).normal(size=(5, 5))),
    ],
    ids=["norm_times_x3", "conj_pair", "conj_pair@p", "linear5"],
)
def test_sphere_extrema_need_a_sphere_matrix_from_dimension_3(f):
    # the curve route stops at the plane; no builtin of dimension 3 or more lacks its matrix
    assert f.dim >= 3 and f.sphere_matrix is None
    lams = np.array([0.0, 0.5])
    with pytest.raises(UnsupportedError, match=re.escape(f.name)):
        sphere_extrema(f, lams, (1e-3,))
    with pytest.raises(UnsupportedError, match=re.escape(f.name)):
        bifurcation_scan(f, lams)


# ---------------------------------------------------------------------------
# the curve route: residuals are distances to the nearest sample of sigma_r


SAMPLED_PLANAR = ["abs_re_plus_i_im", "half_abs_re_plus_i_im", "norm_plus_i_im", "cardioid_map",
                  "norm_plus_i_im_pow", "norm_only"]


def test_sampled_planar_builtins_are_the_ones_without_a_sphere_matrix():
    from specpoint import planar

    assert sorted(SAMPLED_PLANAR) == sorted(n for n in planar.BUILTINS if builtin(n).sphere_matrix is None)


@pytest.mark.parametrize("name", SAMPLED_PLANAR)
def test_curve_residuals_lie_within_half_a_chord_of_the_dense_minimum(name):
    # the default grid of `bifurcate --fn` and the 128 x 128 grid of the corpus, at
    # several tol, at the smallest default radius and at a coarse one
    f = builtin(name)
    default, fine = _grid(-1.5, 1.5, -1.5, 1.5, 24, 30), _grid(-1.5, 2.0, -1.5, 1.5, 128, 128)
    for radius in (1e-3, 0.5):
        tree = dense_tree(translate_to_origin(f, np.zeros(2)), radius)
        for lams, tol in ((default, 0.02), (default, 0.1), (fine, 0.005), (fine, 0.02)):
            scan = assert_residuals_within_half_a_chord(f, lams, tol, radius, tree)
            assert scan.contained_in_sigma is (True if scan.candidates else None)


def test_found_corner_minima_of_half_abs_re_are_undecided():
    # the golden polish stopped at 0.010297 near a corner of sigma and rejected
    # these two lambdas of the 128 x 128 corpus grid; their distance to the curve is
    # 0.0087019 over 2^18 angles, in [tol, 2 tol)
    xs, ys = np.linspace(-1.5, 2.0, 128), np.linspace(-1.5, 1.5, 128)
    lams = [complex(xs[91], ys[62]), complex(xs[91], ys[65])]
    assert all(abs(l - (1.0079 + 0.0354j * s)) < 1e-4 for l, s in zip(lams, (-1, 1)))
    f = builtin("half_abs_re_plus_i_im")
    scan = bifurcation_scan(f, lams, tol=0.005)
    assert scan.verdicts == ("undecided", "undecided")
    dense = dense_distances(dense_tree(f, scan.radii[-1]), lams)
    assert np.all(np.abs(scan.residuals[:, 0] - 0.008702) < 5e-7)
    assert np.all(np.abs(dense - 0.0087019) < 5e-8)


@pytest.mark.parametrize("name", ["sqrt_abs", "signed_sqrt_abs", "sqrt_abs_sin_inv", "xsq_sin_inv"])
def test_one_dimensional_builtins_need_dini(name):
    # a 1-D map without a sphere matrix has no sigma_r curve to scan; its bifurcation set is
    # dini.sigma_distances'
    with pytest.raises(UnsupportedError, match="declares no sphere matrix"):
        bifurcation_scan(builtin(name), [0.0, 1.0])


def test_a_trace_at_the_sample_cap_leaves_lambdas_within_its_chord_undecided():
    # tol 1e-9 asks for chords of 6.25e-11: sigma stops at 2^20 samples, and a lam
    # beyond 2 tol of every sample but within the longest chord cannot be rejected
    f = builtin("norm_plus_i_im")
    tol, r = 1e-9, 1e-3
    curve = sigma_curve(f, samples=2048, chord_bound=tol / 16.0, radius=r)
    assert curve.values.size == 1 << 20 and not curve.chord_met
    chord = _max_chord(curve.values)
    assert 1e-6 < chord < 1e-4
    # 16 samples away from the cusp at theta = 0, each moved along its normal
    k = np.arange(1 << 15, 1 << 20, 1 << 16)
    picks, tangent = curve.values[k], curve.values[k + 1] - curve.values[k - 1]
    normal = 1j * tangent / np.abs(tangent)
    near, far = picks + 0.1 * chord * normal, picks + 1.5 * chord * normal
    scan = bifurcation_scan(f, np.concatenate([near, far, picks]), radii=(r,), tol=tol)
    res, n = scan.residuals[:, 0], picks.size
    assert np.all((res[:n] > 2.0 * tol) & (res[:n] <= chord))
    assert scan.verdicts == ("undecided",) * n + ("rejected",) * n + ("candidate",) * n
    assert np.all(np.isinf(res[n:2 * n])) and np.all(res[2 * n:] == 0.0)
