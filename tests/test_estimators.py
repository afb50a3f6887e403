import math
import tracemalloc

import numpy as np
import pytest

from specpoint.core import PreconditionError, replace
from specpoint.estimators import (
    DIVERGENCE_THRESHOLD,
    RADII,
    bifurcation_scan,
    c1_spectrum,
    estimate_rates,
    scan_verdicts,
    sigma_membership,
    spectrum_set,
)
from specpoint.homog2d import sigma_curve
from specpoint.maps import MapSpec, builtin, evaluate, translate_to_origin
from specpoint.numerics import row_norm, sphere_directions, sphere_extrema, sphere_polish, unit_points
from test_numerics import scalar_sphere_polish

RNG = np.random.default_rng(11)


def linear_map(M):
    M = np.asarray(M, dtype=float)

    def ev(x, _M=M):
        return np.asarray(x, dtype=float) @ _M.T

    return MapSpec(name="linear", dim=M.shape[0], evaluator=ev, jacobian=lambda q, _M=M: _M)


# the identity of R with no sphere matrix: the sampled path, whose sphere is the two points +-1
IDENTITY_1D = MapSpec(name="identity", dim=1, evaluator=lambda x: np.asarray(x, dtype=float), homogeneous=True)


# ---------------------------------------------------------------------------
# rates


def test_rates_abs_re():
    r = estimate_rates(builtin("abs_re_plus_i_im"), np.zeros(2))
    assert abs(r.d_p - 1.0) < 2e-3
    assert abs(r.q_p - 1.0) < 2e-3


def test_rates_diagonal_linear():
    r = estimate_rates(builtin("real_linear", s=2.0, t=0.0, u=0.0, v=3.0), np.zeros(2))
    assert abs(r.d_p - 2.0) < 1e-6
    assert abs(r.q_p - 3.0) < 1e-6


def test_rates_difference_of_pow_map():
    # the difference map is i*y^2; analytic bound: its ratio at radius r is <= r
    g = builtin("norm_plus_i_im_pow", n=2)
    f = builtin("norm_only")
    diff = MapSpec(name="black_box", dim=2, evaluator=lambda x: g.evaluator(x) - f.evaluator(x),
                   complex_pairs=True)
    r = estimate_rates(diff, np.zeros(2))
    assert r.d_p <= r.q_p <= max(r.radii_used) * (1.0 + 1e-12)
    assert r.q_p < 1e-3


def test_rates_match_singular_values():
    worst = 0.0
    for _ in range(12):
        n = int(RNG.integers(2, 6))
        M = RNG.normal(size=(n, n))
        r = estimate_rates(linear_map(M), np.zeros(n))
        sv = np.linalg.svd(M, compute_uv=False)
        worst = max(worst, abs(r.d_p - sv[-1]), abs(r.q_p - sv[0]))
    assert worst < 1e-4


def test_every_radius_of_a_linear_black_box_polishes_to_singular_values():
    # per-radius minima and maxima are polished at every radius
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        M = rng.normal(size=(n, n))
        sv = np.linalg.svd(M, compute_uv=False)
        r = estimate_rates(linear_map(M), np.zeros(n))
        assert len(r.per_radius_min) == len(r.per_radius_max) == len(r.radii_used)
        assert np.max(np.abs(np.array(r.per_radius_min) - sv[-1])) <= 1e-12
        assert np.max(np.abs(np.array(r.per_radius_max) - sv[0])) <= 1e-12


def test_rates_order_invariant():
    r = estimate_rates(builtin("conj_pair"), np.zeros(4))
    assert 0.0 <= r.d_p <= r.q_p
    assert abs(r.d_p - 1.0) < 1e-6 and abs(r.q_p - 1.0) < 1e-6


def test_rates_divergence_flag():
    # the ratio |f(x)| / |x| is |x|^-1.2, which grows toward the origin
    def ev(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return np.where(r > 0, x * np.where(r > 0, r, 1.0) ** -1.2, 0.0 * x)

    f = MapSpec(name="inv_pow_growth", dim=2, evaluator=ev)
    # the radii 0.1 * 2^-11 .. 0.1 * 2^-16 read about 1.5e5 .. 9.5e6, so
    # DIVERGENCE_THRESHOLD = 1e6 flags the largest ratio and not the smallest
    ratios = RADII ** -1.2
    assert ratios.max() > DIVERGENCE_THRESHOLD > ratios.min()
    r = estimate_rates(f, np.zeros(2))
    assert r.q_flagged and math.isinf(r.q_p)
    assert not r.d_flagged and abs(r.d_p - ratios.min()) <= 1e-9 * ratios.min()


@pytest.mark.parametrize("homogeneous", [False, True])
def test_rates_and_membership_polish_to_singular_values(homogeneous):
    # every radius, min and max, is polished; sampling alone is ~1e-4 off
    rng = np.random.default_rng(17)
    for n in (3, 4, 6):
        M = rng.normal(size=(n, n))
        f = MapSpec(name="black_box", dim=n, evaluator=lambda x, _M=M: np.asarray(x) @ _M.T,
                    homogeneous=homogeneous)
        r = estimate_rates(f, np.zeros(n))
        sv = np.linalg.svd(M, compute_uv=False)
        assert abs(r.d_p - sv[-1]) <= 1e-12 and abs(r.q_p - sv[0]) <= 1e-12
        gap = np.linalg.svd(0.7 * np.eye(n) - M, compute_uv=False)[-1]
        res = sigma_membership(f, np.zeros(n), 0.7, tol=gap * (1.0 + 1e-9))
        assert abs(res.margin - gap) <= 1e-12
        assert res.verdict == "candidate"


def _pinned_rate_maps():
    """(key, map, p): seeded linear maps of dimension 2 to 5, plain and homogeneous, and six more."""
    rng = np.random.default_rng(29)
    for dim in (2, 3, 4, 5):
        for k in range(3):
            M = rng.normal(size=(dim, dim))
            for homogeneous in (False, True):
                f = MapSpec(name="linear", dim=dim, evaluator=lambda x, _M=M: np.asarray(x) @ _M.T,
                            homogeneous=homogeneous)
                yield f"linear{dim}_{k}" + ("_hom" if homogeneous else ""), f, np.zeros(dim)
    A = rng.normal(size=(3, 3))
    yield "nonlinear3", MapSpec(name="nonlinear", dim=3,
                                evaluator=lambda x: np.tanh(np.asarray(x) @ A.T) + np.asarray(x) ** 2), np.zeros(3)
    # away from the origin neither map keeps its sphere matrix: sampled and polished by Nelder-Mead
    yield "conj_pair@p", builtin("conj_pair"), np.array([0.3, -0.2, 0.5, 0.1])
    yield "norm_times_x3@p", builtin("norm_times_x", dim=3), np.array([0.5, -1.0, 2.0])
    yield "norm_plus_i_im", builtin("norm_plus_i_im"), np.zeros(2)
    yield "half_abs_re_plus_i_im", builtin("half_abs_re_plus_i_im"), np.zeros(2)


# (d_p, q_p) of each map, the bits the rates had when they sampled all 17 radii 0.1 * 2^-k, k = 0..16
PINNED_RATES = {
    "linear2_0": (0.17395667614288926, 0.4257870373696075),
    "linear2_0_hom": (0.17395667614288926, 0.4257870373696075),
    "linear2_1": (0.1952531894261557, 0.32756079897484774),
    "linear2_1_hom": (0.1952531894261557, 0.32756079897484774),
    "linear2_2": (0.6685685441071978, 1.0818337798953523),
    "linear2_2_hom": (0.6685685441071978, 1.0818337798953523),
    "linear3_0": (0.16178830645795778, 3.097528339418729),
    "linear3_0_hom": (0.16178830645795778, 3.097528339418729),
    "linear3_1": (0.6842964274671486, 5.129067667235677),
    "linear3_1_hom": (0.6842964274671486, 5.129067667235677),
    "linear3_2": (0.16884119852557666, 2.8801111003316717),
    "linear3_2_hom": (0.16884119852557666, 2.8801111003316717),
    "linear4_0": (0.2205534933940927, 2.6789818484584154),
    "linear4_0_hom": (0.2205534933940927, 2.6789818484584154),
    "linear4_1": (0.322219920168603, 3.3779393174792345),
    "linear4_1_hom": (0.322219920168603, 3.3779393174792345),
    "linear4_2": (0.38068839510129254, 3.881382455260479),
    "linear4_2_hom": (0.38068839510129254, 3.881382455260479),
    "linear5_0": (0.16041103194027237, 3.7600660281332337),
    "linear5_0_hom": (0.16041103194027237, 3.7600660281332337),
    "linear5_1": (0.20181553398160468, 3.775752924060058),
    "linear5_1_hom": (0.20181553398160468, 3.775752924060058),
    "linear5_2": (0.26990138169907, 4.043905892637349),
    "linear5_2_hom": (0.26990138169907, 4.043905892637349),
    "nonlinear3": (1.1330763348537494, 2.7234686646775716),
    "conj_pair@p": (0.9999999999594675, 1.0000000000366867),
    "norm_times_x3@p": (2.2912878471392486, 4.582574169642811),
    "norm_plus_i_im": (1.0, 1.4142135623730951),
    "half_abs_re_plus_i_im": (0.5, 1.0),
}


def test_rates_keep_their_bits():
    # a sampled and polished entry does not depend on the other radii of its batch
    got = {}
    for key, f, p in _pinned_rate_maps():
        r = estimate_rates(f, p)
        got[key] = (r.d_p, r.q_p)
    assert got == PINNED_RATES


# ---------------------------------------------------------------------------
# membership


def test_membership_abs_re():
    f = builtin("abs_re_plus_i_im")
    assert sigma_membership(f, np.zeros(2), 1 + 0j).verdict == "candidate"
    res = sigma_membership(f, np.zeros(2), 0j)
    assert res.verdict == "rejected"
    assert abs(res.margin - 1.0) < 2e-3


def test_membership_identity_1d():
    res = sigma_membership(IDENTITY_1D, 0.0, 1.0)
    assert res.verdict == "candidate"


def test_membership_annulus_bound():
    f = builtin("half_abs_re_plus_i_im")
    tol = 1e-3
    d, q = 0.5, 1.0
    for lam in (0.5 + 0j, 1j * 0.99, -0.49 + 0.0j, 1.0 + 0j):
        res = sigma_membership(f, np.zeros(2), lam, tol=tol)
        if res.verdict == "candidate":
            assert d - tol <= abs(lam) <= q + tol


def test_membership_rejects_complex_lambda_without_complex_structure():
    with pytest.raises(PreconditionError):
        sigma_membership(builtin("norm_times_x", dim=3), np.zeros(3), 0.5 + 0.2j)


@pytest.mark.parametrize("homogeneous", [False, True])
def test_membership_takes_the_scan_verdicts(homogeneous):
    # sigma_min(lam I - M) = 1.5e-3 at lam = 1: undecided in [tol, 2 tol), as a scan reads it
    M = np.array([[1.0015, 0.0], [0.0, 3.0]])
    f = MapSpec(name="black_box", dim=2, evaluator=lambda x: np.asarray(x) @ M.T,
                homogeneous=homogeneous)
    verdicts = {tol: sigma_membership(f, np.zeros(2), 1.0, tol=tol) for tol in (1e-3, 2e-3, 7e-4)}
    assert verdicts[1e-3].verdict == "undecided"
    assert verdicts[2e-3].verdict == "candidate"
    assert verdicts[7e-4].verdict == "rejected"
    assert all(abs(res.margin - 1.5e-3) <= 1e-12 for res in verdicts.values())


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


def test_scan_traces_one_coarse_curve_at_its_radius(monkeypatch):
    # the containment reach of this scan is 2 tol = 1000: a trace to the
    # fixed chord 1e-3 ran into the 2^20-sample cap
    from specpoint import homog2d

    curves, trace = [], homog2d.sigma_curve

    def recorded(*args, **kwargs):
        curves.append((kwargs, trace(*args, **kwargs)))
        return curves[-1][1]

    monkeypatch.setattr(homog2d, "sigma_curve", recorded)
    f = builtin("real_linear", s=1e4, t=0.0, u=0.0, v=-1e4)
    scan = bifurcation_scan(f, _grid(-2e4, 2e4, -2e4, 2e4, 64, 64), tol=500.0)
    assert len(scan.candidates) == 156 and scan.contained_in_sigma
    [(kwargs, curve)] = curves
    assert kwargs["radius"] == scan.radii[-1] and kwargs["chord_bound"] == 1000.0
    assert curve.values.size <= 4096 and curve.chord_met


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
        res = sigma_membership(g, np.zeros(2), c, tol=0.06)
        assert res.verdict in ("candidate", "undecided")


@pytest.mark.parametrize(
    "f",
    [
        builtin("norm_times_x", dim=3),
        builtin("sqrt_abs"),
        MapSpec(name="black_box", dim=2,
                evaluator=lambda x: np.asarray(x, dtype=float) @ np.array([[1.0, 2.0], [0.0, 3.0]]).T),
    ],
    ids=["norm_times_x3", "sqrt_abs", "planar_black_box"],
)
def test_scan_rejects_complex_lambda_without_complex_structure(f):
    with pytest.raises(PreconditionError, match="without complex structure"):
        bifurcation_scan(f, [0.0, 0.5 + 0.5j])


def test_scan_requires_zero_at_origin():
    shifted = MapSpec(name="affine", dim=2, evaluator=lambda x: np.asarray(x, dtype=float) + 1.0)
    with pytest.raises(PreconditionError):
        bifurcation_scan(shifted, [0j])


def test_scan_one_dimensional_path():
    lams = [0.0, 0.5, 1.0, 1.7]
    scan = bifurcation_scan(IDENTITY_1D, lams, tol=0.02)
    assert scan.verdicts == ("rejected", "rejected", "candidate", "rejected")
    assert np.array_equal(scan.residuals[:, 0], np.abs(np.array(lams) - 1.0))  # |lam u - u| at u = +-1


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


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_norm_has_the_bits_of_np_linalg_norm(dim):
    # the scan kernel's residuals keep np.linalg.norm's bits, which the
    # frozen references of the scans below take
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(3000, 5, dim)) * np.exp(rng.uniform(-20.0, 20.0, size=(3000, 5, 1)))
    assert np.array_equal(row_norm(x), np.linalg.norm(x, axis=-1))


def _inline_planar_scan_residuals(g, lams, radii, theta_samples):
    """The scan as it was before it shared numerics.golden_min: both points per step."""
    two_pi = 2.0 * math.pi
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    res = np.empty((lams.size, len(radii)))
    for j, r in enumerate(radii):
        thetas = np.linspace(0.0, two_pi, theta_samples, endpoint=False)
        w = evaluate(g, r * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))
        wn = (w[..., 0] + 1j * w[..., 1]) / r
        gap = np.abs(lams[:, None] * np.exp(1j * thetas)[None, :] - wn[None, :])
        dt = two_pi / theta_samples
        t_best = thetas[gap.argmin(axis=1)]

        def eval_at(ts):
            w2 = evaluate(g, r * np.stack([np.cos(ts), np.sin(ts)], axis=-1))
            return np.abs(lams * np.exp(1j * ts) - (w2[..., 0] + 1j * w2[..., 1]) / r)

        a, b = t_best - dt, t_best + dt
        c, d_ = b - golden * (b - a), a + golden * (b - a)
        fc, fd = eval_at(c), eval_at(d_)
        for _ in range(40):
            take_c = fc <= fd
            b = np.where(take_c, d_, b)
            a = np.where(take_c, a, c)
            c, d_ = b - golden * (b - a), a + golden * (b - a)
            fc, fd = eval_at(c), eval_at(d_)
        res[:, j] = np.minimum(gap.min(axis=1), np.minimum(fc, fd))
    return res


@pytest.mark.parametrize(
    "f, M",
    [
        (builtin("norm_plus_i_im_pow", n=2), None),
        (builtin("real_linear", s=0.5, t=-1.0, u=0.8, v=1.2), np.array([[0.5, -1.0], [0.8, 1.2]])),
    ],
    ids=["norm_plus_i_im_pow2", "real_linear"],
)
def test_planar_scan_matches_inline_golden_loop(f, M):
    xs = np.linspace(-1.5, 1.5, 13)
    lams = np.array([complex(x, y) for y in xs for x in xs])
    radii = (1e-1, 1e-2, 1e-3)
    new = sphere_extrema(f, lams, radii, 512)
    old = _inline_planar_scan_residuals(f, lams, radii, 1024)
    # the kernel takes 60 golden steps to the reference's 40; where the
    # reference stops more than 1e-12 short of a real-linear map's exact
    # minimum sigma_min(R(lam) - M) (lam = 0.5 + 1j, on its eigenvalue
    # circle, reads 2.75e-12 against 0), the kernel is held to the exact value
    short = np.zeros(old.shape, dtype=bool)
    if M is not None:
        exact = np.array([np.linalg.svd(_complex_scaling(l, 2) - M, compute_uv=False)[-1] for l in lams])
        short = old - exact[:, None] > 1e-12
        assert np.max(np.abs(new - exact[:, None])[short], initial=0.0) <= 1e-12
    assert np.max(np.abs(new - old)[~short]) <= 1e-12
    assert scan_verdicts(new, 0.02)[1] == scan_verdicts(old, 0.02)[1]
    assert "candidate" in scan_verdicts(new, 0.02)[1]


def _golden_min_40(fn, lo, hi):
    """numerics.golden_min as it was when the angle scan called it with 40 steps."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(40):
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - golden * (b - a), a + golden * (b - a))
        fx = fn(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    left = fc <= fd
    return np.where(left, c, d)[()], np.where(left, fc, fd)[()]


def _unchunked_planar_scan_residuals(g, lams, radii, theta_samples):
    """The scan as it was before it went in chunks of lams: one (lams, thetas) array per radius."""
    TWO_PI = 2.0 * math.pi
    thetas = np.linspace(0.0, TWO_PI, theta_samples, endpoint=False)
    dt = TWO_PI / theta_samples
    res = np.empty((lams.size, len(radii)))
    for j, r in enumerate(radii):

        def gap(ts, lam=lams):  # |lam e^{it} - g(r e^{it}) / r|
            w = evaluate(g, r * unit_points(ts))
            return np.abs(lam * np.exp(1j * ts) - (w[..., 0] + 1j * w[..., 1]) / r)

        sampled = gap(thetas, lams[:, None])
        # golden-polish the angular minimum of every lam around its best sample
        t_best = thetas[sampled.argmin(axis=1)]
        _, refined = _golden_min_40(gap, t_best - dt, t_best + dt)
        res[:, j] = np.minimum(sampled.min(axis=1), refined)
    return res


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
    # the reference is the angle scan the sphere kernel replaced: 1024
    # angles and a 40-step golden polish against 512 directions and 60 steps
    g = translate_to_origin(f, np.zeros(2))
    expect = _unchunked_planar_scan_residuals(g, np.array(lams), scan.radii, 1024)
    assert np.max(np.abs(scan.residuals - expect[:, -1:])) <= 1e-12
    assert scan.verdicts == scan_verdicts(expect, 0.02)[1]


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
    # no complex_pairs: lam acts by real multiplication; dim 2 takes the golden polish
    rng = np.random.default_rng(40 + dim)
    M = rng.normal(size=(dim, dim))
    lams = np.concatenate([np.linalg.eigvals(M).real, rng.uniform(-3.0, 3.0, size=6)])
    exact = np.array([np.linalg.svd(l * np.eye(dim) - M, compute_uv=False)[-1] for l in lams])
    for homogeneous in (True, False):
        f = MapSpec(name="black_box", dim=dim, evaluator=lambda x, _M=M: np.asarray(x) @ _M.T,
                    homogeneous=homogeneous)
        scan = bifurcation_scan(f, lams)
        assert np.max(np.abs(scan.residuals - exact[:, None])) <= 1e-12


def _scalar_general_scan_residuals(g, lams, radii, samples):
    """Reference: one scalar scipy Nelder-Mead search per (lam, radius)."""
    dirs = sphere_directions(g.dim, samples)
    res = np.empty((lams.size, len(radii)))
    for j, r in enumerate(radii):
        vals = evaluate(g, r * dirs) / r
        for i, lam in enumerate(lams):
            gap = np.linalg.norm(lam.real * dirs - vals, axis=-1)
            i0 = int(np.argmin(gap))

            def on_sphere(u, _r=r, _lam=lam):
                return float(np.linalg.norm(_lam.real * u - evaluate(g, _r * u) / _r))

            _, best = scalar_sphere_polish(on_sphere, dirs[i0], maxfev=150 * g.dim)
            res[i, j] = min(float(gap[i0]), best)
    return res


@pytest.mark.parametrize("dim", [3, 4])
def test_scan_non_homogeneous_keeps_per_lambda_verdicts(dim):
    # lam x = |x| x: the residual at radius r is |lam - r|, so only lam near 0 is a candidate
    g = builtin("norm_times_x", dim=dim)
    lams = np.array([complex(x) for x in np.linspace(-0.06, 0.06, 13)] + [0.5 + 0j, -1.0 + 0j])
    radii = (1e-1, 1e-2, 1e-3)
    new = sphere_extrema(g, lams, radii, 512)
    ref = _scalar_general_scan_residuals(g, lams, radii, 512)
    assert np.all(new <= ref + 1e-12)
    assert scan_verdicts(new, 0.02)[1] == scan_verdicts(ref, 0.02)[1]
    assert set(scan_verdicts(new, 0.02)[1]) == {"candidate", "undecided", "rejected"}
    assert np.max(np.abs(new - np.abs(lams.real[:, None] - np.array(radii)))) <= 1e-12


def test_norm_times_x_sphere_minima_are_exact_in_every_dimension():
    # |x| x is r x on the sphere of radius r: its declared sphere matrix r I
    # gives |lam - r| bit for bit on the 128 real lambdas of a bifurcate grid
    lams = np.linspace(-1.5, 1.5, 128).astype(complex)
    radii = (1e-1, 1e-2, 1e-3)
    exact = np.abs(lams.real[:, None] - np.array(radii))
    for dim in range(1, 17):
        assert np.array_equal(sphere_extrema(builtin("norm_times_x", dim=dim), lams, radii, 512), exact), dim


def test_rates_of_a_homogeneous_map_repeat_one_radius():
    f = builtin("conj_pair")
    rates = estimate_rates(f, np.zeros(4))
    assert len(set(rates.per_radius_min)) == len(set(rates.per_radius_max)) == 1
    assert abs(rates.d_p - 1.0) < 1e-12 and abs(rates.q_p - 1.0) < 1e-12
    member = sigma_membership(f, np.zeros(4), 0.5 + 0.5j)
    assert member.verdict == "rejected"


def _frozen_scaled(g, lams, U):
    lams = lams[:, None, None]
    if not g.complex_pairs:
        return lams.real * U
    z = lams * (U[..., 0::2] + 1j * U[..., 1::2])
    return np.stack([z.real, z.imag], axis=-1).reshape(z.shape[:-1] + (g.dim,))


def _frozen_general_scan_residuals(g, lams, radii, samples):
    """The general scan as it was before it shared the sphere-minimum kernel:
    one sphere_polish batch per radius."""
    dirs = sphere_directions(g.dim, samples)
    cols = radii[:1] if g.homogeneous else radii
    res = np.empty((lams.size, len(cols)))
    step = max(1, (1 << 20) // dirs.size)
    for j, r in enumerate(cols):

        def gap(U):
            return np.linalg.norm(_frozen_scaled(g, lams, U) - evaluate(g, r * U) / r, axis=-1)

        vals = evaluate(g, r * dirs) / r
        i0 = np.empty(lams.size, dtype=np.intp)
        for lo in range(0, lams.size, step):
            sampled = np.linalg.norm(_frozen_scaled(g, lams[lo:lo + step], dirs[None]) - vals, axis=-1)
            i0[lo:lo + step] = sampled.argmin(axis=1)
            res[lo:lo + step, j] = sampled.min(axis=1)
        best, _ = sphere_polish(gap, dirs[i0])
        np.minimum(res[:, j], best, out=res[:, j])
    return np.repeat(res, len(radii), axis=1) if g.homogeneous else res


@pytest.mark.parametrize(
    "name, params, grid",
    [
        ("norm_times_x", {"dim": 3}, (-1.5, 1.5, 0.0, 0.0, 63, 1)),  # a real map takes real lams
        ("conj_pair", {}, (-1.5, 1.5, -1.5, 1.5, 9, 7)),
    ],
    ids=["norm_times_x3", "conj_pair"],
)
def test_scan_residuals_match_the_per_radius_batches(name, params, grid):
    # the scan solves the smallest radius alone, with the bits of its own polish batch;
    # without their sphere matrices both maps are sampled and polished, not solved exactly
    f = replace(builtin(name, **params), sphere_matrix=None)
    lams = np.array(_grid(*grid))
    radii = (1e-1, 1e-2, 1e-3)
    scan = bifurcation_scan(f, lams, radii=radii)
    ref = _frozen_general_scan_residuals(translate_to_origin(f, np.zeros(f.dim)), lams, radii[-1:], 512)
    assert np.array_equal(scan.residuals, ref)
