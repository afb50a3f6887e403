"""Planar engine for positively homogeneous maps on R^2 viewed as the plane.

For a positively homogeneous planar map the point-spectrum part is exactly
the eigenvalue set {lam : lam z = f(z), |z| = 1}, traced as the closed curve
theta -> sigma(theta) = f(e^{i theta}) * e^{-i theta} (complex product).
Regularity of lam*id - f away from that curve is decided by a winding-number
proxy:

    winding of theta -> lam z - f(z) around 0 nonzero  => regular
    winding zero                                       => in the spectrum

On the unit circle lam z - f(z) = z (lam - sigma(theta)), so the degree is

    deg(lam*id - f) = 1 + wind(sigma, lam),

and a grid is labelled by a point-in-polygon winding query on the traced
curve, with no further map evaluations.

The forward direction is sound (a nonzero degree certifies solvability of
all admissible perturbed equations); treating winding zero as membership is
a heuristic, recorded as a labeled assumption in classification metadata and
validated against the planar benchmark maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .core import (
    AdmissibilityError,
    NumericError,
    PreconditionError,
    SolverError,
)
from .maps import MapSpec, evaluate
from .numerics import (
    disk_points,
    golden_min,
    nm_polish,
    pattern_search_2d,
    sphere_directions,
    sphere_polish,
)

TWO_PI = 2.0 * math.pi
CURVE_SAMPLES = 2048  # initial samples of the curve traced by classify_plane
MARGIN_TOL = 1e-9  # off-band cells nearer the curve than this are undecided
MAX_RESOLUTION = 4096  # classify_plane grids are at most this many cells a side
MAX_BAND_CELLS = 64  # the band query reaches at most this many node spacings
_BAND_CHUNK = 1 << 20  # window entries per chunk of the band query

ZERO_EPI_PROXY_NOTE = (
    "winding==0 is treated as 'in spectrum'; nonzero winding soundly implies "
    "regular, the converse is a heuristic validated on planar benchmark maps"
)


@dataclass(frozen=True)
class SigmaCurve:
    """Sampled eigenvalue curve: thetas strictly increasing in [0, 2pi)."""

    thetas: np.ndarray
    values: np.ndarray  # complex samples lam(theta)
    chord_bound: float
    chord_met: bool
    label: str = "point-spectrum"

    def pairs(self) -> np.ndarray:
        return np.stack([self.values.real, self.values.imag], axis=-1)

    def max_gap(self) -> float:
        nxt = np.roll(self.values, -1)
        return float(np.max(np.abs(nxt - self.values)))

    def is_point(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.values - self.values[0])) <= tol)


class CellLabel(IntEnum):
    IN_SPECTRUM = 0
    REGULAR = 1
    BAND = 2


@dataclass(frozen=True)
class WindingResult:
    turns: int
    margin: float
    samples_used: int
    max_increment: float


@dataclass(frozen=True)
class RoucheSolution:
    point: np.ndarray
    residual: float
    winding: int
    start_index: int


@dataclass(frozen=True)
class PlaneSpectrum:
    curve: SigmaCurve
    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray  # (ny, nx) CellLabel values
    band_radius: float
    violations: tuple = ()
    component_consistent: bool = True
    metadata: dict = field(default_factory=dict)

    def counts(self) -> dict:
        flat = self.labels.ravel()
        return {
            "in_spectrum": int(np.sum(flat == CellLabel.IN_SPECTRUM)),
            "regular": int(np.sum(flat == CellLabel.REGULAR)),
            "band": int(np.sum(flat == CellLabel.BAND)),
        }

    def cell_area(self) -> float:
        dx = float(self.xs[1] - self.xs[0]) if self.xs.size > 1 else 0.0
        dy = float(self.ys[1] - self.ys[0]) if self.ys.size > 1 else 0.0
        return dx * dy

    def summary(self) -> dict:
        c = self.counts()
        area = self.cell_area()
        inside = c["in_spectrum"] * area
        band = c["band"] * area
        mask = self.labels == CellLabel.IN_SPECTRUM
        if mask.any():
            gx, gy = np.meshgrid(self.xs, self.ys)
            max_abs = float(np.max(np.hypot(gx[mask], gy[mask])))
        else:
            max_abs = 0.0
        return {
            "counts": c,
            "cell_area": area,
            "in_spectrum_area_lower": inside,
            "in_spectrum_area_estimate": inside + 0.5 * band,
            "in_spectrum_area_upper": inside + band,
            "max_abs_in_spectrum": max_abs,
            "band_radius": self.band_radius,
            "component_consistent": self.component_consistent,
            "violations": len(self.violations),
            "assumptions": dict(self.metadata),
        }


def _require_planar_homogeneous(f: MapSpec):
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")
    if not f.homogeneous:
        raise PreconditionError(f"map {f.name} does not declare positive homogeneity")


def _unit_points(thetas: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def _curve_values(f: MapSpec, thetas: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """sigma(theta) = f(r e^{i theta}) e^{-i theta} / r, the curve normalized at radius r."""
    w = evaluate(f, radius * _unit_points(thetas))
    return (w[..., 0] + 1j * w[..., 1]) * np.exp(-1j * thetas) / radius


def _norm_extrema(f: MapSpec, thetas: np.ndarray, norms: np.ndarray,
                  radius: float = 1.0) -> tuple[float, float]:
    """Min and max of |f| on the circle |z| = radius from its samples `norms`.

    The sampled minimum and maximum are golden-polished together, each over
    the two sample spacings around it.  math.hypot is correctly rounded;
    np.hypot can be one ulp off.
    """
    delta = 2.0 * TWO_PI / thetas.size
    at = thetas[[int(np.argmin(norms)), int(np.argmax(norms))]]
    sign = np.array([1.0, -1.0])

    def signed_norms(ts):
        w = evaluate(f, radius * _unit_points(ts))
        return sign * np.array([math.hypot(x, y) for x, y in w])

    _, best = golden_min(signed_norms, at - delta, at + delta)
    return min(float(norms.min()), float(best[0])), max(float(norms.max()), -float(best[1]))


def sigma_curve(f: MapSpec, samples: int = 1024, chord_bound: float = 1e-3,
                max_samples: int = 1 << 20, label: str = "point-spectrum") -> SigmaCurve:
    """Trace the eigenvalue curve, bisecting arcs until the chord bound holds."""
    _require_planar_homogeneous(f)
    if samples > max_samples:
        raise PreconditionError(f"{samples} curve samples exceed {max_samples}")
    n0 = max(16, 4 * math.ceil(samples / 4))
    thetas = np.linspace(0.0, TWO_PI, n0, endpoint=False)
    vals = _curve_values(f, thetas)
    while True:
        nxt_theta = np.concatenate([thetas[1:], [TWO_PI]])
        bad = np.abs(np.roll(vals, -1) - vals) > chord_bound
        met = not bad.any()
        room = max_samples - thetas.size
        if met or room <= 0:
            break
        mids = 0.5 * (thetas[bad] + nxt_theta[bad])[:room]
        thetas = np.sort(np.concatenate([thetas, mids]))
        vals = _curve_values(f, thetas)
    return SigmaCurve(thetas, vals, chord_bound, met, label)


def d_and_quasinorm(f: MapSpec, curve: SigmaCurve | None = None) -> tuple[float, float]:
    """Growth rates d and q: the min and max of |f| on the unit circle.

    On the circle |f(e^{i theta})| = |sigma(theta)|, so both are read off the
    traced curve (traced here with 4096 initial samples when none is given)
    and golden-polished around the sampled extrema.
    """
    _require_planar_homogeneous(f)
    if curve is None:
        curve = sigma_curve(f, samples=4096)
    return _norm_extrema(f, curve.thetas, np.abs(curve.values))


def winding_number(
    f: MapSpec,
    lam,
    radius: float = 1.0,
    samples: int = 256,
    margin_tol: float = 1e-9,
    max_samples: int = 1 << 18,
) -> WindingResult:
    """Winding of theta -> lam * z - f(z) on |z| = radius around the origin.

    Samples are refined until every angular increment is below pi/2; the
    reported margin is the minimum distance of the curve to the origin.
    """
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")
    lam = complex(lam) if not isinstance(lam, complex) else lam
    n = max(16, int(samples))
    while True:
        thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
        pts = radius * _unit_points(thetas)
        w = evaluate(f, pts)
        gamma = lam * radius * np.exp(1j * thetas) - (w[..., 0] + 1j * w[..., 1])
        steps = np.angle(np.roll(gamma, -1) * np.conj(gamma))
        margin = float(np.min(np.abs(gamma)))
        max_inc = float(np.max(np.abs(steps)))
        if margin < margin_tol * max(1.0, radius):
            raise AdmissibilityError(
                f"boundary curve of {f.name} passes within {margin:.3e} of the origin"
            )
        if max_inc < 0.5 * math.pi:
            turns = int(round(float(steps.sum()) / TWO_PI))
            return WindingResult(turns, margin, n, max_inc)
        if n >= max_samples:
            raise NumericError(
                f"angular increments did not settle below pi/2 with {n} samples"
            )
        n *= 2


def scanline_turns(curve: SigmaCurve, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Degree 1 + wind(sigma, lam) for every lam = x + iy of an ascending grid.

    The sampled curve is read as a closed polygon.  Each edge crosses the rows
    y with ay <= y < by (upward, +1) or by <= y < ay (downward, -1), so
    horizontal edges cross nothing and a vertex is counted once.  The winding
    around a cell is the signed count of its row's crossings strictly to its
    right: crossings are binned by the first column at or right of them and
    summed from the right (Hormann & Agathos, Comput. Geom. 20, 2001).  The
    crossing list is sparse, one entry per (edge, row) pair it covers.
    """
    a = curve.values
    b = np.roll(a, -1)
    lo = np.minimum(a.imag, b.imag)
    hi = np.maximum(a.imag, b.imag)
    first = np.searchsorted(ys, lo, side="left")
    counts = np.searchsorted(ys, hi, side="left") - first
    edge = np.repeat(np.arange(a.size), counts)
    row = first[edge] + np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ea, eb = a[edge], b[edge]
    x_cross = ea.real + (ys[row] - ea.imag) * (eb.real - ea.real) / (eb.imag - ea.imag)
    sign = np.where(eb.imag > ea.imag, 1.0, -1.0)
    col = np.searchsorted(xs, x_cross, side="left")  # cells 0..col-1 lie left of it
    nx = xs.size
    binned = np.bincount(row * (nx + 1) + col, weights=sign, minlength=ys.size * (nx + 1))
    binned = binned.reshape(ys.size, nx + 1).astype(np.int64)
    right = np.cumsum(binned[:, ::-1], axis=1)[:, ::-1]
    return 1 + right[:, 1:]


def _components_consistent(labels: np.ndarray, decided: np.ndarray) -> bool:
    """All-or-nothing: each 4-connected component of decided cells has one label.

    A component has one label exactly when no two 4-adjacent decided cells
    differ in label.
    """
    across = decided[:, 1:] & decided[:, :-1] & (labels[:, 1:] != labels[:, :-1])
    down = decided[1:] & decided[:-1] & (labels[1:] != labels[:-1])
    return not (across.any() or down.any())


def _band_distances(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    bound: float) -> np.ndarray:
    """(ny, nx) distances from the nodes of an ascending grid to the nearest sample.

    Distances of `bound` or more read inf.  Each sample is bucketed to its
    nearest node, and the squared distance dx^2 + dy^2 to every node of the
    window that can lie within `bound` of it (ceil(bound / spacing) nodes a
    side, plus one for rounding) is min-reduced into the grid before one
    square root: the arithmetic of a k-d tree query with an upper bound,
    bit for bit.  Samples go in chunks of at most _BAND_CHUNK window
    entries, so memory does not grow with the window.
    """
    nx, ny = xs.size, ys.size
    dx, dy = (xs[-1] - xs[0]) / (nx - 1), (ys[-1] - ys[0]) / (ny - 1)
    kx, ky = math.ceil(bound / dx) + 1, math.ceil(bound / dy) + 1
    fx, fy = (values.real - xs[0]) / dx, (values.imag - ys[0]) / dy
    # only samples whose window meets the grid; this also keeps the casts
    # below in range when a narrow box puts a far sample at index 1e300
    near = (fx > -kx - 1) & (fx < nx + kx) & (fy > -ky - 1) & (fy < ny + ky)
    sx, sy = values.real[near], values.imag[near]
    ix, iy = np.rint(fx[near]).astype(np.int64), np.rint(fy[near]).astype(np.int64)
    offx, offy = np.arange(-kx, kx + 1), np.arange(-ky, ky + 1)
    d2 = np.full(ny * nx, np.inf)
    step = max(1, _BAND_CHUNK // (offx.size * offy.size))
    for lo in range(0, sx.size, step):
        cx = ix[lo:lo + step, None] + offx
        cy = iy[lo:lo + step, None] + offy
        okx, oky = (cx >= 0) & (cx < nx), (cy >= 0) & (cy < ny)
        ddx = (xs[np.clip(cx, 0, nx - 1)] - sx[lo:lo + step, None]) ** 2
        ddy = (ys[np.clip(cy, 0, ny - 1)] - sy[lo:lo + step, None]) ** 2
        ok = oky[:, :, None] & okx[:, None, :]
        node = (cy * nx)[:, :, None] + cx[:, None, :]
        np.minimum.at(d2, node[ok], (ddx[:, None, :] + ddy[:, :, None])[ok])
    far = d2 >= bound * bound
    np.sqrt(d2, out=d2)
    d2[far] = np.inf
    return d2.reshape(ny, nx)


def classify_plane(
    f: MapSpec,
    bounds: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0),
    resolution: int = 200,
    band_radius: float | None = None,
    curve: SigmaCurve | None = None,
) -> PlaneSpectrum:
    """Label a grid of candidate lam values as in-spectrum / regular / band.

    Cells within the band radius of the curve samples are Band.  An off-band
    cell closer than MARGIN_TOL to a sample is a "margin" violation; when the
    curve missed its chord bound, one within the largest chord is a "chord"
    violation.  Violations are Band too.  Every other cell is labelled by
    the degree 1 + wind(sigma, lam) of `scanline_turns`.  The widest of
    these distances may span at most MAX_BAND_CELLS node spacings.
    """
    _require_planar_homogeneous(f)
    x0, x1, y0, y1 = map(float, bounds)
    if not (x1 > x0 and y1 > y0) or resolution < 2:
        raise PreconditionError("need a nondegenerate grid")
    if resolution > MAX_RESOLUTION:
        raise PreconditionError(f"grid resolution {resolution} exceeds {MAX_RESOLUTION}")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    spacing = min(xs[1] - xs[0], ys[1] - ys[0])
    if not spacing > 64.0 * np.spacing(max(abs(x0), abs(x1), abs(y0), abs(y1))):
        # the band query buckets samples to nodes in floating point
        raise PreconditionError("grid spacing is within 64 ulps of its coordinates")
    if curve is None:
        curve = sigma_curve(f, samples=CURVE_SAMPLES)
    cell_diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    band = 2.0 * cell_diag if band_radius is None else float(band_radius)
    chord = 0.0 if curve.chord_met else curve.max_gap()

    # Nothing past the widest threshold matters; the slack keeps every
    # distance at a threshold finite, so the comparisons below see it.
    reach = max(band, MARGIN_TOL, chord)
    if not reach <= MAX_BAND_CELLS * spacing:
        raise PreconditionError(
            f"band query reach {reach:.6g} exceeds {MAX_BAND_CELLS} grid spacings of {spacing:.6g}"
        )
    dist = _band_distances(curve.values, xs, ys, reach * (1.0 + 1e-9))
    off = dist > band
    margin = off & (dist < MARGIN_TOL)
    chord_hit = off & ~margin & (dist <= chord)
    violations = tuple(
        (int(i), int(j), "margin" if margin[j, i] else "chord")
        for j, i in zip(*np.nonzero(margin | chord_hit))
    )
    decided = off & ~margin & ~chord_hit

    turns = scanline_turns(curve, xs, ys)
    grid_labels = np.where(turns != 0, np.int8(CellLabel.REGULAR), np.int8(CellLabel.IN_SPECTRUM))
    grid_labels[~decided] = CellLabel.BAND

    return PlaneSpectrum(
        curve=curve,
        xs=xs,
        ys=ys,
        labels=grid_labels,
        band_radius=band,
        violations=violations,
        component_consistent=_components_consistent(grid_labels, decided),
        metadata={"zero_epi_proxy": ZERO_EPI_PROXY_NOTE},
    )


def spectral_radius_bound(f: MapSpec, p=None, samples: int = 4096, seed: int = 0) -> float:
    """Upper bound for |lam| over the spectrum: the local quasinorm at p.

    Every lam with modulus above the returned value is regular.  Homogeneous
    maps use the exact sup over the unit sphere; other maps fall back to the
    sampled limsup estimator.
    """
    if f.homogeneous:
        if f.dim == 2:
            return d_and_quasinorm(f, sigma_curve(f, samples=samples))[1]
        dirs = sphere_directions(f.dim, samples, seed)
        norms = np.linalg.norm(evaluate(f, dirs), axis=-1)
        i_hi = int(np.argmax(norms))

        def neg(u):
            return -float(np.linalg.norm(evaluate(f, u)))

        _, best = sphere_polish(neg, dirs[i_hi], maxfev=200 * f.dim)
        return max(float(norms[i_hi]), -best)
    from . import estimators  # lazy: general maps use the rate estimator

    base = f.basepoint if p is None else p
    return estimators.estimate_rates(f, base).q_p


def bifurcation_set_homog(f: MapSpec, samples: int = 1024, chord_bound: float = 1e-3) -> SigmaCurve:
    """Bifurcation set of a homogeneous planar map: its eigenvalue curve.

    Eigenvalues are always bifurcation points; off the (empty, in finite
    dimension) compactness-defect part the converse holds as well.
    """
    return sigma_curve(f, samples=samples, chord_bound=chord_bound, label="bifurcation")


def rouche_coincidence(
    f: MapSpec,
    k: MapSpec,
    radius: float,
    *,
    starts: int = 64,
    tol: float = 1e-10,
    boundary_samples: int = 2048,
    disk_samples: int = 4096,
    seed: int = 0,
) -> RoucheSolution:
    """Solve f(x) = k(x) inside the disk, under the dominated-perturbation test.

    Preconditions checked by sampling: the boundary curve of f winds around
    the origin a nonzero number of times, and max |k| on the closed disk is
    below min |f| on the boundary circle.  The solver is a multistart damped
    fixed-direction descent on the squared residual.
    """
    if f.dim != 2 or k.dim != 2:
        raise PreconditionError("coincidence solving is planar")
    radius = float(radius)
    if radius <= 0:
        raise PreconditionError("radius must be positive")

    # -f(z) = 0 * z - f(z) winds as often as f(z)
    turns = winding_number(f, 0.0, radius=radius, samples=max(64, boundary_samples // 8)).turns
    if turns == 0:
        raise PreconditionError("boundary winding of f is zero; solvability not certified")

    thetas = np.linspace(0.0, TWO_PI, boundary_samples, endpoint=False)
    w = evaluate(f, radius * _unit_points(thetas))
    min_f, _ = _norm_extrema(f, thetas, np.abs(w[..., 0] + 1j * w[..., 1]), radius)

    disk = np.concatenate([np.zeros((1, 2)), disk_points(disk_samples - 1, radius, seed)])
    k_disk = np.linalg.norm(evaluate(k, disk), axis=-1)
    i_hi = int(np.argmax(k_disk))

    def neg_k(x):
        x = np.asarray(x, dtype=float)
        if math.hypot(x[0], x[1]) > radius:
            return 0.0
        return -float(np.linalg.norm(evaluate(k, x)))

    _, neg_best = nm_polish(neg_k, disk[i_hi], maxfev=300)
    max_k = max(float(k_disk[i_hi]), -neg_best)
    if not (max_k < min_f):
        raise PreconditionError(
            f"dominance fails: max|k| on the disk = {max_k:.6g} is not below "
            f"min|f| on the boundary = {min_f:.6g}"
        )

    def sq_residual(x):
        d = evaluate(f, x) - evaluate(k, x)
        return float(d[0] * d[0] + d[1] * d[1])

    feasible = lambda x: math.hypot(x[0], x[1]) < radius
    start_pts = np.concatenate([np.zeros((1, 2)), disk_points(starts - 1, 0.9 * radius, seed)])
    best = None
    for i, x0 in enumerate(start_pts):
        x, val = pattern_search_2d(
            sq_residual, x0, step0=0.25 * radius, feasible=feasible, f_tol=tol * tol
        )
        res = math.sqrt(max(val, 0.0))
        if best is None or res < best[1]:
            best = (x, res, i)
        if res < tol:
            return RoucheSolution(point=x, residual=res, winding=turns, start_index=i)
    raise SolverError(
        f"coincidence solver stagnated; best residual {best[1]:.3e} from start {best[2]}"
    )
