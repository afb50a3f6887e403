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
curve, with no further map evaluations: `_crossings` lists where the
polygon crosses the grid rows and `_turns` bins them, the one winding
kernel.  `sigma_curve` traces the curve in numpy arrays by the rule of
`planar.trace_curve`, which traces it in lists for `spec2d`; it takes any
planar map at a radius r, the curve sigma_r whose nearest samples are the
residuals of a bifurcation scan, one curve for every r when the map is
positively homogeneous.  `classify` reads the growth rates d and q of a
planar builtin off the curve it traces here, by `planar.growth_rates`.

The forward direction is sound (a nonzero degree certifies solvability of
all admissible perturbed equations); treating winding zero as membership is
a heuristic, recorded as a labeled assumption in classification metadata and
validated against the planar benchmark maps.
"""
from __future__ import annotations

import math
from enum import IntEnum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import NumericError, PreconditionError, Record
from .maps import MapSpec, evaluate
from .numerics import CHUNK, unit_points
from .planar import TWO_PI, SigmaCurve, require_planar_homogeneous, start_samples

CURVE_SAMPLES = 2048  # initial samples of the curve traced by classify_plane
CHORD_BOUND = 1e-3  # its chord bound, or 1/64 of the grid spacing where that is larger
MARGIN_TOL = 1e-9  # off-band cells nearer the curve than this are undecided
MAX_RESOLUTION = 4096  # classify_plane grids are at most this many cells a side
MAX_BAND_CELLS = 64  # the band query reaches at most this many node spacings
# band codes of a node by its distance d to the curve: d <= band, d < MARGIN_TOL
# ("margin"), d <= the chord ("chord"), and decided, in this order of precedence
_BAND, _MARGIN, _CHORD, _DECIDED = range(4)

ZERO_EPI_PROXY_NOTE = (
    "winding==0 is treated as 'in spectrum'; nonzero winding soundly implies "
    "regular, the converse is a heuristic validated on planar benchmark maps"
)


class CellLabel(IntEnum):
    IN_SPECTRUM = 0
    REGULAR = 1
    BAND = 2


class PlaneSpectrum(Record):
    curve: SigmaCurve
    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray  # (ny, nx) CellLabel values
    band_radius: float
    violations: tuple = ()
    component_consistent: bool = True
    metadata: Mapping = MappingProxyType({})  # immutable; summary() copies it

    def _row_blocks(self):
        """(first row, rows) blocks of the labels, at most CHUNK cells each."""
        step = max(1, CHUNK // self.labels.shape[1])
        for lo in range(0, self.labels.shape[0], step):
            yield lo, self.labels[lo:lo + step]

    def label_runs(self):
        """Maximal runs of equal labels along the rows, one row block at a time.

        Yields (rows, starts, stops, labels) arrays per block of
        `_row_blocks`: row `rows[k]` holds `labels[k]` in columns
        starts[k] <= i < stops[k].  Runs come in row-major order and end at
        the row ends, so every row is covered by its runs exactly once.
        """
        nx = self.labels.shape[1]
        for lo, block in self._row_blocks():
            opens = np.ones(block.shape, dtype=bool)  # a run starts at the cell
            np.not_equal(block[:, 1:], block[:, :-1], out=opens[:, 1:])
            flat = np.flatnonzero(opens)
            rows, starts = np.divmod(flat, nx)
            # a run stops where the next one starts; each row's last run
            # stops at column 0 of the next row, that is at nx
            stops = np.append(flat[1:], opens.size) - rows * nx
            yield lo + rows, starts, stops, block.ravel()[flat]

    def counts(self) -> dict:
        n = np.zeros(len(CellLabel), dtype=np.int64)
        for _, block in self._row_blocks():
            n += np.bincount(block.ravel(), minlength=len(CellLabel))
        return {
            "in_spectrum": int(n[CellLabel.IN_SPECTRUM]),
            "regular": int(n[CellLabel.REGULAR]),
            "band": int(n[CellLabel.BAND]),
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
        # hypot is monotone in |x|, so each row's largest modulus is at its
        # largest |x| among in-spectrum cells
        abs_x, max_abs = np.abs(self.xs), 0.0
        for lo, block in self._row_blocks():
            row_x = np.where(block == CellLabel.IN_SPECTRUM, abs_x, -1.0).max(axis=1)
            hit = row_x >= 0.0
            if hit.any():
                max_abs = max(max_abs, float(np.hypot(row_x[hit], self.ys[lo:lo + len(block)][hit]).max()))
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


def _curve_values(f: MapSpec, thetas: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """sigma(theta) = f(r e^{i theta}) e^{-i theta} / r, the curve normalized at radius r."""
    w = evaluate(f, radius * unit_points(thetas))
    return (w[..., 0] + 1j * w[..., 1]) * np.exp(-1j * thetas) / radius


def sigma_curve(f: MapSpec, samples: int = 1024, chord_bound: float = 1e-3,
                max_samples: int = 1 << 20, radius: float = 1.0) -> SigmaCurve:
    """The eigenvalue curve sigma_r of a planar map at radius r, in numpy arrays.

    sigma_r(theta) = f(r e^{i theta}) e^{-i theta} / r is one curve for
    every r when f is positively homogeneous; for a map that is homogeneous
    plus a higher-order remainder it converges to the curve of the
    homogeneous part as r shrinks.  It is traced by the rule of
    `planar.trace_curve`: each round sweeps every chord, bisects the arcs
    over the bound, the first ones in angle order as far as max_samples
    allows, and evaluates the new midpoints only.  Chords are swept, and
    midpoints inserted, CHUNK arcs at a time, into arrays grown in place,
    and evaluated CHUNK // 2 angles at a time, which gives every angle the
    bits of evaluating all angles at once; so a trace holds little more
    than the curve it returns.  A sample that is not finite is a
    NumericError.
    """
    if f.dim != 2:
        raise PreconditionError(f"map {f.name} is not planar")

    def values_at(ts):
        vals = np.empty(ts.size, dtype=complex)
        step = CHUNK // 2  # angles per evaluation: CHUNK coordinates of points
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's complex division by a subnormal r forms 1/r = inf
            for lo in range(0, ts.size, step):
                vals[lo:lo + step] = _curve_values(f, ts[lo:lo + step], radius)
        if not np.isfinite(vals).all():
            raise NumericError(f"the local curve of {f.name} at radius {radius!r} is not finite")
        return vals

    n = start_samples(samples, max_samples)
    thetas = np.arange(n) * (TWO_PI / n)
    values = values_at(thetas)
    while True:  # arc i ends at sample i + 1, the last at sample 0 and angle 2pi
        over = np.concatenate([chords > chord_bound for chords in _chords(values)])
        room = max_samples - n
        if room <= 0 or not over.any():
            break
        if np.count_nonzero(over) > room:
            over[np.flatnonzero(over)[room]:] = False
        k = int(np.count_nonzero(over))
        # Grown in place: from the last slice of arcs back, every sample moves
        # up by the number of arcs bisected before it and each midpoint
        # follows its arc's start, so no sample below the slice has moved yet.
        thetas.resize(n + k, refcheck=False)
        values.resize(n + k, refcheck=False)
        end = TWO_PI
        for lo in range(CHUNK * ((n - 1) // CHUNK), -1, -CHUNK):
            hi = min(lo + CHUNK, n)
            split = over[lo:hi]
            at = np.flatnonzero(split)
            k -= at.size
            ts = np.append(thetas[lo:hi], end)
            end = ts[0]
            mids = 0.5 * (ts[at] + ts[at + 1])
            to = np.cumsum(split)
            to += np.arange(lo + k, hi + k)
            to -= split  # the new index of each sample of the slice
            values[to] = values[lo:hi]
            thetas[to] = ts[:-1]
            to = to[at] + 1
            del ts, at  # before the evaluation, the peak of the round
            thetas[to] = mids
            values[to] = values_at(mids)
        n = thetas.size
    return SigmaCurve(thetas, values, chord_bound, not over.any())


def _chords(values):
    """The chord lengths of the closed polygon through the samples, CHUNK chords at a time.

    Chord i runs from sample i to sample i + 1, the last back to sample 0.
    np.hypot, not np.abs: it is C's hypot, the bits of Python's abs of each
    complex chord.
    """
    for lo in range(0, values.size, CHUNK):
        nxt = values[lo + 1:lo + CHUNK + 1]
        if lo + CHUNK >= values.size:
            nxt = np.append(nxt, values[:1])
        gap = nxt - values[lo:lo + CHUNK]
        yield np.hypot(gap.real, gap.imag)


def _crossings(a: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """(row, col, sign) of every crossing of the closed polygon of complex points a with the rows ys.

    Each edge crosses the rows y with ay <= y < by (upward, +1) or
    by <= y < ay (downward, -1), so horizontal edges cross nothing and a
    vertex is counted once.  The list is sparse, one entry per (edge, row)
    pair an edge covers, in ascending row order; col is the first column at
    or right of the crossing.
    """
    ay, by = a.imag, np.roll(a.imag, -1)  # edge k runs from a[k] to a[k + 1], the last to a[0]
    first = np.searchsorted(ys, np.minimum(ay, by), side="left")
    counts = np.searchsorted(ys, np.maximum(ay, by), side="left") - first
    meets = np.flatnonzero(counts)  # the edges whose y-span meets a row
    counts = counts[meets]
    edge = np.repeat(meets, counts)
    row = first[edge] + np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ea, eb = a[edge], a[(edge + 1) % a.size]
    x_cross = ea.real + (ys[row] - ea.imag) * (eb.real - ea.real) / (eb.imag - ea.imag)
    sign = np.where(eb.imag > ea.imag, np.int32(1), np.int32(-1))
    col = np.searchsorted(xs, x_cross, side="left")  # cells 0..col-1 lie left of it
    order = np.argsort(row, kind="stable")
    return row[order], col[order], sign[order]


def _turns(row: np.ndarray, col: np.ndarray, sign: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """(ny, nx) int32 degrees 1 + wind(sigma, lam) from the crossings of rows 0..ny-1.

    The winding around a cell is the signed count of its row's crossings
    strictly to its right: crossings are binned by the first column at or
    right of them and summed from the right (Hormann & Agathos, Comput.
    Geom. 20, 2001).  The bins and their sums are int32, so the grid is held
    twice at 4 bytes a cell.
    """
    binned = np.zeros((ny, nx + 1), dtype=np.int32)
    np.add.at(binned, (row, col), sign)
    turns = np.cumsum(binned[:, :0:-1], axis=1, dtype=np.int32)[:, ::-1]
    turns += 1
    return turns


def _components_consistent(labels: np.ndarray, decided: np.ndarray) -> bool:
    """All-or-nothing: each 4-connected component of decided cells has one label.

    A component has one label exactly when no two 4-adjacent decided cells
    differ in label.
    """
    across = decided[:, 1:] & decided[:, :-1] & (labels[:, 1:] != labels[:, :-1])
    down = decided[1:] & decided[:-1] & (labels[1:] != labels[:-1])
    return not (across.any() or down.any())


def _band_codes(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, bound: float,
                band: float, margin: float, chord: float) -> np.ndarray:
    """(ny, nx) int8 band codes of the nodes of an ascending grid.

    A node's code is that of its distance d to the nearest sample: _BAND
    for d <= band, else _MARGIN for d < margin, else _CHORD for d <= chord,
    else _DECIDED, which distances of `bound` or more read too.  Each sample
    is bucketed to its nearest node, and the distance sqrt(dx^2 + dy^2) to
    every node of the window that can lie within `bound` of it
    (ceil(bound / spacing) nodes a side, plus one for rounding) is coded
    and min-reduced into the grid.  sqrt is monotone and the code is
    non-decreasing in d, so this is the code of the distance a k-d tree
    query with an upper bound returns, bit for bit.  Samples go in chunks
    of at most CHUNK window entries, so memory does not grow with the
    window.
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
    codes = np.full(ny * nx, np.int8(_DECIDED))
    step = max(1, CHUNK // (offx.size * offy.size))
    for lo in range(0, sx.size, step):
        cx = ix[lo:lo + step, None] + offx
        cy = iy[lo:lo + step, None] + offy
        okx, oky = (cx >= 0) & (cx < nx), (cy >= 0) & (cy < ny)
        ddx = (xs[np.clip(cx, 0, nx - 1)] - sx[lo:lo + step, None]) ** 2
        ddy = (ys[np.clip(cy, 0, ny - 1)] - sy[lo:lo + step, None]) ** 2
        d2 = ddx[:, None, :] + ddy[:, :, None]
        keep = oky[:, :, None] & okx[:, None, :] & (d2 < bound * bound)
        node = ((cy * nx)[:, :, None] + cx[:, None, :])[keep]
        d = np.sqrt(d2[keep])
        code = np.select([d <= band, d < margin, d <= chord],
                         [np.int8(_BAND), np.int8(_MARGIN), np.int8(_CHORD)], np.int8(_DECIDED))
        np.minimum.at(codes, node, code)
    return codes.reshape(ny, nx)


def _max_chord(values) -> float:
    """The longest chord of the closed polygon through the curve samples."""
    return max(float(chords.max()) for chords in _chords(values))


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
    the degree 1 + wind(sigma, lam), binned by `_turns` from the crossings
    of `_crossings`.  The widest of
    these distances may span at most MAX_BAND_CELLS node spacings.  Unless a
    curve is given, it is traced from CURVE_SAMPLES samples to the chord
    bound max(CHORD_BOUND, spacing / 64), spacing the smaller node spacing
    of the two axes.
    """
    require_planar_homogeneous(f)
    x0, x1, y0, y1 = map(float, bounds)
    if not (0.0 < x1 - x0 < math.inf and 0.0 < y1 - y0 < math.inf) or resolution < 2:
        raise PreconditionError("need a nondegenerate grid with finite spans")
    if resolution > MAX_RESOLUTION:
        raise PreconditionError(f"grid resolution {resolution} exceeds {MAX_RESOLUTION}")
    if band_radius is not None and not band_radius >= 0.0:
        raise PreconditionError(f"band radius must be nonnegative, got {band_radius}")
    with np.errstate(over="ignore"):  # only a last point can overflow, and linspace sets it to the stop
        xs = np.linspace(x0, x1, resolution)
        ys = np.linspace(y0, y1, resolution)
    spacing = min(xs[1] - xs[0], ys[1] - ys[0])
    top = max(abs(x0), abs(x1), abs(y0), abs(y1))
    if not spacing > 64.0 * (math.nextafter(top, math.inf) - top):  # np.spacing(top), without its overflow warning
        # the band query buckets samples to nodes in floating point
        raise PreconditionError("grid spacing is within 64 ulps of its coordinates")
    if curve is None:  # on a coarse grid a chord far below the spacing would only add samples
        curve = sigma_curve(f, samples=CURVE_SAMPLES, chord_bound=max(CHORD_BOUND, float(spacing) / 64.0))
    cell_diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    band = 2.0 * cell_diag if band_radius is None else float(band_radius)
    chord = 0.0 if curve.chord_met else _max_chord(curve.values)

    # Nothing past the widest threshold matters; the slack keeps every
    # distance at a threshold below the bound, so its band code sees it.
    reach = max(band, MARGIN_TOL, chord)
    if not reach <= MAX_BAND_CELLS * spacing:
        raise PreconditionError(
            f"band query reach {reach:.6g} exceeds {MAX_BAND_CELLS} grid spacings of {spacing:.6g}"
        )
    # The band codes become the labels in place, one row block at a time:
    # the crossings are listed once, by row, and binned per block, and the
    # component check of a block takes the last row of the one before it.
    labels = _band_codes(curve.values, xs, ys, reach * (1.0 + 1e-9), band, MARGIN_TOL, chord)
    row, col, sign = _crossings(curve.values, xs, ys)
    violations, consistent = [], True
    step = max(1, CHUNK // resolution)
    for lo in range(0, resolution, step):
        block = labels[lo:lo + step]
        c0, c1 = np.searchsorted(row, [lo, lo + step])
        rows, cols = np.nonzero((block == _MARGIN) | (block == _CHORD))
        violations.extend(
            (int(i), lo + int(j), "margin" if block[j, i] == _MARGIN else "chord")
            for j, i in zip(rows, cols)
        )
        decided = block == _DECIDED
        # a nonzero degree is REGULAR (1), zero is IN_SPECTRUM (0)
        block[...] = _turns(row[c0:c1] - lo, col[c0:c1], sign[c0:c1], len(block), resolution) != 0
        block[~decided] = CellLabel.BAND
        if consistent:
            seam = labels[max(lo - 1, 0):lo + step]
            consistent = _components_consistent(seam, seam != CellLabel.BAND)

    return PlaneSpectrum(
        curve=curve,
        xs=xs,
        ys=ys,
        labels=labels,
        band_radius=band,
        violations=tuple(violations),
        component_consistent=consistent,
        metadata={"zero_epi_proxy": ZERO_EPI_PROXY_NOTE},
    )
