"""Exact oracles for the outputs of one specpoint CLI call.

Each check takes the call's `Output` and returns a `Check`: the list of
errors (empty when the output is right) plus the counts the end-to-end
metrics are built from.  The oracles are the closed forms the acceptance
suite uses: the cardioid sign test, the two-circle union, the real-linear
circle equation, the analytic shift-model record and the Dini intervals.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)
AGREEMENT_MIN = 0.99  # acceptance 03 and 04: off-band cells that match the exact region


@dataclass
class Output:
    """What one call produced: exit code, stdout and the files next to --out."""

    rc: int | None
    stdout: bytes
    files: dict = field(default_factory=dict)  # suffix -> bytes

    @classmethod
    def collect(cls, rc, stdout: bytes, stem: Path | None) -> "Output":
        files = {}
        if stem is not None:
            for suffix in (".json", ".csv", ".svg"):
                path = stem.with_suffix(suffix)
                if path.exists():
                    files[suffix] = path.read_bytes()
        return cls(rc, stdout, files)

    def digest(self) -> str:
        h = hashlib.sha256(repr(self.rc).encode())
        for part in [self.stdout] + [self.files[k] for k in sorted(self.files)]:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()

    def nbytes(self) -> int:
        return len(self.stdout) + sum(len(b) for b in self.files.values())

    def payload(self) -> dict:
        return json.loads(self.files.get(".json", self.stdout))


@dataclass
class Check:
    errors: list = field(default_factory=list)
    lambdas: int = 0        # lambda verdicts: off-band cells, lambda x radius scan entries, probes
    examined: int = 0       # lambda values looked at (cells, scan lambdas, probes)
    decided: int = 0        # of those, the ones given a definite answer
    cells: int = 0          # classify grid cells
    band: int = 0           # classify band cells
    agreement: float | None = None  # share of graded answers that match the oracle

    def require(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)


def run_check(oracle, out: Output, /, **params) -> Check:
    """Apply an oracle, turning a malformed output into a failed check."""
    if out.rc != 0:
        return Check(errors=[f"exit code {out.rc}, expected 0"])
    try:
        return oracle(out, **params)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Check(errors=[f"malformed output: {type(exc).__name__}: {exc}"])


def _pairs(text: bytes) -> np.ndarray:
    """Rows of a numeric CSV with a header line, as a float array."""
    return np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# planar engine


def _cardioid(x, y):
    return (x - 1.0) ** 2 + y**2 - (x**2 + y**2 - x) ** 2 > 0.0


def _two_circles(x, y):
    z = x + 1j * y
    return (np.abs(z - 0.25) < 0.75) & ~(np.abs(z - 0.75) < 0.25)


EXACT_REGION = {"norm_plus_i_im": _cardioid, "half_abs_re_plus_i_im": _two_circles}
_LABEL_CODES = ((b"in_spectrum", b"0"), (b"regular", b"1"), (b"band", b"2"))


def classify(out: Output, fn: str, bounds: tuple, res: int) -> Check:
    doc = out.payload()
    c = Check()
    c.require(doc["violations"] == 0, f"{doc['violations']} band violations")
    c.require(doc["res"] == res, f"res {doc['res']} != {res}")
    c.require(tuple(doc["bounds"]) == tuple(bounds), f"bounds {doc['bounds']} != {list(bounds)}")
    text = out.files[".csv"]
    for name, code in _LABEL_CODES:
        text = text.replace(name, code)
    grid = _pairs(text)
    c.require(grid.shape == (res * res, 3), f"grid CSV has shape {grid.shape}")
    x, y, label = grid[:, 0], grid[:, 1], grid[:, 2].astype(int)
    counts = doc["counts"]
    c.cells = int(label.size)
    c.band = int(np.sum(label == 2))
    c.require(
        [int(np.sum(label == k)) for k in (0, 1, 2)]
        == [counts["in_spectrum"], counts["regular"], counts["band"]],
        "CSV labels disagree with the JSON counts",
    )
    off = label != 2
    exact = np.where(EXACT_REGION[fn](x, y), 0, 1)
    c.agreement = float(np.mean(label[off] == exact[off])) if off.any() else 0.0
    c.require(c.agreement >= AGREEMENT_MIN, f"off-band agreement {c.agreement:.4f} < {AGREEMENT_MIN}")
    c.lambdas = c.decided = int(off.sum())
    c.examined = c.cells
    c.require(".svg" in out.files, "no SVG figure")
    return c


def _curve_points(out: Output) -> np.ndarray:
    pts = [np.asarray(out.payload()["curve"]["points"], dtype=float).reshape(-1, 2)]
    if ".csv" in out.files:
        pts.append(_pairs(out.files[".csv"])[:, 1:3])
    return np.concatenate(pts)


def spec2d_real_linear(out: Output, s: float, t: float, u: float, v: float) -> Check:
    """The eigenvalue curve of a real-linear map is an exact circle, or a point."""
    doc = out.payload()
    c = Check()
    a, b = _curve_points(out).T
    resid = np.abs(a**2 + b**2 - (s + v) * a - (u - t) * b + s * v - t * u)
    c.require(resid.max() < 1e-9, f"circle residual {resid.max():.2e}")
    degenerate = abs(s - v) < 1e-12 and abs(t + u) < 1e-12
    c.require(doc["curve_is_point"] == degenerate, "curve_is_point is wrong")
    return c


def spec2d_cardioid(out: Output) -> Check:
    c = Check()
    a, b = _curve_points(out).T
    resid = np.abs((a - 1.0) ** 2 + b**2 - (a**2 + b**2 - a) ** 2)
    c.require(resid.max() < 1e-9, f"cardioid residual {resid.max():.2e}")
    return c


def planar_bifurcate(out: Output, expect_empty: bool) -> Check:
    """Scan candidates: none for conj_pair, on the unit circle for norm_plus_i_im_pow(2)."""
    doc = out.payload()
    c = Check()
    summary = doc["verdicts_summary"]
    c.examined = sum(summary.values())
    c.decided = summary["candidate"] + summary["rejected"]
    c.lambdas = c.examined * len(doc["radii"])
    cands = np.asarray(doc["candidates"], dtype=float).reshape(-1, 2)
    c.require(doc["n_candidates"] == len(cands), "n_candidates disagrees with the list")
    if expect_empty:
        c.agreement = 1.0 - len(cands) / max(c.examined, 1)
        c.require(len(cands) == 0, f"{len(cands)} candidates for an empty spectrum")
        return c
    x0, x1, y0, y1, nx, ny = doc["grid"]
    cell = math.hypot((x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))
    near = np.abs(np.hypot(cands[:, 0], cands[:, 1]) - 1.0) <= 2.0 * cell
    c.agreement = float(near.mean()) if len(cands) else 0.0
    c.require(len(cands) > 0 and near.all(), "candidates off the unit circle")
    c.require(doc["contained_in_sigma"] is True, "candidates not contained in sigma")
    return c


# ---------------------------------------------------------------------------
# shift model


def shift(out: Output, lam: complex) -> Check:
    """Acceptance 07: the analytic record and the truncated sphere minima."""
    doc = out.payload()
    c = Check()
    rep = doc["report"]
    for key in ("spectrum_radius", "point_spectrum_radius", "q", "d"):
        c.require(abs(rep[key] - SQRT2) <= 1e-15, f"report {key} = {rep[key]}")
    c.require(rep["omega_part_radius"] == 1.0, "omega part radius != 1")
    probes = doc["truncation_residuals"]
    c.require(probes["sqrt2"] < 1e-6, f"sqrt(2) residual {probes['sqrt2']:.2e}")
    c.require(abs(probes["zero"] - 1.0) <= 1e-9, f"zero probe {probes['zero']!r}")
    c.require(abs(probes["two"] - (2.0 - SQRT2)) <= 1e-9, f"two probe {probes['two']!r}")
    q = doc["lambda_query"]
    m = abs(lam)
    c.require(q["lambda"] == [lam.real, lam.imag], "lambda query echoes another lambda")
    c.require(abs(q["truncated_min"] - abs(m - SQRT2)) <= 1e-9, f"truncated min {q['truncated_min']!r}")
    c.require(math.isclose(q["eigvec_norm_sq"], 1.0 / (m * m - 1.0), rel_tol=1e-12), "eigenvector norm")
    c.require(q["xi_solvable"] == (m > SQRT2), "xi solvability")
    if m > SQRT2:
        xi = q["xi_witness"]
        gap = xi - abs(xi) / math.sqrt(m * m - 1.0) - q["xi_eps"]
        c.require(abs(gap) < 1e-9 * max(1.0, abs(xi)), "xi witness does not solve the equation")
    c.lambdas = c.examined = c.decided = len(probes) + 1
    return c


def shift_scan(out: Output, angles: int, extra: int) -> Check:
    """Acceptance 08: every sqrt(2)-circle angle a candidate, the extra lambdas rejected."""
    doc = out.payload()
    c = Check()
    verdicts = doc["verdicts"]
    want = ["candidate"] * angles + ["rejected"] * extra
    c.require(len(verdicts) == len(want), f"{len(verdicts)} verdicts for {len(want)} lambdas")
    match = [v == w for v, w in zip(verdicts, want)]
    c.agreement = sum(match) / len(want)
    c.require(all(match) and len(match) == len(want), "scan verdicts differ from the exact record")
    c.examined = len(verdicts)
    c.decided = sum(v != "undecided" for v in verdicts)
    c.lambdas = sum(len(row) for row in doc["normalized_residuals"])
    return c


# ---------------------------------------------------------------------------
# one-dimensional engine and rate calculus


def _intervals(doc_set) -> list:
    return [[float(v) for v in pair] for pair in doc_set["intervals"]]


def spec1d(out: Output, sigma: list, point_sigma: list) -> Check:
    """Acceptance 05: the spectral intervals, exact to 1e-6 with infinities exact."""
    doc = out.payload()
    c = Check()
    for key, want in (("sigma", sigma), ("Sigma", point_sigma)):
        got = _intervals(doc[key])
        same = len(got) == len(want) and all(
            (g == w) if math.isinf(w) else abs(g - w) <= 1e-6
            for gp, wp in zip(got, want)
            for g, w in zip(gp, wp)
        )
        c.require(same, f"{key} = {doc[key]['display']}, expected {want}")
    return c


def mnc(out: Output) -> Check:
    doc = out.payload()
    c = Check()
    c.require(doc["alpha"] == [1.0, 1.0] and doc["omega"] == [1.0, 1.0],
              f"alpha {doc['alpha']}, omega {doc['omega']}")
    return c
