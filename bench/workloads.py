"""The benchmark's workloads: seeded CLI argv lists, each with its oracle.

A workload is one pass of CLI calls.  The seed fixes every generated input
(real_linear parameters, lambda probes, extra scan lambdas and sub-cell grid
offsets); the program sees only the argv.  Values go in `--flag=value` form
because a negative number after a bare flag reads as another option.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

INF = math.inf


@dataclass(frozen=True)
class Call:
    argv: tuple           # arguments after the program name
    stem: Path | None     # --out path without suffix, or None when the JSON goes to stdout
    check: Callable       # checks.Output -> checks.Check


def _call(argv, stem, oracle, **params) -> Call:
    if stem is not None:
        argv = [*argv, f"--out={stem.with_suffix('.json')}"]
    return Call(tuple(argv), stem, partial(checks.run_check, oracle, **params))


def _box(rng, box, res):
    """Shift a box by a seeded offset of less than half a cell on each axis."""
    x0, x1, y0, y1 = box
    dx = rng.uniform(-0.5, 0.5) * (x1 - x0) / (res - 1)
    dy = rng.uniform(-0.5, 0.5) * (y1 - y0) / (res - 1)
    return (x0 + dx, x1 + dx, y0 + dy, y1 + dy)


def _classify(rng, stem, fn, box, res, *extra) -> Call:
    bounds = _box(rng, box, res)
    argv = ["classify", "--fn", fn, *(f"--{k}={v!r}" for k, v in zip(("xmin", "xmax", "ymin", "ymax"), bounds)),
            "--res", str(res), *extra]
    return _call(argv, stem, checks.classify, fn=fn, bounds=bounds, res=res)


def _polar(rng, lo, hi) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _shift(rng, truncate: int, *extra) -> Call:
    lam = _polar(rng, 1.2, 3.0)  # |lambda| >= 1.2: the truncated minimum is exact there
    argv = ["shift", "--truncate", str(truncate), f"--lambda={_pair(lam)}", *extra]
    return _call(argv, None, checks.shift, lam=lam)


def _shift_scan(rng, truncate: int, angles: int | None, perturb: bool) -> Call:
    argv = ["bifurcate", "--shift"]
    if perturb:
        argv += ["--perturb", "normsq_e1"]
    argv += ["--truncate", str(truncate)]
    if angles is not None:
        argv += ["--angles", str(angles)]
    extra = 0
    if perturb:
        # inside the sqrt(2) disk but away from its rim: always rejected
        argv.append(f"--extra-lambda={_pair(_polar(rng, 1.1, 1.3))}")
        extra = 1
    return _call(argv, None, checks.shift_scan, angles=angles or 16, extra=extra)


def classify_grid(rng, out: Path) -> list:
    return [
        _classify(rng, out / "00-cardioid", "norm_plus_i_im", (-2.0, 2.0, -2.0, 2.0), 800),
        _classify(rng, out / "01-two-circles", "half_abs_re_plus_i_im", (-1.5, 2.0, -1.5, 1.5), 400),
    ]


def shift_secular(rng, out: Path) -> list:
    return [
        _shift_scan(rng, 200, 64, perturb=False),
        _shift_scan(rng, 200, 64, perturb=True),
        _shift(rng, 1000),
    ]


def paper_mix(rng, out: Path) -> list:
    s, t, u, v = (rng.uniform(-3.0, 3.0) for _ in range(4))
    return [
        _call(["spec1d", "--fn", "sqrt_abs", "--point", "0", "--exact"], None,
              checks.spec1d, sigma=[[-INF, INF]], point_sigma=[]),
        _call(["spec1d", "--fn", "xsq_sin_inv", "--point", "0", "--numeric",
               "--h0", "0.1", "--ratio", "0.6", "--steps", "60"], None,
              checks.spec1d, sigma=[[0.0, 0.0]], point_sigma=[[0.0, 0.0]]),
        _call(["spec2d", "--fn", "real_linear", f"--params={s!r},{t!r},{u!r},{v!r}"], out / "02-linear",
              checks.spec2d_real_linear, s=s, t=t, u=u, v=v),
        _classify(rng, out / "03-cardioid", "norm_plus_i_im", (-2.0, 2.0, -2.0, 2.0), 200, "--band", "0.05"),
        _shift(rng, 60, "--xi-eps", "0.1"),
        _call(["mnc", "--expr", "IsometryOntoCodim(1) + CompactLinear"], None, checks.mnc),
        _call(["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2",
               "--grid=-1.5,1.5,-1.5,1.5,24,30", "--tol", "0.02"], None,
              checks.planar_bifurcate, expect_empty=False),
        _shift_scan(rng, 40, None, perturb=True),
        _call(["spec2d", "--fn", "norm_plus_i_im"], out / "08-cardioid-curve", checks.spec2d_cardioid),
        _call(["bifurcate", "--fn", "conj_pair", "--grid=-1.5,1.5,-1.5,1.5,8,8"], None,
              checks.planar_bifurcate, expect_empty=True),
    ]


WORKLOADS = {"classify-grid": classify_grid, "shift-secular": shift_secular, "paper-mix": paper_mix}


def build(name: str, seed: int, out: Path) -> list:
    """The calls of one pass of workload `name`, with inputs drawn from `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), out)
