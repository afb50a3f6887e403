"""Command line front end.

Subcommands:

    spec1d    derivative quadruple and spectral intervals of a 1-D builtin
    spec2d    eigenvalue curve, growth rates, and radius bound (planar)
    classify  region labeling over a plane grid by deg(lam*id - f) =
              1 + wind(sigma, lam), SVG figure
    shift     analytic shift-model report plus truncation residuals
    mnc       compactness-rate bounds for an operator expression
    bifurcate bifurcation candidate scan (planar builtin or shift model)

All commands accept --out PATH (JSON to PATH; CSV/SVG artifacts next to it)
and --config FILE with `key = value` lines overridden by explicit flags.  A
key is one of the command's value flags with - written _, other than --out,
--config, --lambda and --extra-lambda; any other key exits 2.
`bifurcate` also takes --seed, which rotates the sphere directions of every
--fn scan; no other command's result depends on a seed.  Identical argv
produce byte-identical outputs.

Sizes are capped, and a larger value exits 3 before anything is allocated:
--res <= 4096, --samples <= 2^20, --truncate <= 100000, --angles <= 4096,
--steps in [8, 4096], --grid counts nx, ny <= 128, and the reach of the
classify band query (the widest of --band, 1e-9 and the longest chord of a
curve that missed its chord bound) <= 64 grid spacings.  --samples below 1,
a negative --band, a --tol or --h0 that is not positive and finite, a
--threshold that is not positive (inf turns divergence detection off), a
smallest spec1d step --h0 * --ratio^(--steps - 1) that underflows to 0, a
--point +- --h0 beyond the floats (spec1d checks its grid in every mode), and
a non-finite --grid bound, --lambda, --extra-lambda or --point exit 3 too.
The JSON is strict: a non-finite number in an output exits 4 instead.

`bifurcate --fn` scans --grid=-1.5,1.5,-1.5,1.5,24,30 by default, or the 24
real lambdas of --grid=-1.5,1.5,0,0,24,1 for a map without complex structure,
which takes real lambda only.

Exit codes: 0 success, 2 usage error, 3 precondition violated, 4 numeric or
solver failure, 5 undecided result: `classify` when any cell is undecided
(a band violation), `bifurcate --fn` when more than half of its verdicts
are undecided; no other command, `bifurcate --shift` included, exits 5.

Expression grammar for `mnc --expr` (composition `o` binds tighter than `+`):

    expr    := term ('+' term)*
    term    := factor (('o' | '∘') factor)*
    factor  := atom | scale(NUMBER, expr) | '(' expr ')'
    atom    := Identity | ScalarMultiple(c) | IsometryOntoCodim(k)
             | CompactLinear | FiniteRank(r) | LocallyCompactNonlinear
             | KnownRates(alpha=V, omega=V [, d=V, q=V])
    V       := NUMBER | NUMBER..NUMBER | inf
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# Each command imports the engine modules it computes with, numpy included:
# every call loads the modules it imports, `mnc` needs no numpy, and a
# `shift` call needs none of the planar and sampling engines.
from .core import (
    EvaluationError,
    NumericError,
    PreconditionError,
    SolverError,
    SpecpointError,
    UnsupportedError,
    UsageError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_UNDECIDED = 5
MAX_ANGLES = 4096  # bifurcate --shift: lambdas on the sqrt(2) circle
MAX_GRID = 128  # bifurcate --grid: lambdas a side, each scanned against 512 sphere directions


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}: {exc}") from None


def _parse_pair(flag: str, text: str) -> complex:
    vals = _parse_floats(text)
    if len(vals) not in (1, 2):
        raise UsageError(f"expected `a` or `a,b`, got {text!r}")
    if not all(map(math.isfinite, vals)):
        raise PreconditionError(f"{flag} must be finite, got {text!r}")
    return complex(vals[0], vals[1] if len(vals) == 2 else 0.0)


def _load_config(path: str | None, cmd: str, keys: tuple) -> dict[str, str]:
    """The `key = value` lines of the file at path; a key that cmd does not read is a usage error."""
    if not path:
        return {}
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r} (expected key = value)")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise UsageError(f"config key {key!r} is not read by {cmd}; it reads {', '.join(keys)}")
        out[key] = val.strip()
    return out


def _effective(args, config: dict, key: str, default, cast):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        try:
            return cast(config[key])
        except (ValueError, UsageError) as exc:
            raise UsageError(f"bad config value for {key}: {exc}") from None
    return default


def _build_map(args, config):
    from .maps import builtin

    name = _effective(args, config, "fn", None, str)
    if not name:
        raise UsageError("--fn NAME is required")
    params_text = _effective(args, config, "params", "", str)
    params = _parse_floats(params_text) if params_text else []
    try:
        if name == "real_linear":
            if len(params) != 4:
                raise UsageError("real_linear needs --params s,t,u,v")
            return builtin(name, s=params[0], t=params[1], u=params[2], v=params[3])
        if name in ("norm_plus_i_im_pow", "norm_times_x"):
            if len(params) > 1:
                raise UsageError(f"{name} takes at most one parameter, got {len(params)}")
            if params and not params[0].is_integer():
                raise UsageError(f"{name} takes an integer parameter, got {params[0]!r}")
            n = int(params[0]) if params else 2
            return builtin(name, n=n) if name == "norm_plus_i_im_pow" else builtin(name, dim=n)
        if params:
            raise UsageError(f"builtin {name} takes no parameters")
        return builtin(name)
    except UnsupportedError as exc:
        raise UsageError(str(exc)) from None


def _emit(payload: dict, out_path: str | None) -> None:
    try:  # strict JSON: NaN and Infinity are not JSON numbers
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"non-finite number in the output: {exc}") from None
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _curve_csv(curve) -> str:
    # the same bytes csv.writer gives: no field here needs quoting
    rows = zip(curve.thetas.tolist(), curve.values.real.tolist(), curve.values.imag.tolist())
    return "theta,re,im\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, x, y in rows)


def _grid_csv(spectrum, out) -> None:
    """Write the `re,im,label` CSV of a classified grid to the text file `out`.

    One line per cell, rows of ascending im, each row in ascending re: the
    same bytes csv.writer gives, since no field here needs quoting.  The
    lines of a run of equal labels share their `im,label` suffix, so a run
    is one join of its `re,` prefixes.  Runs are written as
    `PlaneSpectrum.label_runs` yields them, one row block at a time, so
    memory stays at a row block's runs whatever the size of the file.
    """
    names = ("in_spectrum\n", "regular\n", "band\n")
    cols = [repr(x) + "," for x in spectrum.xs.tolist()]
    ims = [repr(y) + "," for y in spectrum.ys.tolist()]
    out.write("re,im,label\n")
    for rows, starts, stops, labels in spectrum.label_runs():
        for j, a, b, lab in zip(rows.tolist(), starts.tolist(), stops.tolist(), labels.tolist()):
            suffix = ims[j] + names[lab]
            out.write(suffix.join(cols[a:b]) + suffix)


def _curve_json(curve, limit: int | None = None) -> dict:
    vals = curve.values
    step = 1 if limit is None or vals.size <= limit else math.ceil(vals.size / limit)
    return {
        "samples": int(vals.size),
        "chord_bound": None if math.isnan(curve.chord_bound) else curve.chord_bound,
        "chord_met": curve.chord_met,
        "label": curve.label,
        "points": [[float(v.real), float(v.imag)] for v in vals[::step]],
        "thinned_by": step,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spec1d(args, config) -> int:
    from . import dini as dini_mod

    # a 1-D builtin runs on bare Python; any other name errs as in the catalogue
    name = _effective(args, config, "fn", None, str)
    plain = name in dini_mod.BUILTINS_1D and not _effective(args, config, "params", "", str)
    f = dini_mod.builtin_1d(name) if plain else _build_map(args, config)
    if f.dim != 1:
        raise PreconditionError(f"{f.name} is not one dimensional")
    point = _effective(args, config, "point", 0.0, float)
    if not math.isfinite(point):
        raise PreconditionError(f"--point must be finite, got {point!r}")
    h0 = _effective(args, config, "h0", 0.1, float)
    ratio = _effective(args, config, "ratio", 0.6, float)
    steps = int(_effective(args, config, "steps", 60, int))
    threshold = _effective(args, config, "threshold", 1e6, float)
    dini_mod.check_estimator(point, h0, ratio, steps, threshold)  # checked in every mode
    mode = "numeric" if args.numeric else "exact"
    if not args.numeric and not args.exact:
        mode = "exact" if f.dini_exact is not None else "numeric"
    if mode == "exact":
        quad = dini_mod.dini_exact(f, point)
        flags = tuple(math.isinf(v) for v in quad.as_tuple())
    else:
        est = dini_mod.dini_estimate(
            f, point, h0=h0, ratio=ratio, steps=steps, divergence_threshold=threshold
        )
        quad, flags = est.quad, est.flagged
    payload = {
        "command": "spec1d",
        "fn": f.name,
        "point": point,
        "mode": mode,
        "dini": quad.to_json(),
        "divergence_flags": list(flags),
        "sigma": dini_mod.spectrum_1d(quad).to_json(),
        "Sigma": dini_mod.point_spectrum_1d(quad).to_json(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_spec2d(args, config) -> int:
    from . import homog2d

    f = _build_map(args, config)
    samples = int(_effective(args, config, "samples", 4096, int))
    curve = homog2d.sigma_curve(f, samples=samples)
    d, q = homog2d.d_and_quasinorm(f)
    payload = {
        "command": "spec2d",
        "fn": f.name,
        "curve": _curve_json(curve, limit=512),
        "curve_is_point": curve.is_point(1e-9),
        "d": d,
        "q": q,
        "radius_bound": q,
    }
    _emit(payload, args.out)
    if args.out:
        _write_text(Path(args.out).with_suffix(".csv"), _curve_csv(curve))
    return EXIT_OK


def _cmd_classify(args, config) -> int:
    from . import homog2d, svgfig

    f = _build_map(args, config)
    xmin = _effective(args, config, "xmin", -2.0, float)
    xmax = _effective(args, config, "xmax", 2.0, float)
    ymin = _effective(args, config, "ymin", -2.0, float)
    ymax = _effective(args, config, "ymax", 2.0, float)
    res = int(_effective(args, config, "res", 200, int))
    band = _effective(args, config, "band", None, float)
    spectrum = homog2d.classify_plane(
        f, bounds=(xmin, xmax, ymin, ymax), resolution=res, band_radius=band
    )
    summary = spectrum.summary()
    payload = {
        "command": "classify",
        "fn": f.name,
        "bounds": [xmin, xmax, ymin, ymax],
        "res": res,
        "radius_bound": homog2d.spectral_radius_bound(f),
        **summary,
    }
    _emit(payload, args.out)
    if args.out:
        base = Path(args.out)
        with base.with_suffix(".csv").open("w") as csv_file:
            _grid_csv(spectrum, csv_file)
        _write_text(base.with_suffix(".svg"), svgfig.classify_svg(spectrum, title=f.name))
    if spectrum.violations:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_shift(args, config) -> int:
    from . import structured

    n = int(_effective(args, config, "truncate", 60, int))
    eps = _effective(args, config, "xi_eps", 0.1, float)
    lam = _parse_pair("--lambda", args.lam) if args.lam else None
    report = structured.shift_model_report()
    payload = {
        "command": "shift",
        "report": report.to_json(),
        "truncate": n,
        "eigvec_norm_sq_example": {
            "abs_lambda": math.sqrt(3.0),
            "value": report.eigvec_norm_sq(math.sqrt(3.0)),
        },
        "truncation_residuals": {
            "sqrt2": structured.truncated_shift_min(structured.SQRT2, n),
            "zero": structured.truncated_shift_min(0.0, n),
            "two": structured.truncated_shift_min(2.0, n),
        },
        "truncation_note": "sphere minima are reliable probes only for |lambda| > 1",
    }
    if lam is not None:
        entry = {
            "lambda": [lam.real, lam.imag],
            "truncated_min": structured.truncated_shift_min(lam, n),
            "index": report.index(lam),
        }
        if abs(lam) > 1.0:
            entry["eigvec_norm_sq"] = report.eigvec_norm_sq(lam)
            solvable, witness = structured.xi_equation_solvable(lam, eps)
            entry["xi_eps"] = eps
            entry["xi_solvable"] = solvable
            entry["xi_witness"] = witness
        payload["lambda_query"] = entry
    _emit(payload, args.out)
    if args.out:
        from . import svgfig

        fig = svgfig.annuli_svg(
            disk_radius=report.spectrum_radius,
            circle_radii=(report.omega_part_radius, report.point_spectrum_radius),
            title="shift model spectrum",
        )
        _write_text(Path(args.out).with_suffix(".svg"), fig)
    return EXIT_OK


def _cmd_mnc(args, config) -> int:
    expr_text = _effective(args, config, "expr", None, str)
    if not expr_text:
        raise UsageError("--expr EXPRESSION is required")
    from . import rates

    expr = rates.parse_expr(expr_text)
    bounds = rates.mnc_bounds(expr)
    payload = {"command": "mnc", "expr": expr_text, **bounds.to_json()}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bifurcate(args, config) -> int:
    import numpy as np

    radii_text = _effective(args, config, "radii", "0.1,0.01,0.001", str)
    radii = _parse_floats(radii_text)
    if not radii:
        raise UsageError("--radii needs at least one radius")
    if not all(0.0 < r < math.inf for r in radii):
        raise PreconditionError(f"radii must be positive and finite, got {radii_text!r}")
    tol = _effective(args, config, "tol", 0.02, float)
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"--tol must be positive and finite, got {tol!r}")

    if args.shift:
        from . import structured

        n = int(_effective(args, config, "truncate", 40, int))
        angles = int(_effective(args, config, "angles", 16, int))
        if not 0 <= angles <= MAX_ANGLES:
            raise PreconditionError(f"--angles must lie in [0, {MAX_ANGLES}], got {angles}")
        thetas = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
        # one orbit for the circle, whose modulus is SQRT2 as built, and one
        # for each extra lambda: the scan solves once per orbit
        circle = [structured.SQRT2 * complex(math.cos(t), math.sin(t)) for t in thetas]
        extras = [_parse_pair("--extra-lambda", extra) for extra in args.extra_lambda or []]
        lams = structured.LambdaOrbits([(structured.SQRT2, circle)] + [(lam, [lam]) for lam in extras])
        perturb = _effective(args, config, "perturb", "none", str)
        h_const = None
        if perturb == "normsq_e1":
            def h_const(r, _n=n):
                v = np.zeros(_n, dtype=complex)
                v[0] = r * r
                return v
        elif perturb != "none":
            raise UsageError(f"unknown perturbation {perturb!r}")
        scan = structured.shift_bifurcation_scan(
            lams, N=n, radii=radii, tol=tol, h_sphere_const=h_const
        )
        payload = {
            "command": "bifurcate",
            "model": "shift",
            "truncate": n,
            "perturb": perturb,
            "tol": tol,
            "radii": list(scan.radii),
            "lambdas": [[l.real, l.imag] for l in scan.lams],
            "normalized_residuals": [[float(v) for v in row] for row in scan.normalized],
            "candidates": [[c.real, c.imag] for c in scan.candidates],
            "verdicts": list(scan.verdicts),
        }
        _emit(payload, args.out)
        return EXIT_OK

    from . import estimators

    f = _build_map(args, config)
    # a map without complex structure takes real lambda only
    default_grid = "-1.5,1.5,-1.5,1.5,24,30" if f.complex_pairs else "-1.5,1.5,0,0,24,1"
    grid_text = _effective(args, config, "grid", default_grid, str)
    g = _parse_floats(grid_text)
    if len(g) != 6:
        raise UsageError("--grid needs x0,x1,y0,y1,nx,ny")
    x0, x1, y0, y1, nx, ny = g
    if not (nx.is_integer() and ny.is_integer()):
        raise UsageError(f"--grid counts nx, ny must be integers, got {nx!r}, {ny!r}")
    if not (1 <= nx <= MAX_GRID and 1 <= ny <= MAX_GRID):
        raise PreconditionError(f"--grid counts nx, ny must lie in [1, {MAX_GRID}]")
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise PreconditionError(f"--grid bounds must be finite, got {grid_text!r}")
    xs = np.linspace(x0, x1, int(nx))
    ys = np.linspace(y0, y1, int(ny))
    lams = [complex(x, y) for y in ys for x in xs]
    seed = int(_effective(args, config, "seed", 0, int))
    scan = estimators.bifurcation_scan(f, lams, radii=radii, tol=tol, seed=seed)
    undecided = [v for v in scan.verdicts if v == "undecided"]
    payload = {
        "command": "bifurcate",
        "fn": f.name,
        "grid": [x0, x1, y0, y1, int(nx), int(ny)],
        "tol": tol,
        "radii": list(scan.radii),
        "candidates": [[c.real, c.imag] for c in scan.candidates],
        "n_candidates": len(scan.candidates),
        "contained_in_sigma": scan.contained_in_sigma,
        "verdicts_summary": {
            "candidate": sum(1 for v in scan.verdicts if v == "candidate"),
            "rejected": sum(1 for v in scan.verdicts if v == "rejected"),
            "undecided": len(undecided),
        },
    }
    _emit(payload, args.out)
    if len(undecided) > len(scan.verdicts) / 2:
        return EXIT_UNDECIDED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", type=str, default=None, help="write JSON here (CSV/SVG alongside)")
    p.add_argument("--config", type=str, default=None, help="key = value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specpoint",
        description="local spectra of continuous nonlinear maps",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p1 = sub.add_parser("spec1d", help="one dimensional spectral intervals")
    p1.add_argument("--fn", type=str, default=None)
    p1.add_argument("--point", type=float, default=None)
    mode = p1.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--numeric", action="store_true")
    p1.add_argument("--h0", type=float, default=None)
    p1.add_argument("--ratio", type=float, default=None)
    p1.add_argument("--steps", type=int, default=None, help="grid steps, 8 to 4096")
    p1.add_argument("--threshold", type=float, default=None,
                    help="divergence threshold, positive; inf turns detection off")
    p1.add_argument("--params", type=str, default=None)
    _add_common(p1)
    p1.set_defaults(run=_cmd_spec1d, config_keys=("fn", "params", "point", "h0", "ratio", "steps", "threshold"))

    p2 = sub.add_parser("spec2d", help="planar eigenvalue curve and rates")
    p2.add_argument("--fn", type=str, default=None)
    p2.add_argument("--params", type=str, default=None)
    p2.add_argument("--samples", type=int, default=None)
    _add_common(p2)
    p2.set_defaults(run=_cmd_spec2d, config_keys=("fn", "params", "samples"))

    p3 = sub.add_parser("classify", help="region labeling over a plane grid")
    p3.add_argument("--fn", type=str, default=None)
    p3.add_argument("--params", type=str, default=None)
    p3.add_argument("--xmin", type=float, default=None)
    p3.add_argument("--xmax", type=float, default=None)
    p3.add_argument("--ymin", type=float, default=None)
    p3.add_argument("--ymax", type=float, default=None)
    p3.add_argument("--res", type=int, default=None)
    p3.add_argument("--band", type=float, default=None)
    _add_common(p3)
    p3.set_defaults(run=_cmd_classify, config_keys=("fn", "params", "xmin", "xmax", "ymin", "ymax", "res", "band"))

    p4 = sub.add_parser("shift", help="sequence-space shift model report")
    p4.add_argument("--truncate", type=int, default=None)
    p4.add_argument("--lambda", dest="lam", type=str, default=None, help="a,b")
    p4.add_argument("--xi-eps", dest="xi_eps", type=float, default=None)
    _add_common(p4)
    p4.set_defaults(run=_cmd_shift, config_keys=("truncate", "xi_eps"))

    p5 = sub.add_parser("mnc", help="compactness-rate bounds for an expression")
    p5.add_argument("--expr", type=str, default=None)
    _add_common(p5)
    p5.set_defaults(run=_cmd_mnc, config_keys=("expr",))

    p6 = sub.add_parser("bifurcate", help="bifurcation candidate scan")
    p6.add_argument("--fn", type=str, default=None)
    p6.add_argument("--params", type=str, default=None)
    p6.add_argument("--shift", action="store_true", help="scan the shift model instead")
    p6.add_argument("--perturb", type=str, default=None, help="none | normsq_e1")
    p6.add_argument("--truncate", type=int, default=None)
    p6.add_argument("--angles", type=int, default=None)
    p6.add_argument("--extra-lambda", action="append", default=None, help="a,b (repeatable)")
    p6.add_argument("--grid", type=str, default=None, help="x0,x1,y0,y1,nx,ny")
    p6.add_argument("--radii", type=str, default=None)
    p6.add_argument("--tol", type=float, default=None)
    p6.add_argument("--seed", type=int, default=None, help="rotates the sphere directions of a --fn scan")
    _add_common(p6)
    p6.set_defaults(run=_cmd_bifurcate, config_keys=("fn", "params", "perturb", "truncate", "angles",
                                                     "grid", "radii", "tol", "seed"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        config = _load_config(args.config, args.cmd, args.config_keys)
        return args.run(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError,) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SolverError, NumericError, EvaluationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SpecpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
