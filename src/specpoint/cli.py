"""Command line front end: `specpoint --help` lists the commands, `specpoint CMD --help` their flags.

All commands accept --out PATH (JSON to PATH; CSV/SVG artifacts next to it,
so a PATH with an artifact's suffix exits 2, as do a directory and a file
that cannot be written; existing files are replaced, not written into) and
--config FILE with `key = value` lines overridden by explicit flags.  A key
is one of the command's value flags with - written _, other than --out,
--config, --lambda and --extra-lambda; any other key exits 2.  Identical
argv produce byte-identical outputs.

`bifurcate --fn` alone reads --fn, --params and --grid; `bifurcate --shift`
alone reads --truncate, --angles, --perturb and --extra-lambda.  A flag or
key of the other mode exits 2.  A sampled result depends on the map, the
grid, the radii and --tol alone.  The --fn scan covers
--grid=-1.5,1.5,-1.5,1.5,24,30 by default, or the 24 real lambdas of
--grid=-1.5,1.5,0,0,24,1 for a map without complex structure, which takes
real lambda only.  No mode loads numpy.  A one dimensional builtin reads
its exact spec1d Sigma at 0, the limit r -> 0, and --radii is only echoed;
a builtin that is linear on each sphere (real_linear, conj_pair,
norm_times_x) reads its exact sphere minimum at the smallest radius, and
any other planar builtin its distance to the curve sigma_r traced there.

A value that is no number, an empty field of a list (an empty --params is no
parameters), an empty --radii and a non-integer --grid count exit 2.  A
non-finite number exits 3, but --threshold inf turns divergence detection
off.  Sizes are capped, and a value out of range exits 3 before anything is
allocated: --res <= 4096, --samples in [1, 2^20], --truncate <= 100000,
--angles <= 4096, --steps in [8, 4096], --grid counts nx, ny in [1, 128],
the --params of norm_times_x in [1, 16] and of norm_plus_i_im_pow in [2, 64],
and the reach of the classify band query (the widest of --band, 1e-9 and
the longest chord of a curve that missed its chord bound) <= 64 grid
spacings.  A negative --band, a --tol, --h0, --xi-eps, --radii or
--threshold that is not positive, a smallest spec1d step --h0 *
--ratio^(--steps - 1) that underflows to 0, a --point +- --h0 or a --grid
span x1 - x0, y1 - y0 beyond the floats (spec1d checks its grid in every
mode), and a shift lambda whose |lambda|^2 overflows exit 3 too.  The JSON
is strict: a non-finite number in an output exits 4 instead.

Exit codes: 0 success, 2 usage error, 3 precondition violated, 4 numeric or
solver failure, 5 undecided result: `classify` when any cell is undecided
(a band violation), `bifurcate --fn` when more than half of its verdicts
are undecided; no other command, `bifurcate --shift` included, exits 5.
Exits 2, 3 and 4 print one line on stderr and nothing on stdout.

Expression grammar for `mnc --expr` (composition `o` binds tighter than `+`):

    expr    := term ('+' term)*
    term    := factor (('o' | '∘') factor)*
    factor  := atom | scale(NUMBER, expr) | '(' expr ')'
    atom    := Identity | ScalarMultiple(c) | IsometryOntoCodim(k)
             | CompactLinear | FiniteRank(r) | LocallyCompactNonlinear
             | KnownRates(alpha=V, omega=V)
    V       := NUMBER | NUMBER..NUMBER | inf
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path

# Each command imports the engine modules it computes with, numpy included:
# every call loads the modules it imports.  Only `classify` needs numpy, and
# the shift model none of the planar and sampling engines.
from .core import (
    NAMES_1D,
    EvaluationError,
    NumericError,
    PreconditionError,
    SpecpointError,
    UnsupportedError,
    UsageError,
    scan_verdicts,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_UNDECIDED = 5
MAX_GRID = 128  # bifurcate --grid: lambdas a side, each scanned against the samples of its strip
CURVE_CSV_ROWS = 1 << 12  # lines of a spec2d curve CSV joined per write
ARTIFACTS = {"spec2d": (".csv",), "classify": (".csv", ".svg"), "shift": (".svg",)}  # written next to --out


def _cast(flag: str, kind, text):
    """text read as a value of the row's kind; a text that is not one exits 2 and names the flag."""
    if kind == "pairs":
        return [_cast(flag, "pair", t) for t in text]
    if kind == "pair":
        vals = _cast(flag, "floats", text)
        if len(vals) not in (1, 2):
            raise UsageError(f"{flag} expects `a` or `a,b`, got {text!r}")
        return complex(*vals)
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(f"{flag} takes {' | '.join(kind)}, got {text!r}")
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "floats":  # a blank text holds no numbers
            fields = text.split(",") if text.strip() else []
            if not all(t.strip() for t in fields):
                raise UsageError(f"{flag} has an empty field in {text!r}")
            return [float(t) for t in fields]
    except ValueError:
        raise UsageError(f"bad {kind} value for {flag}: {text!r}") from None
    return text


def _check(flag: str, check, value) -> None:
    """Exit 3 naming flag unless value passes the row's check (a malformed --grid or empty --radii exits 2)."""
    items = value if isinstance(value, list) else [value]
    if isinstance(check, tuple):
        if not check[0] <= value <= check[1]:
            raise PreconditionError(f"{flag} must lie in [{check[0]}, {check[1]}], got {value}")
    elif check == "finite":
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in items):
            raise PreconditionError(f"{flag} must be finite, got {value!r}")
        if not all(math.isfinite(math.hypot(x.real, x.imag)) for x in items):  # abs(lam) raises OverflowError
            raise PreconditionError(f"{flag} must have a finite modulus, got {value!r}")
    elif check == "positive":
        if not items:
            raise UsageError(f"{flag} needs at least one value")
        if not all(0.0 < x < math.inf for x in items):
            raise PreconditionError(f"{flag} must be positive and finite, got {value!r}")
    else:  # "grid"
        if len(value) != 6:
            raise UsageError(f"{flag} needs x0,x1,y0,y1,nx,ny")
        x0, x1, y0, y1, nx, ny = value
        if not all(map(math.isfinite, (*value, x1 - x0, y1 - y0))):
            raise PreconditionError(f"{flag} fields and spans x1 - x0, y1 - y0 must be finite, got {value!r}")
        if not (nx.is_integer() and ny.is_integer()):
            raise UsageError(f"{flag} counts nx, ny must be integers, got {nx!r}, {ny!r}")
        if not (1 <= nx <= MAX_GRID and 1 <= ny <= MAX_GRID):
            raise PreconditionError(f"{flag} counts nx, ny must lie in [1, {MAX_GRID}]")


def _load_config(path: str | None, cmd: str) -> dict[str, str]:
    """The `key = value` lines of the file at path; a key that cmd does not read is a usage error."""
    if not path:
        return {}
    rows = COMMANDS[cmd][2]
    keys = [flag[2:].replace("-", "_") for flag, kind, *_ in rows if kind not in ("switch", "pair", "pairs")]
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


def _resolve(args, config: dict) -> None:
    """Set each value flag of args to its argv value, else its config value, else its row's default.

    A given text is cast by the row's kind and checked; one of the other `bifurcate` mode exits 2.
    """
    mode = "shift" if getattr(args, "shift", False) else "fn"
    for flag, kind, default, check, only, _ in COMMANDS[args.cmd][2]:
        if kind == "switch":
            continue
        key = flag[2:].replace("-", "_")
        text, source = getattr(args, key), flag
        if text is None and key in config:
            text, source = config[key], f"config key {key!r}"
        if only not in (None, mode):
            if text is not None:
                raise UsageError(f"{source} is read by {args.cmd} --{only} only")
            continue
        value = default
        if text is not None:
            value = _cast(source, kind, text)
            if check is not None:
                _check(source, check, value)
        setattr(args, key, value)


def _fn_params(args) -> dict:
    """The keyword parameters of the --fn builtin, read from --params; a wrong count or kind exits 2.

    An integer parameter goes on as given: its factory checks its range.
    """
    name, params = args.fn, args.params
    if not name:
        raise UsageError("--fn NAME is required")
    if name == "real_linear":
        if len(params) != 4:
            raise UsageError("real_linear needs --params s,t,u,v")
        return dict(zip("stuv", params))
    if name in ("norm_plus_i_im_pow", "norm_times_x"):
        if len(params) > 1:
            raise UsageError(f"{name} takes at most one parameter, got {len(params)}")
        if params and not params[0].is_integer():
            raise UsageError(f"{name} takes an integer parameter, got {params[0]!r}")
        return {"n" if name == "norm_plus_i_im_pow" else "dim": params[0]} if params else {}
    if params:
        raise UsageError(f"builtin {name} takes no parameters")
    return {}


def _build_map(args):
    """The --fn builtin on floats: a one dimensional one from `dini`, any other from `planar`."""
    params = _fn_params(args)
    if args.fn in NAMES_1D:
        from .dini import builtin_1d

        return builtin_1d(args.fn)
    from .planar import builtin

    try:
        return builtin(args.fn, **params)
    except UnsupportedError as exc:
        raise UsageError(str(exc)) from None


def _linspace(start: float, stop: float, num: int) -> list:
    """The bits of np.linspace(start, stop, num), num >= 1 and stop - start finite, by numpy's steps."""
    delta, div = stop - start, max(num - 1, 1)
    step = delta / div
    ys = [(i * step if step else i / div * delta) + start for i in range(num)]
    return ys[:-1] + [stop] if num > 1 else ys  # stop replaces the one point that can overflow


def _emit(payload: dict, out_path: str | None) -> None:
    try:  # strict JSON: NaN and Infinity are not JSON numbers
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"non-finite number in the output: {exc}") from None
    if out_path:
        _write_text(Path(out_path), text)
    else:
        sys.stdout.write(text)


def _write(path: Path, fill) -> None:
    """Write a new file at path by fill(file): an existing file is unlinked, not truncated.

    Truncating a file in place makes the write wait while the old data is
    flushed, and writes through to every hard link of it.  An OSError is a
    usage error naming the path.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        with path.open("w") as out:
            fill(out)
    except OSError as exc:
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from None


def _write_text(path: Path, text: str) -> None:
    _write(path, lambda out: out.write(text))


def _curve_csv(curve, out) -> None:
    """Write the `theta,re,im` CSV of a curve to the text file `out`, CURVE_CSV_ROWS lines a write.

    The same bytes csv.writer gives, since no field here needs quoting;
    memory stays at one block of lines whatever the size of the file.
    """
    rows = zip(curve.thetas, curve.values)
    out.write("theta,re,im\n")
    while block := "".join(f"{t!r},{v.real!r},{v.imag!r}\n" for t, v in islice(rows, CURVE_CSV_ROWS)):
        out.write(block)


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


def _curve_json(curve, limit: int) -> dict:
    vals = curve.values
    step = math.ceil(len(vals) / limit)  # a traced curve has 16 samples or more
    return {
        "samples": len(vals),
        "chord_bound": curve.chord_bound,
        "chord_met": curve.chord_met,
        "label": "point-spectrum",
        "points": [[v.real, v.imag] for v in vals[::step]],
        "thinned_by": step,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spec1d(args) -> int:
    from . import dini as dini_mod

    f = _build_map(args)
    if f.dim != 1:
        raise PreconditionError(f"{f.name} is not one dimensional")
    dini_mod.check_estimator(args.point, args.h0, args.ratio, args.steps, args.threshold)  # in every mode
    mode = "numeric" if args.numeric else "exact"
    if not args.numeric and not args.exact:
        mode = "exact" if f.dini_exact is not None else "numeric"
    if mode == "exact":
        quad = dini_mod.dini_exact(f, args.point)
        flags = tuple(math.isinf(v) for v in quad.as_tuple())
    else:
        est = dini_mod.dini_estimate(f, args.point, h0=args.h0, ratio=args.ratio, steps=args.steps,
                                     divergence_threshold=args.threshold)
        quad, flags = est.quad, est.flagged
    payload = {
        "command": "spec1d",
        "fn": f.name,
        "point": args.point,
        "mode": mode,
        "dini": quad.to_json(),
        "divergence_flags": list(flags),
        "sigma": dini_mod.spectrum_1d(quad).to_json(),
        "Sigma": dini_mod.point_spectrum_1d(quad).to_json(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_spec2d(args) -> int:
    from . import planar

    f = _build_map(args)
    planar.require_planar_homogeneous(f)
    # a declared matrix gives d and q first: a map whose |f|^2 overflows exits 4 before its curve is traced
    rates = planar.growth_rates(f) if f.sphere_matrix is not None else None
    curve = planar.trace_curve(planar.curve_at(f), samples=args.samples)
    d, q = rates or planar.growth_rates(f, curve)
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
        _write(Path(args.out).with_suffix(".csv"), lambda out: _curve_csv(curve, out))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import homog2d, maps, planar, svgfig

    g = _build_map(args)
    planar.require_planar_homogeneous(g)
    # every planar homogeneous map is a planar builtin: homog2d labels the grid on arrays, and q is
    # read as spec2d takes it, on floats; a declared matrix gives it before the grid, so a map
    # whose |f|^2 overflows exits 4 before any cell is labelled
    rates = planar.growth_rates(g) if g.sphere_matrix is not None else None
    bounds = [args.xmin, args.xmax, args.ymin, args.ymax]
    f = maps.builtin(args.fn, **_fn_params(args))
    spectrum = homog2d.classify_plane(f, bounds=bounds, resolution=args.res, band_radius=args.band)
    _, q = rates or planar.growth_rates(g, spectrum.curve)
    payload = {
        "command": "classify",
        "fn": f.name,
        "bounds": bounds,
        "res": args.res,
        "radius_bound": q,
        **spectrum.summary(),
    }
    _emit(payload, args.out)
    if args.out:
        base = Path(args.out)
        _write(base.with_suffix(".csv"), lambda out: _grid_csv(spectrum, out))
        _write_text(base.with_suffix(".svg"), svgfig.classify_svg(spectrum, title=f.name))
    if spectrum.violations:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_shift(args) -> int:
    from . import structured

    n, eps, lam = args.truncate, args.xi_eps, getattr(args, "lambda")
    report = structured.SHIFT_REPORT
    payload = {
        "command": "shift",
        "report": report,
        "truncate": n,
        "eigvec_norm_sq_example": {
            "abs_lambda": math.sqrt(3.0),
            "value": structured.eigvec_norm_sq(math.sqrt(3.0)),
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
            "index": structured.fredholm_index(lam),
        }
        if abs(lam) > 1.0:
            entry["eigvec_norm_sq"] = structured.eigvec_norm_sq(lam)
            solvable, witness = structured.xi_equation_solvable(lam, eps)
            entry["xi_eps"] = eps
            entry["xi_solvable"] = solvable
            entry["xi_witness"] = witness
        payload["lambda_query"] = entry
    _emit(payload, args.out)
    if args.out:
        from . import svgfig

        fig = svgfig.annuli_svg(
            disk_radius=report["spectrum_radius"],
            circle_radii=(report["omega_part_radius"], report["point_spectrum_radius"]),
            title="shift model spectrum",
        )
        _write_text(Path(args.out).with_suffix(".svg"), fig)
    return EXIT_OK


def _cmd_mnc(args) -> int:
    if not args.expr:
        raise UsageError("--expr EXPRESSION is required")
    from . import rates

    bounds = rates.mnc_bounds(args.expr)
    payload = {"command": "mnc", "expr": args.expr, **bounds.to_json()}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bifurcate(args) -> int:
    """Residual rows from the route of the mode or map, read by one `scan_verdicts` call."""
    radii = sorted(args.radii, reverse=True)
    payload = {"command": "bifurcate", "tol": args.tol, "radii": radii}
    chord = 0.0
    if args.shift:
        from . import structured

        # the bits of np.linspace(0, 2 pi, angles, endpoint=False)
        thetas = [i * (2.0 * math.pi / args.angles) for i in range(args.angles)]
        # one orbit for the circle, whose modulus is SQRT2 as built, and one
        # for each extra lambda: the scan solves once per orbit
        circle = [structured.SQRT2 * complex(math.cos(t), math.sin(t)) for t in thetas]
        orbits = [(structured.SQRT2, circle)] + [(lam, [lam]) for lam in args.extra_lambda]
        lams = [lam for _, members in orbits for lam in members]
        rows = structured.shift_bifurcation_scan(orbits, N=args.truncate, radii=radii,
                                                 normsq_e1=args.perturb == "normsq_e1")
        payload.update(model="shift", truncate=args.truncate, perturb=args.perturb,
                       lambdas=[[l.real, l.imag] for l in lams], normalized_residuals=[list(row) for row in rows])
    else:
        f = _build_map(args)
        # a map without complex structure takes real lambda only
        default_grid = (-1.5, 1.5, -1.5, 1.5, 24, 30) if f.complex_pairs else (-1.5, 1.5, 0.0, 0.0, 24, 1)
        x0, x1, y0, y1, nx, ny = args.grid or default_grid
        if not f.complex_pairs and (y0 or (ny > 1 and y1)):
            raise PreconditionError("complex scalar acting on a map without complex structure")
        lams = [complex(x, y) for y in _linspace(y0, y1, int(ny)) for x in _linspace(x0, x1, int(nx))]
        if f.dini_exact is not None:  # a 1-D builtin: its bifurcation set, the limit r -> 0
            from .dini import sigma_distances

            residuals = sigma_distances(f, [l.real for l in lams])
        elif f.sphere_min is not None:  # linear on each sphere: the exact minimum at the smallest radius
            residuals = [f.sphere_min(l, radii[-1]) for l in lams]
        else:  # a planar builtin: the distance to its curve at the smallest radius
            from .planar import curve_distances

            residuals, chord = curve_distances(f, lams, radii[-1], args.tol)
        rows = [[d] for d in residuals]
        payload.update(fn=f.name, grid=[x0, x1, y0, y1, int(nx), int(ny)])

    verdicts = scan_verdicts(rows, args.tol, chord)
    candidates = [[l.real, l.imag] for l, v in zip(lams, verdicts) if v == "candidate"]
    payload["candidates"] = candidates
    if args.shift:  # no exit 5: the shift verdicts are listed
        payload["verdicts"] = list(verdicts)
        _emit(payload, args.out)
        return EXIT_OK
    undecided = verdicts.count("undecided")
    # in the plane a residual is dist(lam, sigma_r), exactly or to a sample: a candidate lies within tol of sigma_r
    payload.update(n_candidates=len(candidates), contained_in_sigma=True if candidates and f.dim == 2 else None,
                   verdicts_summary={"candidate": len(candidates), "rejected": verdicts.count("rejected"),
                                     "undecided": undecided})
    _emit(payload, args.out)
    return EXIT_UNDECIDED if undecided > len(verdicts) / 2 else EXIT_OK


# ---------------------------------------------------------------------------
# flag tables and parser

# One table per command: its help, its function, and a row per flag that
# the parser, the config keys and `_resolve` all read.  kind: int, float,
# str, floats (a,b,...), pair (a lambda a or a,b, read from argv only), pairs
# (repeatable), switch (a|b: mutually exclusive), or the names a str may
# take.  check: finite, positive (and finite, at least one), grid (see
# `_check`), an integer range (lo, hi), or None where the library checks the
# value: the --params of norm_times_x and norm_plus_i_im_pow are in range
# when their factories in `maps` and `planar` build the map.  mode: the
# bifurcate mode that alone reads the flag, shift or fn.
COMMANDS = {
    "spec1d": ("derivative quadruple and spectral intervals of a 1-D builtin", _cmd_spec1d, (
        # flag, kind, default, check, mode, help
        ("--fn", "str", None, None, None, None),
        ("--point", "float", 0.0, "finite", None, None),
        ("--exact|--numeric", "switch", None, None, None, None),
        ("--h0", "float", 0.1, None, None, None),
        ("--ratio", "float", 0.6, None, None, None),
        ("--steps", "int", 60, None, None, "grid steps, 8 to 4096"),
        ("--threshold", "float", 1e6, None, None, "divergence threshold, positive; inf turns detection off"),
        ("--params", "floats", (), "finite", None, None),
    )),
    "spec2d": ("eigenvalue curve, growth rates, and radius bound (planar)", _cmd_spec2d, (
        ("--fn", "str", None, None, None, None),
        ("--params", "floats", (), "finite", None, None),
        ("--samples", "int", 4096, None, None, None),
    )),
    "classify": ("region labeling over a plane grid by deg(lam*id - f) = 1 + wind(sigma, lam), SVG figure",
                 _cmd_classify, (
        ("--fn", "str", None, None, None, None),
        ("--params", "floats", (), "finite", None, None),
        ("--xmin", "float", -2.0, "finite", None, None),
        ("--xmax", "float", 2.0, "finite", None, None),
        ("--ymin", "float", -2.0, "finite", None, None),
        ("--ymax", "float", 2.0, "finite", None, None),
        ("--res", "int", 200, None, None, None),
        ("--band", "float", None, None, None, None),  # None: two cell diagonals
    )),
    "shift": ("analytic shift-model report plus truncation residuals", _cmd_shift, (
        ("--truncate", "int", 60, None, None, None),
        ("--lambda", "pair", None, "finite", None, "a,b"),
        ("--xi-eps", "float", 0.1, "positive", None, None),
    )),
    "mnc": ("compactness-rate bounds for an operator expression", _cmd_mnc, (
        ("--expr", "str", None, None, None, None),
    )),
    "bifurcate": ("bifurcation candidate scan (planar builtin or shift model)", _cmd_bifurcate, (
        ("--fn", "str", None, None, "fn", None),
        ("--params", "floats", (), "finite", "fn", None),
        ("--shift", "switch", None, None, None, "scan the shift model instead"),
        ("--perturb", ("none", "normsq_e1"), "none", None, "shift", None),
        ("--truncate", "int", 40, None, "shift", None),
        ("--angles", "int", 16, (0, 4096), "shift", None),  # lambdas on the sqrt(2) circle
        ("--extra-lambda", "pairs", (), "finite", "shift", "a,b (repeatable)"),
        ("--grid", "floats", None, "grid", "fn", "x0,x1,y0,y1,nx,ny"),  # None: set by the map
        ("--radii", "floats", (0.1, 0.01, 0.001), "positive", None, None),
        ("--tol", "float", 0.02, "positive", None, None),
    )),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, as every other usage error, not the usage text
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="specpoint",
        description="local spectra of continuous nonlinear maps",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (text, run, _) in COMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        for flag, kind, _, _, _, note in COMMANDS[cmd][2]:
            if kind == "switch":
                group = p.add_mutually_exclusive_group() if "|" in flag else p
                for name in flag.split("|"):
                    group.add_argument(name, action="store_true", help=note)
            else:
                note = " | ".join(kind) if isinstance(kind, tuple) else note
                p.add_argument(flag, action="append" if kind == "pairs" else "store", help=note)
        p.add_argument("--out", help="write JSON here (CSV/SVG alongside)")
        p.add_argument("--config", help="key = value defaults file")
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and Path(args.out).suffix in ARTIFACTS.get(args.cmd, ()):  # before any work
            raise UsageError(f"--out {args.out!r} is the path of an artifact {args.cmd} writes next to the JSON")
        if args.out and Path(args.out).is_dir():
            raise UsageError(f"--out {args.out!r} is a directory")
        _resolve(args, _load_config(args.config, args.cmd))
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError,) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericError, EvaluationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SpecpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
