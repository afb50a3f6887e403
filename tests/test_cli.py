import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specpoint import cli
from specpoint.dini import MAX_STEPS
from specpoint.homog2d import MAX_RESOLUTION
from specpoint.maps import BUILTIN_NAMES, MAX_DIM
from specpoint.structured import MAX_TRUNCATION, SQRT2

from oracles import sphere_least_squares


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run_cli(capsys, argv)
    assert rc == 0, out
    return json.loads(out)


def test_spec1d_exact_sqrt_abs(capsys):
    d = run_json(capsys, ["spec1d", "--fn", "sqrt_abs", "--point", "0", "--exact"])
    assert d["sigma"]["display"] == "(-inf,+inf)"
    assert d["Sigma"]["display"] == "[]"
    assert d["dini"]["d_plus_high"] == "inf"
    assert d["dini"]["d_minus_low"] == "-inf"


def test_spec1d_numeric_matches_exact(capsys):
    exact = run_json(capsys, ["spec1d", "--fn", "xsq_sin_inv", "--point", "0", "--exact"])
    numeric = run_json(capsys, ["spec1d", "--fn", "xsq_sin_inv", "--point", "0", "--numeric"])
    assert exact["sigma"]["display"] == "{0}"
    assert numeric["mode"] == "numeric"
    for key in ("d_minus_low", "d_plus_high"):
        assert abs(float(numeric["dini"][key])) < 1e-6


BAD_ESTIMATOR_FLAGS = [
    "--steps 3000",  # 0.1 * 0.6^2999 underflowed to 0: a NaN quotient and a traceback, exit 1
    "--steps 4097 --ratio 0.99",  # ran: no cap, and the grid is a Python list now
    "--threshold nan",  # switched divergence detection off, exit 0
    "--threshold -5",  # flagged all four components, exit 0
    "--threshold 0",  # flagged every nonzero extreme, exit 0
    "--h0 inf",  # exited 2 as the domain error "non-finite input to sqrt_abs"
]


# --exact and the default mode of sqrt_abs, which is exact, read the flags
# too and ignored them with exit 0; a --numeric case keeps the bare flags as its id
@pytest.mark.parametrize("mode, flags", [
    pytest.param(mode, flags, id=flags if mode == "--numeric" else f"{mode or 'default'} {flags}")
    for mode in ("--numeric", "--exact", "") for flags in BAD_ESTIMATOR_FLAGS
])
def test_spec1d_rejects_a_bad_estimator_flag(capsys, mode, flags):
    argv = ["spec1d", "--fn", "sqrt_abs", "--point", "0", *mode.split(), *flags.split()]
    assert run_cli(capsys, argv) == (3, "")


@pytest.mark.parametrize("flags", ["--steps 3000 --ratio 0.999", "--steps 4096 --ratio 0.99", "--threshold inf"])
def test_spec1d_takes_the_deepest_grids_and_no_threshold(capsys, flags):
    d = run_json(capsys, ["spec1d", "--fn", "sqrt_abs", "--point", "0", "--numeric", *flags.split()])
    if flags == "--threshold inf":  # divergence detection off: the extremes stay finite
        assert d["divergence_flags"] == [False] * 4
        assert all(isinstance(v, float) for v in d["dini"].values())


def test_spec2d_degenerate_linear(capsys, tmp_path):
    out = tmp_path / "lin.json"
    rc, _ = run_cli(
        capsys,
        ["spec2d", "--fn", "real_linear", "--params", "1,-2,2,1", "--out", str(out)],
    )
    assert rc == 0
    assert out.exists()
    d = json.loads(out.read_text())
    assert d["curve_is_point"] is True
    pt = d["curve"]["points"][0]
    assert abs(pt[0] - 1.0) < 1e-9 and abs(pt[1] - 2.0) < 1e-9
    csv_path = out.with_suffix(".csv")
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "theta,re,im"


def test_spec2d_reports_rates(capsys):
    d = run_json(capsys, ["spec2d", "--fn", "half_abs_re_plus_i_im", "--samples", "512"])
    assert abs(d["d"] - 0.5) < 1e-9
    assert abs(d["q"] - 1.0) < 1e-9
    assert abs(d["radius_bound"] - 1.0) < 1e-9


def test_classify_outputs_and_determinism(capsys, tmp_path):
    args = [
        "classify",
        "--fn",
        "abs_re_plus_i_im",
        "--res",
        "48",
        "--band",
        "0.1",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    rc1, _ = run_cli(capsys, args + ["--out", str(out1)])
    rc2, _ = run_cli(capsys, args + ["--out", str(out2)])
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    svg1 = out1.with_suffix(".svg").read_bytes()
    assert svg1 == out2.with_suffix(".svg").read_bytes()
    assert b'id="region"' in svg1 and b'id="curve"' in svg1 and b"<polyline" in svg1
    d = json.loads(out1.read_text())
    assert d["component_consistent"] is True
    assert "zero_epi_proxy" in d["assumptions"]


def test_classify_area_close_to_disk(capsys):
    d = run_json(capsys, ["classify", "--fn", "abs_re_plus_i_im", "--res", "200"])
    assert abs(d["in_spectrum_area_estimate"] - math.pi) < 0.03 * math.pi


def test_shift_report(capsys):
    d = run_json(capsys, ["shift", "--truncate", "40", "--lambda", "2,0"])
    assert abs(d["report"]["d"] - math.sqrt(2)) < 1e-12
    assert abs(d["report"]["q"] - math.sqrt(2)) < 1e-12
    assert d["truncation_residuals"]["sqrt2"] < 1e-6
    assert abs(d["truncation_residuals"]["zero"] - 1.0) < 1e-9
    q = d["lambda_query"]
    assert q["index"] == 0
    assert abs(q["eigvec_norm_sq"] - 1.0 / 3.0) < 1e-12
    assert q["xi_solvable"] is True


def test_shift_query_inside_the_unit_circle(capsys):
    # the finite-section regime: index -1, no resolvent direction, and the
    # truncated minimum of the closed-form solve agrees with cyclic reduction
    q = run_json(capsys, ["shift", "--truncate", "60", "--lambda", "0.5,0"])["lambda_query"]
    assert q["index"] == -1
    assert "eigvec_norm_sq" not in q and not any(k.startswith("xi_") for k in q)
    e1 = np.zeros(60, dtype=complex)
    e1[0] = 1.0
    assert abs(q["truncated_min"] - sphere_least_squares(0.5, e1)[1]) < 1e-12


def test_shift_query_on_the_unit_circle(capsys):
    q = run_json(capsys, ["shift", "--truncate", "60", "--lambda", "1,0"])["lambda_query"]
    assert q["index"] is None
    assert "eigvec_norm_sq" not in q


def test_shift_svg_artifact(capsys, tmp_path):
    out = tmp_path / "shift.json"
    rc, _ = run_cli(capsys, ["shift", "--out", str(out)])
    assert rc == 0
    svg = out.with_suffix(".svg").read_text()
    assert 'id="region"' in svg and 'id="curve"' in svg
    assert svg.count("<circle") == 3  # shaded disk plus two circles


def test_out_naming_an_artifact_path_exits_2_and_writes_nothing(capsys, tmp_path):
    # the artifact written next to the JSON took the JSON's own path and overwrote it
    for argv, name in (
        (["spec2d", "--fn", "norm_plus_i_im"], "curve.csv"),
        (["classify", "--fn", "norm_plus_i_im", "--res", "20"], "c.svg"),
        (["classify", "--fn", "norm_plus_i_im", "--res", "20"], "c.csv"),
        (["shift"], "s.svg"),
    ):
        rc = cli.main([*argv, "--out", str(tmp_path / "o" / name)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", argv
        assert captured.err.startswith("usage error: --out "), captured.err
        assert not any(tmp_path.iterdir()), argv


# each command that writes files, with the suffixes of the files it writes
WRITERS = (
    (["spec2d", "--fn", "norm_plus_i_im"], (".json", ".csv")),
    (["classify", "--fn", "norm_plus_i_im", "--res", "20"], (".json", ".csv", ".svg")),
    (["shift", "--truncate", "8"], (".json", ".svg")),
)


@pytest.mark.parametrize("argv, suffixes", WRITERS, ids=[argv[0] for argv, _ in WRITERS])
def test_out_naming_a_directory_exits_2_before_any_work(capsys, tmp_path, argv, suffixes):
    # the command did all its work, then died with IsADirectoryError and exit 1
    rc = cli.main([*argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"usage error: --out {str(tmp_path)!r} is a directory\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, suffixes", WRITERS, ids=[argv[0] for argv, _ in WRITERS])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, argv, suffixes):
    # a parent that is a regular file fails even for root
    parent = tmp_path / "file"
    parent.write_text("keep\n")
    out = parent / "o.json"
    rc = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {str(out)!r}: "), captured.err
    assert parent.read_text() == "keep\n"


@pytest.mark.parametrize("argv, suffixes", WRITERS, ids=[argv[0] for argv, _ in WRITERS])
def test_out_replaces_files_instead_of_writing_into_them(capsys, tmp_path, argv, suffixes):
    # the writes truncated an existing file in place, and so wrote through
    # every hard link of it
    other = tmp_path / "other"
    other.write_text("keep\n")
    out = tmp_path / "o" / "x.json"
    out.parent.mkdir()
    for suffix in suffixes:
        os.link(other, out.with_suffix(suffix))
    rc, _ = run_cli(capsys, [*argv, "--out", str(out)])
    assert rc == 0
    assert other.read_text() == "keep\n"
    assert json.loads(out.read_text())["command"] == argv[0]
    for suffix in suffixes:
        path = out.with_suffix(suffix)
        assert path.stat().st_nlink == 1 and path.read_text() != "keep\n", suffix


def test_mnc_expression(capsys):
    d = run_json(capsys, ["mnc", "--expr", "IsometryOntoCodim(1) + CompactLinear"])
    assert d["alpha"] == [1.0, 1.0]
    assert d["omega"] == [1.0, 1.0]
    assert any("sum" in r for r in d["derivation"])


@pytest.mark.parametrize("expr", [
    "scale(0, KnownRates(alpha=inf))",
    "scale(inf, CompactLinear)",
    "scale(0, KnownRates(alpha=1..inf, omega=inf))",
])
def test_mnc_scale_takes_zero_times_inf_as_zero(capsys, expr):
    d = run_json(capsys, ["mnc", "--expr", expr])
    assert d["alpha"] == [0.0, 0.0]
    assert d["omega"] == [0.0, 0.0]


@pytest.mark.parametrize("expr", [
    "FiniteRank(inf)",  # escaped as OverflowError
    "IsometryOntoCodim(inf)",  # escaped as OverflowError
    "KnownRates(alpha=2..1, omega=0)",  # escaped as ValueError
    "FiniteRank(1.5)",  # read as rank 1
    "FiniteRank(-2)",
    "IsometryOntoCodim(1.5)",  # read as codimension 1
    "IsometryOntoCodim(-1)",
    "KnownRates(alpha=1, omega=0, d=5, q=3)",  # no rule reads d or q
    "KnownRates(alpha=-1, omega=-1)",  # escaped as ValueError
    "KnownRates(alpha=-2..-1, omega=-3)",  # escaped as ValueError
    "KnownRates(omega=-1)",  # printed omega [-1, -1]
    "KnownRates(alpha=-1..2)",  # read as alpha [0, 2]
])
def test_mnc_rejects_a_bad_count_or_interval(capsys, expr):
    assert run_cli(capsys, ["mnc", "--expr", expr]) == (2, "")


ISO, ID, MUL, KNOWN = "atom:isometry", "atom:identity", "atom:scalar-multiple", "atom:known-rates"
COMPACT = "atom:locally-compact(alpha=omega=0)"
SUM = ["rule:sum.alpha.two-sided", "rule:sum.omega.sandwich"]
COMPOSE = ["rule:compose.alpha.product", "rule:compose.omega.sandwich"]
# expression: (alpha, omega, derivation), each rule listed after its operands, left before right
MNC_CORPUS = {
    "IsometryOntoCodim(1) + CompactLinear": ([1.0, 1.0], [1.0, 1.0], [ISO, COMPACT, *SUM]),
    "scale(0, KnownRates(alpha=inf)) + KnownRates(alpha=1..2, omega=0.5) o IsometryOntoCodim(1)": (
        [0.5, 2.0], [0.5, 2.0], [KNOWN, "rule:scale", KNOWN, ISO, *COMPOSE, *SUM, "order:alpha>=omega"]),
    "Identity": ([1.0, 1.0], [1.0, 1.0], [ID]),
    "ScalarMultiple(-2)": ([2.0, 2.0], [2.0, 2.0], [MUL]),
    "IsometryOntoCodim(2)": ([1.0, 1.0], [1.0, 1.0], [ISO]),
    "CompactLinear": ([0.0, 0.0], [0.0, 0.0], [COMPACT]),
    "FiniteRank(3)": ([0.0, 0.0], [0.0, 0.0], [COMPACT]),
    "LocallyCompactNonlinear": ([0.0, 0.0], [0.0, 0.0], [COMPACT]),
    "KnownRates(alpha=2, omega=1)": ([2.0, 2.0], [1.0, 1.0], [KNOWN]),
    "KnownRates(alpha=0..inf, omega=0..inf)": ([0.0, "inf"], [0.0, "inf"], ["atom:no rule"]),
    "Identity + ScalarMultiple(2) o KnownRates(alpha=3, omega=0.5)": (
        [0.0, 7.0], [0.0, 2.0], [ID, MUL, KNOWN, *COMPOSE, *SUM]),
    "(Identity + ScalarMultiple(2)) o KnownRates(alpha=3, omega=0.5)": (
        [0.5, 9.0], [0.5, 1.5], [ID, MUL, *SUM, KNOWN, *COMPOSE, "order:alpha>=omega"]),
    "KnownRates(alpha=3, omega=2) + KnownRates(alpha=1, omega=1) + FiniteRank(1)": (
        [2.0, 4.0], [1.0, 3.0], [KNOWN, KNOWN, *SUM, COMPACT, *SUM]),
    "Identity ∘ ScalarMultiple(3) ∘ IsometryOntoCodim(2)": (
        [3.0, 3.0], [3.0, 3.0], [ID, MUL, *COMPOSE, ISO, *COMPOSE, "order:alpha>=omega"]),
    "scale(2, scale(-0.5, KnownRates(alpha=1..3, omega=0.5)) + CompactLinear)": (
        [1.0, 3.0], [0.5, 0.5], [KNOWN, "rule:scale", COMPACT, *SUM, "rule:scale"]),
    "KnownRates(omega=0.5)": ([0.5, "inf"], [0.5, 0.5], [KNOWN, "order:alpha>=omega"]),
    "KnownRates(alpha=0..2)": ([0.0, 2.0], [0.0, 2.0], [KNOWN, "order:omega<=alpha"]),
    "KnownRates(alpha=1..inf, omega=inf) + Identity o scale(inf, KnownRates(alpha=0.5))": (
        [0.0, "inf"], [0.0, "inf"], [KNOWN, ID, KNOWN, "rule:scale", *COMPOSE, *SUM]),
    "KnownRates(alpha=0..1, omega=0.5..3)": (
        [0.5, 1.0], [0.5, 1.0], [KNOWN, "order:omega<=alpha", "order:alpha>=omega"]),
}


@pytest.mark.parametrize("expr", MNC_CORPUS)
def test_mnc_corpus_output_is_pinned(capsys, expr):
    alpha, omega, derivation = MNC_CORPUS[expr]
    d = run_json(capsys, ["mnc", "--expr", expr])
    assert d == {"command": "mnc", "expr": expr, "alpha": alpha, "omega": omega, "derivation": derivation}


@pytest.mark.parametrize("expr", ["KnownRates(alpha=-0..2)", "KnownRates(alpha=-0, omega=-0)"])
def test_mnc_reads_negative_zero_as_zero(capsys, expr):
    # -0.0 == 0.0, so the test reads the text: both printed a rate of -0.0
    rc, out = run_cli(capsys, ["mnc", "--expr", expr])
    assert rc == 0 and "-0.0" not in out
    assert json.loads(out)["alpha"][0] == 0.0


def test_bifurcate_planar(capsys):
    d = run_json(
        capsys,
        [
            "bifurcate",
            "--fn",
            "norm_plus_i_im_pow",
            "--params",
            "2",
            "--grid=-1.5,1.5,-1.5,1.5,24,30",
            "--tol",
            "0.02",
        ],
    )
    assert d["n_candidates"] > 0
    for a, b in d["candidates"]:
        assert abs(math.hypot(a, b) - 1.0) < 0.05
    assert d["contained_in_sigma"] is True


def test_bifurcate_shift(capsys):
    d = run_json(
        capsys,
        [
            "bifurcate",
            "--shift",
            "--perturb",
            "normsq_e1",
            "--truncate",
            "40",
            "--angles",
            "6",
            "--extra-lambda",
            "1.2,0",
            "--tol",
            "0.02",
        ],
    )
    assert d["verdicts"][:-1] == ["candidate"] * 6
    assert d["verdicts"][-1] == "rejected"


def test_unperturbed_shift_scan_normalizes_to_the_unit_sphere_value(capsys):
    # without a perturbation the residual at radius r is r times the unit-sphere
    # minimum, so every radius reads that minimum itself
    from specpoint.structured import truncated_shift_min

    d = run_json(capsys, ["bifurcate", "--shift", "--truncate", "40",
                          "--extra-lambda", "0.3,0.1", "--extra-lambda", "1.2"])
    rows = d["normalized_residuals"]
    assert len(rows) == 18 and all(len(row) == 3 and len(set(row)) == 1 for row in rows)
    assert rows[-2:] == [[truncated_shift_min(lam, 40)] * 3 for lam in (0.3 + 0.1j, 1.2)]


def test_exit_codes(capsys):
    rc, _ = run_cli(capsys, ["spec1d", "--fn", "no_such_map", "--point", "0"])
    assert rc == 2
    rc, _ = run_cli(capsys, ["spec2d", "--fn", "norm_plus_i_im_pow", "--params", "2"])
    assert rc == 3  # not positively homogeneous
    rc, _ = run_cli(capsys, ["mnc", "--expr", "Bogus("])
    assert rc == 2
    rc, _ = run_cli(capsys, ["nonexistent-subcommand"])
    assert rc == 2


# the error-path argv of scripts/corpus.txt: usage errors exit 2,
# preconditions 3, numeric errors 4, each with nothing on stdout
@pytest.mark.parametrize("code, argv", [
    (2, 'spec1d --fn sqrt_abs --exact --numeric'),
    (2, 'spec1d --fn norm_times_x --params 1 --point 0.3 --exact'),
    (2, 'mnc --expr KnownRates(alpha=-1)'),
    (2, 'spec2d --fn nope'),
    (3, 'spec1d --fn sqrt_abs --steps 4097'),
    (3, 'classify --fn norm_plus_i_im --res 4097'),
    (3, 'shift --lambda 1e200,0'),
    (3, 'bifurcate --fn sqrt_abs --grid=-1,1,-1,1,3,3'),
    (4, 'classify --fn real_linear --params 1e200,0,0,1e200'),
    (4, 'bifurcate --fn norm_plus_i_im_pow --params 2 --grid=-1,1,-1,1,3,3 --radii=5e-324'),
], ids=lambda v: v if isinstance(v, str) else None)
def test_corpus_error_paths_exit_with_their_code(capsys, code, argv):
    assert run_cli(capsys, argv.split()) == (code, "")


def test_bifurcate_real_map_rejects_its_default_complex_grid(capsys):
    argv = ["bifurcate", "--fn", "norm_times_x", "--params", "3", "--grid=-1.5,1.5,-1.5,1.5,24,30"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "complex scalar acting on a map without complex structure" in captured.err


def test_bifurcate_real_map_defaults_to_a_real_grid(capsys):
    # a map without complex structure scans the 24 real lambdas of [-1.5, 1.5]
    d = run_json(capsys, ["bifurcate", "--fn", "norm_times_x", "--params", "3"])
    assert d["grid"] == [-1.5, 1.5, 0.0, 0.0, 24, 1]
    assert sum(d["verdicts_summary"].values()) == 24


@pytest.mark.parametrize("argv", [
    ["--fn", "norm_plus_i_im_pow", "--params", "2"],  # sigma_r traced at the smallest radius
    ["--fn", "abs_re_plus_i_im"],  # homogeneous: one curve for every radius
    ["--fn", "norm_times_x", "--params", "3", "--grid=-1.5,1.5,0,0,24,1"],  # A(r) = r I: exact, per radius
    ["--fn", "conj_pair"],  # linear: exact singular values
], ids=["norm_plus_i_im_pow2", "abs_re_plus_i_im", "norm_times_x3", "conj_pair"])
def test_bifurcate_fn_reads_only_the_smallest_radius(capsys, argv):
    # the verdicts and the containment check read the smallest radius alone
    many = run_json(capsys, ["bifurcate", *argv, "--radii", "0.1,0.01,0.001"])
    one = run_json(capsys, ["bifurcate", *argv, "--radii", "0.001"])
    assert (many.pop("radii"), one.pop("radii")) == ([0.1, 0.01, 0.001], [0.001])
    assert many == one


def test_exit_code_band_violations(capsys):
    # a grid point sits closer to the spectrum than the winding tolerance but
    # outside the (tiny) band: one undecided cell makes classify exit 5
    rc, out = run_cli(
        capsys,
        [
            "classify",
            "--fn",
            "abs_re_plus_i_im",
            "--xmin",
            "1.0000000005",
            "--xmax",
            "2",
            "--ymin",
            "0",
            "--ymax",
            "1",
            "--res",
            "3",
            "--band",
            "1e-12",
        ],
    )
    assert rc == 5
    d = json.loads(out)
    assert d["violations"] > 0


def test_exit_code_5_rule_for_bifurcate(capsys, monkeypatch):
    # bifurcate --fn exits 5 only when more than half of its verdicts are
    # undecided; bifurcate --shift never does
    from specpoint import planar, structured

    # residuals of the default tol 0.02: 0.03 is undecided, 1.0 rejected
    def scan_with(residuals):
        def scan(f, lams, radius, tol):
            return list(residuals), 0.0
        return scan

    argv = ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=-1,1,-1,1,2,2"]
    for n_undecided, code in ((0, 0), (2, 0), (3, 5), (4, 5)):
        residuals = [0.03] * n_undecided + [1.0] * (4 - n_undecided)
        monkeypatch.setattr(planar, "curve_distances", scan_with(residuals))
        rc, out = run_cli(capsys, argv)
        assert rc == code, n_undecided
        assert json.loads(out)["verdicts_summary"]["undecided"] == n_undecided

    def undecided_shift_scan(orbits, N, radii, normsq_e1):
        return [[0.03] * len(radii) for _, members in orbits for _ in members]

    monkeypatch.setattr(structured, "shift_bifurcation_scan", undecided_shift_scan)
    rc, out = run_cli(capsys, ["bifurcate", "--shift", "--angles", "4"])
    assert rc == 0 and json.loads(out)["verdicts"] == ["undecided"] * 4


SCIPY_PROBE = """
import contextlib, io, json, sys
from specpoint import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(argv) if argv else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_cli_import_skips_optimize_and_stats():
    # each scipy subpackage is imported only by the command that computes with it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def scipy_loaded(argv):
        out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argv)],
                             env=env, capture_output=True, text=True, check=True)
        rc, mods = json.loads(out.stdout)
        assert rc == 0, (argv, out.stderr)
        return set(mods)

    for argv in (
        [],
        ["spec1d", "--fn", "sqrt_abs", "--point", "0", "--exact"],
        ["spec2d", "--fn", "real_linear", "--params", "1,-2,2,1"],
        ["classify", "--fn", "norm_plus_i_im", "--res", "100"],
        ["mnc", "--expr", "IsometryOntoCodim(1) + CompactLinear"],
        # candidates, so the containment check against the curve runs too
        ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=-1.5,1.5,-1.5,1.5,24,30"],
        ["bifurcate", "--fn", "conj_pair", "--grid=-1.5,1.5,-1.5,1.5,8,8"],
        # the shift model's sphere minima are numpy only
        ["shift", "--truncate", "60", "--lambda", "2,0", "--xi-eps", "0.1"],
        ["bifurcate", "--shift"],
        ["bifurcate", "--shift", "--perturb", "normsq_e1", "--truncate", "40", "--extra-lambda", "1.2,0"],
    ):
        assert scipy_loaded(argv) == set(), argv


LIBRARY_NO_SCIPY_PROBE = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import from here on raises ImportError
import specpoint
for info in pkgutil.iter_modules(specpoint.__path__):
    importlib.import_module("specpoint." + info.name)
from specpoint.core import scan_verdicts
from specpoint.structured import SQRT2, shift_bifurcation_scan

print(scan_verdicts(shift_bifurcation_scan([(SQRT2, [SQRT2]), (1.2, [1.2])], N=12, normsq_e1=True), 0.02))
"""


def test_library_solvers_run_without_scipy():
    # every module imports, and the perturbed shift scan runs, with scipy blocked
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", LIBRARY_NO_SCIPY_PROBE],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "('candidate', 'rejected')\n", out.stdout


SPECPOINT_PROBE = """
import contextlib, io, json, sys
from specpoint import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(argv)
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] in ("specpoint", "dataclasses", "inspect"))]))
"""


def test_shift_figure_loads_no_planar_engine(tmp_path):
    # svgfig reaches homog2d only inside classify_svg, which is handed a PlaneSpectrum
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["shift", "--truncate", "8", "--out", str(tmp_path / "shift.json")]
    out = subprocess.run([sys.executable, "-c", SPECPOINT_PROBE, json.dumps(argv)],
                         env=env, capture_output=True, text=True, check=True)
    rc, mods = json.loads(out.stdout)
    assert rc == 0, out.stderr
    assert (tmp_path / "shift.svg").stat().st_size > 0
    assert "specpoint.svgfig" in mods and "specpoint.structured" in mods
    assert "specpoint.homog2d" not in mods and "specpoint.numerics" not in mods, mods


def probe_modules(argv, block_numpy=False):
    """The specpoint modules, dataclasses and inspect that one CLI call loads in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    script = ("import sys; sys.modules['numpy'] = None\n" if block_numpy else "") + SPECPOINT_PROBE
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rc, mods = json.loads(out.stdout)
    assert rc == 0, (argv, out.stderr)
    return set(mods)


def test_cli_import_loads_no_numpy():
    # nor dataclasses, which builds each class from compiled source, nor the inspect it imports
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, specpoint.cli; print([m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[False, False, False]\n"


def test_mnc_runs_without_numpy():
    # the rate calculus is pure Python: the README's mnc line runs with every numpy import
    # failing, and loads neither dataclasses nor inspect
    mods = probe_modules(["mnc", "--expr", "IsometryOntoCodim(1) + CompactLinear"], block_numpy=True)
    assert mods == {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.rates"}


def test_spec1d_runs_without_numpy():
    # the 1-D engine and its builtins are pure Python: both README spec1d lines
    # run with every numpy import failing, and load neither dataclasses nor inspect
    for argv in (["spec1d", "--fn", "sqrt_abs", "--point", "0", "--exact"],
                 ["spec1d", "--fn", "xsq_sin_inv", "--point", "0", "--numeric",
                  "--h0", "0.1", "--ratio", "0.6", "--steps", "60"]):
        mods = probe_modules(argv, block_numpy=True)
        assert mods == {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.dini"}, argv


def test_shift_model_runs_without_numpy(tmp_path):
    # the shift model's sphere minima are along e_1 and pure Python: the README's
    # shift and bifurcate --shift lines, the default scan and the shift figure run
    # with every numpy import failing, and load no other engine
    bare = {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.structured"}
    for argv in (["shift", "--truncate", "60", "--lambda", "2,0", "--xi-eps", "0.1"],
                 ["bifurcate", "--shift", "--perturb", "normsq_e1", "--truncate", "40", "--extra-lambda", "1.2,0"],
                 ["bifurcate", "--shift"]):
        assert probe_modules(argv, block_numpy=True) == bare, argv
    mods = probe_modules(["shift", "--truncate", "8", "--out", str(tmp_path / "shift.json")], block_numpy=True)
    assert mods == bare | {"specpoint.svgfig"}
    assert (tmp_path / "shift.svg").stat().st_size > 0


def test_shift_circle_is_linspace_bit_for_bit(capsys):
    # the --angles circle is built from i * (2 pi / n) without numpy
    for n in [*range(0, 40), 64, 255, 1000, 4095, 4096]:
        d = run_json(capsys, ["bifurcate", "--shift", "--truncate", "4", "--angles", str(n)])
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        circle = [[v.real, v.imag] for v in (SQRT2 * complex(math.cos(t), math.sin(t)) for t in thetas)]
        assert d["lambdas"] == circle, n


def test_spec1d_runs_on_every_one_dimensional_map_of_maps(capsys):
    # a 1-D map built by maps takes the bare floats of the 1-D engine: each runs to
    # exit 0, or to exit 2 with a message (no exact quadruple), never to a traceback
    from specpoint.maps import BUILTIN_NAMES, builtin

    argvs = [["--fn", name] for name in BUILTIN_NAMES if builtin(name).dim == 1]
    argvs.append(["--fn", "norm_times_x", "--params", "1"])
    for fn_args in argvs:
        for mode in ([], ["--exact"], ["--numeric"]):
            rc = cli.main(["spec1d", *fn_args, "--point", "0.3", *mode])
            err = capsys.readouterr().err
            assert rc in (0, 2), (fn_args, mode, rc, err)
            assert rc == 0 or err.startswith("error: "), (fn_args, mode, err)
    d = run_json(capsys, ["spec1d", "--fn", "norm_times_x", "--params", "1", "--point", "0.3"])
    assert d["mode"] == "numeric" and abs(d["sigma"]["intervals"][0][0] - 0.6) < 1e-2  # d/dx x|x| = 2|x|


def test_planar_command_loads_no_dini():
    # cli and maps import dini only to build a 1-D builtin; spec2d loads neither
    # numpy nor maps, numerics and homog2d, and classify's circle kernel lives in
    # homog2d
    mods = probe_modules(["spec2d", "--fn", "real_linear", "--params", "1,-2,2,1"], block_numpy=True)
    assert mods == {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.planar"}, mods
    mods = probe_modules(["classify", "--fn", "norm_plus_i_im", "--res", "20"])
    assert "specpoint.maps" in mods and "specpoint.homog2d" in mods, mods
    assert not mods & {"specpoint.dini", "specpoint.estimators"}, mods


@pytest.mark.parametrize("argv", [
    ["bifurcate", "--fn", "conj_pair"],
    ["bifurcate", "--fn", "norm_times_x", "--params", "3"],
    ["bifurcate", "--fn", "norm_times_x", "--params", "16"],
    # the scans of the CI memory step
    ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=-1.5,1.5,-1.5,1.5,128,128"],
    ["bifurcate", "--fn", "conj_pair", "--grid=-1.5,1.5,-1.5,1.5,128,128"],
    ["bifurcate", "--fn", "norm_times_x", "--params", "16", "--grid=-1.5,1.5,0,0,128,1"],
], ids=lambda argv: " ".join(argv[2:]))
def test_bifurcate_fn_scans_exit_0(capsys, argv):
    assert run_cli(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "name, params",
    [("conj_pair", {})] + [("norm_times_x", {"dim": dim}) for dim in range(3, MAX_DIM + 1)],
    ids=["conj_pair"] + [f"norm_times_x{dim}" for dim in range(3, MAX_DIM + 1)],
)
def test_builtins_from_dimension_3_declare_their_sphere_minimum(name, params):
    # the curve route stops at the plane, so a scan from dimension 3 needs the map's sphere
    # minimum; it is the map's own: f(r u) = r A(r) u, A(r) its Jacobian at 0 (conj_pair) or
    # r I (norm_times_x), and the minimum over unit u of |lam u - A(r) u| is the least
    # singular value of lam I - A(r), the real lam of norm_times_x acting as lam I
    from specpoint.maps import builtin, evaluate

    f = builtin(name, **params)
    assert f.dim >= 3 and f.sphere_min is not None
    rng = np.random.default_rng(f.dim)
    u = rng.normal(size=(6, f.dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    for r in (1e-3, 0.1, 2.0):
        A = f.jacobian(np.zeros(f.dim)) if name == "conj_pair" else r * np.eye(f.dim)
        assert np.allclose(evaluate(f, r * u), r * u @ A.T, rtol=1e-15, atol=0)
        for lam in rng.normal(size=4):
            least = np.linalg.svd(lam * np.eye(f.dim) - A, compute_uv=False)[-1]
            assert abs(f.sphere_min(complex(lam), r) - least) <= 1e-14 * max(1.0, least)


def test_only_conj_pair_and_norm_times_x_reach_dimension_3():
    from specpoint.maps import builtin

    others = [builtin(name) for name in BUILTIN_NAMES if name not in ("conj_pair", "norm_times_x")]
    assert all(f.dim <= 2 for f in others)


@pytest.mark.parametrize("argv", [
    ["conj_pair", "--grid=-1.5,1.5,-1.5,1.5,8,8"],
    ["real_linear", "--params", "1,0,0,-1", "--grid=0.9,1.1,0.2,0.4,3,3", "--radii", "1e-6", "--tol", "1e-6"],
    ["norm_times_x", "--params", "16", "--grid=-1.5,1.5,0,0,128,1"],
    ["norm_times_x", "--params", "1"],
    ["norm_plus_i_im_pow", "--params", "2", "--grid=-1.5,1.5,-1.5,1.5,24,30", "--tol", "0.02"],
    ["half_abs_re_plus_i_im", "--grid=-1.5,2,-1.5,1.5,128,128", "--tol", "1e300"],
    ["norm_plus_i_im", "--radii", "0.5", "--tol", "0.1"],
], ids=lambda argv: " ".join(argv))
def test_bifurcate_fn_runs_without_numpy_on_every_route(argv):
    # a map that declares its sphere minimum reads it on floats, and a planar builtin
    # without one is scanned on its curve, traced on floats: with every numpy import
    # failing, each loads planar alone of the engines, and neither dataclasses nor inspect
    mods = probe_modules(["bifurcate", "--fn", *argv], block_numpy=True)
    assert mods == {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.planar"}


ONE_D_SETS = {  # the distance to Sigma at 0 of each 1-D builtin: Sigma is every real, {0}, and empty twice
    "sqrt_abs_sin_inv": lambda lam: 0.0,
    "xsq_sin_inv": abs,
    "sqrt_abs": lambda lam: math.inf,
    "signed_sqrt_abs": lambda lam: math.inf,
}


@pytest.mark.parametrize("name", sorted(ONE_D_SETS))
def test_bifurcate_fn_reads_the_exact_one_dimensional_sets(capsys, name):
    # on grids through 0 and +-1, and near 0 within tol and 2 tol: a candidate within tol of
    # Sigma, undecided within 2 tol, and rejected beyond, whatever --radii reads
    for grid, tol in (("-1,1,0,0,9,1", 0.02), ("-1.5,1.5,0,0,24,1", 0.02), ("-0.035,0.035,0,0,8,1", 0.02),
                      ("-1,1,0,0,3,1", 1e-300)):
        x0, x1, _, _, nx, _ = map(float, grid.split(","))
        lams = np.linspace(x0, x1, int(nx)).tolist()
        dist = [ONE_D_SETS[name](lam) for lam in lams]
        want = [[lam, 0.0] for lam, d in zip(lams, dist) if d < tol]
        undecided = sum(tol <= d < 2.0 * tol for d in dist)
        for radii in ("0.1,0.01,0.001", "1e-300"):
            d = run_json(capsys, ["bifurcate", "--fn", name, f"--grid={grid}", "--tol", repr(tol), "--radii", radii])
            assert d["candidates"] == want and d["contained_in_sigma"] is None, (grid, tol, radii)
            assert d["verdicts_summary"] == {"candidate": len(want), "undecided": undecided,
                                             "rejected": len(lams) - len(want) - undecided}, (grid, tol)
    if name == "xsq_sin_inv":
        assert len(want) == 1 and undecided == 0  # only lambda = 0 at tol 1e-300


def test_one_dimensional_candidates_lie_in_the_spec1d_sigma(capsys):
    # the inclusion across engines: every candidate at distance 0 from Sigma lies in
    # the sigma that spec1d prints at 0
    for name in sorted(ONE_D_SETS):
        sigma = run_json(capsys, ["spec1d", "--fn", name, "--point", "0"])["sigma"]["intervals"]
        bounds = [tuple(float(v) for v in pair) for pair in sigma]  # an infinite end reads "inf" or "-inf"
        d = run_json(capsys, ["bifurcate", "--fn", name, "--grid=-1.5,1.5,0,0,25,1", "--tol", "1e-300"])
        for re, _ in d["candidates"]:
            assert any(lo <= re <= hi for lo, hi in bounds), (name, re, sigma)
        assert d["n_candidates"] == {"sqrt_abs_sin_inv": 25, "xsq_sin_inv": 1}.get(name, 0)


@pytest.mark.parametrize("name", sorted(ONE_D_SETS))
def test_bifurcate_fn_runs_without_numpy_on_one_dimensional_builtins(name):
    # the scan of a 1-D builtin reads dini's Sigma: it loads no numpy, nor dataclasses and inspect
    mods = probe_modules(["bifurcate", "--fn", name], block_numpy=True)
    assert mods == {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.dini"}


def test_grid_is_linspace_bit_for_bit():
    # cli._linspace spans --grid without numpy: the bits of np.linspace, -0.0 and overflow included
    rng = np.random.default_rng(42)
    ends = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 1.0), (-1.5, 1.5), (5e-324, 1e-323),
            (0.0, 5e-324), (1e-310, -1e-310), (-1e308, 1e308 * 0.79), (1.7e308, -1.7e308 * 0.05), (3.0, -2.0)]
    for _ in range(2000):
        mag = 10.0 ** rng.uniform(-300, 300)
        ends.append(tuple(float(v) for v in rng.uniform(-mag, mag, 2)))
    for a, b in ends:
        for n in (1, 2, 3, 7, 24, 30, 97, 128):
            with np.errstate(over="ignore"):
                want = np.linspace(a, b, n)
            got = cli._linspace(a, b, n)
            assert got == want.tolist() and [math.copysign(1.0, v) for v in got] == np.copysign(1.0, want).tolist(), \
                (a, b, n)


def test_spec2d_runs_without_numpy(tmp_path):
    # the planar builtins, the curve tracer and the circle extremum are pure Python:
    # the README's spec2d line and spec2d on every planar homogeneous builtin, with
    # and without --out, run with every numpy import failing
    from specpoint import planar

    bare = {"specpoint", "specpoint.cli", "specpoint.core", "specpoint.planar"}
    argvs = [["--fn", "real_linear", "--params", "1,-2,2,1", "--out", str(tmp_path / "out" / "linear.json")]]
    for name in planar.BUILTINS:
        fn = ["--fn", name] + (["--params", "0.5,-1,0.8,1.2"] if name == "real_linear" else [])
        if planar.builtin(name).homogeneous:
            argvs += [fn, fn + ["--out", str(tmp_path / f"{name}.json")]]
    assert len(argvs) == 13
    for argv in argvs:
        assert probe_modules(["spec2d", *argv], block_numpy=True) == bare, argv
        if "--out" in argv:
            out = Path(argv[-1])
            assert json.loads(out.read_text())["command"] == "spec2d"
            assert out.with_suffix(".csv").read_text().startswith("theta,re,im\n"), argv


def test_overflowing_maps_exit_cleanly():
    # |f|^2 overflows on the circle: spec2d printed numpy's overflow warning and exited 4
    # on its JSON, and bifurcate printed it too and rejected every lambda on infinite
    # residuals; the scan of a linear map is exact now
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    params = "--params=1e308,1e308,0,1"
    for argv, code in (
        (["spec2d", "--fn", "real_linear", params], 4),
        (["bifurcate", "--fn", "real_linear", params, "--grid=-1,1,-1,1,2,2"], 0),
    ):
        out = subprocess.run([sys.executable, "-m", "specpoint.cli", *argv], env=env, capture_output=True, text=True)
        assert out.returncode == code, (argv, out.stderr)
        if code:
            assert out.stderr == "numeric error: |f| of real_linear(1e+308,1e+308,0.0,1.0) is not finite on the circle\n"
            assert out.stdout == ""
        else:
            assert out.stderr == ""
            assert json.loads(out.stdout)["verdicts_summary"] == {"candidate": 0, "rejected": 4, "undecided": 0}


def test_shift_scan_loads_no_planar_or_sampling_engine():
    mods = probe_modules(["bifurcate", "--shift", "--perturb", "normsq_e1", "--truncate", "40",
                          "--extra-lambda", "1.2,0"])
    assert "specpoint.structured" in mods
    engines = {"specpoint.maps", "specpoint.homog2d", "specpoint.estimators", "specpoint.dini", "specpoint.svgfig",
               "specpoint.numerics"}
    assert not mods & engines, mods


def test_classify_band_cap_exits_before_allocating(capsys):
    # --band 1 at --res 4096 is about 1000 grid spacings, over the cap of 64;
    # one 4096 x 4096 float grid alone would take 134 MB
    tracemalloc.start()
    try:
        rc = cli.main(["classify", "--fn", "norm_plus_i_im", "--res", "4096", "--band", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "reach 1 exceeds 64 grid spacings" in capsys.readouterr().err
    assert peak < 32e6, peak


def test_exit_code_numeric_failure_mapping(capsys, monkeypatch):
    from specpoint import structured
    from specpoint.core import NumericError

    def boom(*a, **k):
        raise NumericError("stagnated")

    monkeypatch.setattr(structured, "truncated_shift_min", boom)
    rc, _ = run_cli(capsys, ["shift", "--truncate", "8"])
    assert rc == 4


def test_config_file_defaults_and_override(capsys, tmp_path):
    # one file per command: a key that the command does not read exits 2
    cfg2d = tmp_path / "spec2d.txt"
    cfg2d.write_text("samples = 512\n# comment\n")
    d = run_json(
        capsys,
        ["spec2d", "--fn", "abs_re_plus_i_im", "--config", str(cfg2d)],
    )
    assert d["curve"]["samples"] >= 512
    # explicit flag wins over the config value
    cfg1d = tmp_path / "spec1d.txt"
    cfg1d.write_text("point = 0.5\n")
    d2 = run_json(
        capsys,
        ["spec1d", "--fn", "sqrt_abs", "--exact", "--config", str(cfg1d), "--point", "0"],
    )
    assert d2["point"] == 0.0


@pytest.mark.parametrize("argv, line, key", [
    (["classify", "--fn", "abs_re_plus_i_im"], "rez = 100", "rez"),
    (["spec2d", "--fn", "norm_plus_i_im"], "seed = 3", "seed"),
    (["shift", "--truncate", "8"], "lambda = 2,0", "lambda"),
])
def test_config_key_the_command_does_not_read_exits_2(capsys, tmp_path, argv, line, key):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"# a misspelt or foreign key\n{line}\n")
    rc = cli.main(argv + ["--config", str(cfg)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert f"config key {key!r} is not read by {argv[0]}" in err, err


def test_seeded_bifurcate_deterministic(capsys, tmp_path):
    args = [
        "bifurcate",
        "--fn",
        "norm_plus_i_im_pow",
        "--params",
        "2",
        "--grid=-1.2,1.2,-1.2,1.2,9,9",
    ]
    a = tmp_path / "s1.json"
    b = tmp_path / "s2.json"
    assert run_cli(capsys, args + ["--out", str(a)])[0] == 0
    assert run_cli(capsys, args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


# real_linear(1, 0, 0, -1) is z -> conj z, whose sigma is the unit circle; lambda = e^{i phi}
# at phi = 0.3 + pi / 2048 lies on it, and the containment check that traced sigma_r again
# to chords of 1e-3 read contained_in_sigma false there
CIRCLE_SCAN = ("real_linear --params 1,0,0,-1 --grid=0.9548820429844204,0.9548820429844204,"
               "0.29698532621309687,0.29698532621309687,1,1 --radii 1e-6 --tol 1e-6")


# the full stdout of bifurcate --fn calls, by SHA-256: the README line, the other
# --fn call of the paper-mix workload, each planar builtin on its default grid, the
# exact scans, an exact candidate on sigma, a 1-D builtin whose Sigma at 0 is empty and
# one whose Sigma is every real, a wide linear scan and a fine grid whose undecided count once moved with the
# sphere directions, and whose two lambdas at a corner of sigma read undecided since
# the scan reads the curve
BIFURCATE_FN_CORPUS = {
    "--fn norm_plus_i_im_pow --params 2 --grid=-1.5,1.5,-1.5,1.5,24,30 --tol 0.02":
        "2bd5e47c2c32f86ce54ef314676c77fb7634911b37d0a21a742bc3992510aa5e",
    "--fn conj_pair --grid=-1.5,1.5,-1.5,1.5,8,8": "ac758c097b417dd9d97d798bf88d128616145b6fb2013827feb0e5c36a830f0a",
    "--fn abs_re_plus_i_im": "354c253c3d1808e6edaecf69bd2efc5ce6dcbb5d51498315b2e6f8a2e63dca14",
    "--fn half_abs_re_plus_i_im": "e76bbfa3aed16fdb74698f122b656d79a1f20fc1a8403e3d809cc8d9d1fe9169",
    "--fn norm_plus_i_im": "907dfe1c7ff20dea38b7d45a3f54f80506caf05bfb1fec021f88688f0fb294a3",
    "--fn norm_plus_i_im_pow": "2bd5e47c2c32f86ce54ef314676c77fb7634911b37d0a21a742bc3992510aa5e",
    "--fn norm_only": "607e74725b6c0d5bf53361ec155c293a1df13c705645f646694c11202f8bfd59",
    "--fn real_linear --params 1,-2,2,1": "3b2c8b8eab233703aeb6b190a75451ce59268d1d520110978a635d3b234d1e50",
    "--fn conj_pair": "8780bcf72578e6ad438c0f790e74b5cc06a6592d90b5963ef8bbfc19ed587852",
    "--fn norm_times_x --params 3": "3f47ff329ec0d7f9f82ed89acb9b57ea43be7e1127de7ee5f8163970a714b9ce",
    "--fn sqrt_abs": "da59f31e35bf4d3e89048ea72bd468c441cd509cbd0d1cd0775ef016047bc9a1",
    "--fn sqrt_abs_sin_inv": "1ba86e455520f5974e825ad8fec4ea4a6e3870488587cab3e5ced20655a75551",
    "--fn " + CIRCLE_SCAN: "10c2fffc310dfefbe424de23dffd191e4a05447ad807cf21111a978284d93337",
    "--fn real_linear --params 1e4,0,0,-1e4 --grid=-2e4,2e4,-2e4,2e4,64,64 --tol 500":
        "6cf50223a96c93b13222c1dba26e4ae67201733aed5822de9b03d78eba56a310",
    "--fn half_abs_re_plus_i_im --grid=-1.5,2,-1.5,1.5,128,128 --tol 0.005":
        "ad24073613e94ba4d0b2b0316bb7b97179b31c6b5e8cff83bce058ff82bc2cb4",
}


def test_bifurcate_fn_corpus_output_is_pinned(capsys):
    got = {}
    for args, digest in BIFURCATE_FN_CORPUS.items():
        rc, out = run_cli(capsys, ["bifurcate", *args.split()])
        got[args] = (rc, hashlib.sha256(out.encode()).hexdigest())
    assert got == {args: (0, digest) for args, digest in BIFURCATE_FN_CORPUS.items()}


def test_classify_rejects_huge_res_before_allocating(capsys):
    # 1e9 cells a side would need exabytes; the guard must fire first
    rc, _ = run_cli(capsys, ["classify", "--fn", "abs_re_plus_i_im", "--res", "1000000000"])
    assert rc == 3


def test_grid_csv_matches_csv_writer():
    import csv

    from specpoint.homog2d import classify_plane
    from specpoint.maps import builtin

    ps = classify_plane(builtin("half_abs_re_plus_i_im"), bounds=(-1 / 3, 1.1, -2e-7, 0.7), resolution=12)
    assert set(np.unique(ps.labels)) == {0, 1, 2}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re", "im", "label"])
    names = {0: "in_spectrum", 1: "regular", 2: "band"}
    for j, y in enumerate(ps.ys):
        for i, x in enumerate(ps.xs):
            writer.writerow([repr(float(x)), repr(float(y)), names[int(ps.labels[j, i])]])
    out = io.StringIO()
    cli._grid_csv(ps, out)
    assert out.getvalue() == buf.getvalue()


def test_grid_csv_streams_at_the_largest_grid():
    # the former writer held the whole text (about 800 MB here) and a list of
    # its 16.7M lines before writing a byte
    from specpoint.homog2d import PlaneSpectrum, SigmaCurve

    n = 4096
    labels = np.full((n, n), 1, dtype=np.int8)
    j = np.arange(n)[:, None]
    labels[(np.arange(n) > j // 2) & (np.arange(n) < n - j // 3)] = 0
    labels[np.abs(np.arange(n) - j) < 3] = 2
    curve = SigmaCurve(np.zeros(1), np.zeros(1, dtype=complex), 1e-3, True)
    xs = ys = np.linspace(-2.0, 2.0, n)
    ps = PlaneSpectrum(curve=curve, xs=xs, ys=ys, labels=labels, band_radius=0.01)
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            cli._grid_csv(ps, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 32e6, peak


def _csv_writer_curve_csv(curve):
    """Reference: the former curve CSV writer, csv.writer over the samples."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "re", "im"])
    for t, v in zip(curve.thetas, curve.values):
        writer.writerow([repr(float(t)), repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


def test_curve_csv_matches_csv_writer():
    # spec2d writes the lists of the bare tracer
    from specpoint import planar

    def written(curve):
        out = io.StringIO()
        cli._curve_csv(curve, out)
        return out.getvalue()

    # 4096 samples and more: blocks of CURVE_CSV_ROWS lines
    for f in (planar.builtin("real_linear", s=1.0, t=-2.0, u=2.0, v=1.0), planar.builtin("norm_plus_i_im")):
        curve = planar.trace_curve(planar.curve_at(f), samples=4096)
        assert written(curve) == _csv_writer_curve_csv(curve)
    odd = SimpleNamespace(
        thetas=[0.0, 1e-300, 0.5, 3.0],
        values=[complex(-0.0, 0.0), complex(5e-324, -1e300), complex(0.1, -2.5e-17), complex(1 / 3, 7.0)],
    )
    assert written(odd) == _csv_writer_curve_csv(odd)


def test_planar_commands_trace_sigma_once(capsys, monkeypatch, tmp_path):
    # each side of the numpy boundary has its own tracer: spec2d traces once in
    # lists through planar.trace_curve, classify once in arrays through
    # homog2d.sigma_curve, and neither calls the other's loop
    from specpoint import homog2d, planar

    calls = []

    def counted(module, name):
        loop = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return loop(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(planar, "trace_curve")
    counted(homog2d, "sigma_curve")
    d = run_json(capsys, ["spec2d", "--fn", "norm_plus_i_im", "--samples", "512"])
    assert calls == ["trace_curve"]
    assert d["radius_bound"] == d["q"]
    calls.clear()
    rc, _ = run_cli(capsys, ["classify", "--fn", "norm_plus_i_im", "--res", "40",
                             "--out", str(tmp_path / "c.json")])
    assert rc == 0 and calls == ["sigma_curve"]
    assert json.loads((tmp_path / "c.json").read_text())["radius_bound"] == d["q"]


def test_planar_commands_evaluate_the_map_in_one_trace(capsys, monkeypatch):
    # spec2d and classify evaluate the map inside their one trace only, plus once on
    # floats at each of the two extremal samples, and a declared matrix gives d and
    # q with no evaluation; classify's radius bound is spec2d's q bit for bit, and
    # neither --samples nor --res moves it
    from specpoint import homog2d, planar
    from specpoint.core import replace

    points = {float: 0, np.ndarray: 0}
    traced = []
    builtin, sigma_curve = planar.builtin, homog2d.sigma_curve

    def counted(name, **params):
        f = builtin(name, **params)

        def formula(x, y, hypot, _formula=f.evaluator):
            points[type(x)] += np.size(x)
            return _formula(x, y, hypot)

        return replace(f, evaluator=formula)

    def traced_curve(*args, **kwargs):
        curve = sigma_curve(*args, **kwargs)
        traced.append(curve.values.size)
        return curve

    monkeypatch.setattr(planar, "builtin", counted)
    monkeypatch.setattr(homog2d, "sigma_curve", traced_curve)
    rng = np.random.default_rng(30)
    linear = [",".join(map(repr, rng.uniform(-3.0, 3.0, 4).tolist())) for _ in range(3)]
    maps = [(name, []) for name in planar.BUILTINS if name != "real_linear" and builtin(name).homogeneous]
    maps += [("real_linear", [f"--params={p}"]) for p in ["1,-2,2,1", *linear]]
    assert len(maps) == 9
    for name, params in maps:
        extrema = 0 if name == "real_linear" else 2
        qs = set()
        for samples in ("1", "64", "1000"):
            points.update({float: 0, np.ndarray: 0})
            d = run_json(capsys, ["spec2d", "--fn", name, *params, "--samples", samples])
            assert points == {float: d["curve"]["samples"] + extrema, np.ndarray: 0}, (name, samples)
            qs.add(d["q"])
        for res in ("20", "200"):
            points.update({float: 0, np.ndarray: 0})
            traced.clear()
            d = run_json(capsys, ["classify", "--fn", name, *params, "--res", res])
            assert len(traced) == 1 and points == {float: extrema, np.ndarray: traced[0]}, (name, res)
            qs.add(d["radius_bound"])
        assert len(qs) == 1, (name, qs)


@pytest.mark.parametrize("scale", ["1e-200", "1e-160"])
def test_tiny_linear_maps_keep_their_growth_rates(capsys, scale):
    # the squares of |f| underflowed below 1.5e-154: spec2d and classify read d = q = 0
    # at 1e-200, and relative errors of 5.6e-6 and 2.4e-4 at 1e-160
    params = f"--params={scale},0,0,{scale}"
    d = run_json(capsys, ["spec2d", "--fn", "real_linear", params, "--samples", "16"])
    assert d["d"] == d["q"] == d["radius_bound"] == float(scale)
    assert run_json(capsys, ["classify", "--fn", "real_linear", params, "--res", "20"])["radius_bound"] == float(scale)


def test_size_and_count_guards_exit_cleanly(capsys):
    # each value would allocate gigabytes or crash inside numpy if it got through
    cases = {
        3: [
            ["spec2d", "--fn", "norm_plus_i_im", "--samples", "1000000000"],
            ["shift", "--truncate", "1000000000"],
            ["bifurcate", "--shift", "--truncate", "1000000000"],
            ["bifurcate", "--shift", "--angles", "1000000000"],
            ["bifurcate", "--shift", "--angles=-1"],
            ["bifurcate", "--shift", "--radii=0.1,-0.01"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,1000000000,2"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,-3,5"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,0,5"],
            # norm_times_x above maps.MAX_DIM = 16: 1e20 ended in numpy's "maximum
            # allowed dimension exceeded" (exit 1), 10000 asked numpy for 53.6 GiB
            *([cmd, "--fn", "norm_times_x", "--params", dim]
              for cmd in ("spec1d", "spec2d", "classify", "bifurcate") for dim in ("17", "1e20")),
        ],
        2: [
            ["bifurcate", "--shift", "--truncate", "8", "--radii="],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,2.5,5"],
        ],
    }
    for code, argvs in cases.items():
        for argv in argvs:
            assert run_cli(capsys, argv)[0] == code, argv


def test_non_finite_output_exits_4_and_writes_nothing(capsys, monkeypatch, tmp_path):
    # the JSON is strict: NaN and Infinity are no JSON numbers
    from specpoint import structured

    monkeypatch.setattr(structured, "truncated_shift_min", lambda lam, n: math.nan)
    assert run_cli(capsys, ["shift", "--truncate", "8"]) == (4, "")
    out = tmp_path / "shift.json"
    assert run_cli(capsys, ["shift", "--truncate", "8", "--out", str(out)]) == (4, "")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounded_inputs_exit_cleanly(capsys, monkeypatch):
    # the README bounds these inputs; before, each ran to exit 0 on a value it had replaced
    from specpoint import homog2d

    cases = {
        3: [
            ["spec2d", "--fn", "norm_plus_i_im", "--samples=-5"],
            ["spec2d", "--fn", "norm_plus_i_im", "--samples", "0"],
            ["classify", "--fn", "norm_plus_i_im", "--res", "20", "--band=-1"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,2,2", "--tol=-1"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,2,2", "--tol", "0"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--grid=-1,1,-1,1,2,2", "--tol", "nan"],
            ["bifurcate", "--shift", "--truncate", "8", "--tol", "inf"],
            # non-finite numbers went into the computation and out as bare NaN / Infinity
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=nan,1,0,0,3,1"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=-1,1,-1,inf,3,3"],
            ["bifurcate", "--fn", "conj_pair", "--grid=-1,1,-1,nan,2,2"],
            ["shift", "--lambda", "nan,0"],
            ["shift", "--lambda", "inf,0"],
            ["bifurcate", "--shift", "--extra-lambda", "nan,0"],
            ["bifurcate", "--shift", "--extra-lambda", "inf,0"],
            ["spec1d", "--fn", "sqrt_abs", "--point", "inf"],
            ["spec1d", "--fn", "sqrt_abs", "--point", "nan"],
            # a grid point beyond the floats exited 2 as "non-finite input to sqrt_abs"
            ["spec1d", "--fn", "sqrt_abs", "--numeric", "--point", "1.79e308", "--h0", "1e308",
             "--ratio", "0.5", "--steps", "8"],
            # |lambda|^2 overflowed in the sphere solve, an OverflowError traceback
            ["shift", "--truncate", "8", "--lambda", "1.4e154,0"],
            ["bifurcate", "--shift", "--truncate", "4", "--extra-lambda", "1e200,0"],
            # linspace over an infinite span gave NaN lambdas, RuntimeWarnings and exit 0
            ["bifurcate", "--fn", "conj_pair", "--grid=-1e308,1.7e308,-1,1,2,2"],
            # unused without --lambda, exit 0; numeric failure (exit 4) with it
            ["shift", "--xi-eps", "nan"],
            ["shift", "--xi-eps", "inf", "--lambda", "2,0"],
            # a numeric failure of the map, exit 4
            ["spec2d", "--fn", "real_linear", "--params", "nan,0,0,1"],
            # linspace over an infinite span printed RuntimeWarnings before the exit
            ["classify", "--fn", "norm_plus_i_im", "--xmin=-1e308", "--xmax=1.7e308", "--res", "10"],
        ],
        2: [
            ["bifurcate", "--fn", "norm_times_x", "--params", "1.5", "--grid=-1,1,0,0,2,1"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2.5", "--grid=-1,1,-1,1,2,2"],
            ["bifurcate", "--fn", "norm_times_x", "--params", "3,7", "--grid=-1,1,0,0,2,1"],
            ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2,5", "--grid=-1,1,-1,1,2,2"],
            # an empty field was dropped, and the rest ran to exit 0
            ["spec2d", "--fn", "real_linear", "--params", "1,,-2,2,1"],
            ["bifurcate", "--fn", "conj_pair", "--grid=-1,,1,-1,1,2,2"],
            ["bifurcate", "--shift", "--truncate", "8", "--radii", "0.1,,0.01"],
        ],
    }
    for code, argvs in cases.items():
        for argv in argvs:
            rc, out = run_cli(capsys, argv)
            assert (rc, out) == (code, ""), argv

    def no_curve(*args, **kwargs):
        raise AssertionError("classify traced the curve before checking --band")

    monkeypatch.setattr(homog2d, "sigma_curve", no_curve)
    assert run_cli(capsys, ["classify", "--fn", "norm_plus_i_im", "--res", "20", "--band=-1"])[0] == 3


def test_empty_params_are_no_params(capsys):
    plain = run_cli(capsys, ["spec2d", "--fn", "norm_plus_i_im", "--samples", "64"])
    assert plain[0] == 0
    assert run_cli(capsys, ["spec2d", "--fn", "norm_plus_i_im", "--samples", "64", "--params="]) == plain


@pytest.mark.parametrize("route", ["argv", "config"])
@pytest.mark.parametrize("argv", [
    ["spec1d", "--fn", "sqrt_abs", "--exact"],
    ["spec2d", "--fn", "norm_plus_i_im", "--samples", "64"],
    ["classify", "--fn", "abs_re_plus_i_im", "--res", "20"],
    ["shift", "--truncate", "8"],
    ["mnc", "--expr", "Identity"],
    ["bifurcate", "--fn", "conj_pair", "--grid=-1,1,-1,1,2,2"],
    ["bifurcate", "--shift", "--truncate", "8", "--angles", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_seed_exits_2_on_every_command(capsys, tmp_path, argv, route):
    # no sampled result depends on anything but the map, the grid, the radii and tol
    if route == "argv":
        argv = argv + ["--seed", "0"]
    else:
        cfg = tmp_path / "conf.txt"
        cfg.write_text("seed = 0\n")
        argv = argv + ["--config", str(cfg)]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "seed" in err, err


# each mode of bifurcate read the other's flags and ignored them with exit 0
FOREIGN_FLAGS = [
    ("--shift", "--fn conj_pair --grid=1,2,3", "--fn"),
    ("--shift", "--grid=-1,1,-1,1,2,2", "--grid"),
    ("--shift", "--params 2", "--params"),
    ("--fn conj_pair", "--truncate 5 --angles 3 --perturb bogus", "--perturb"),
    ("--fn conj_pair", "--truncate 5", "--truncate"),
    ("--fn conj_pair", "--angles 3", "--angles"),
    ("--fn conj_pair", "--extra-lambda 1.2,0", "--extra-lambda"),
]


@pytest.mark.parametrize("mode, foreign, flag, route", [
    (*case, route) for case in FOREIGN_FLAGS for route in ("argv", "config")
    if route == "argv" or case[2] != "--extra-lambda"  # a lambda is no config key
])
def test_bifurcate_rejects_the_other_modes_flags(capsys, tmp_path, mode, foreign, flag, route):
    argv = ["bifurcate", *mode.split(), "--grid=-1,1,-1,1,2,2" if mode != "--shift" else "--angles=2"]
    if route == "argv":
        argv += foreign.split()
        named = flag
    else:
        pairs = foreign.replace("--", "").replace("=", " ").split()
        cfg = tmp_path / "conf.txt"
        cfg.write_text("".join(f"{k.replace('-', '_')} = {v}\n" for k, v in zip(pairs[::2], pairs[1::2])))
        argv += ["--config", str(cfg)]
        named = f"config key {flag[2:].replace('-', '_')!r}"
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{named} is read by bifurcate --{'fn' if mode == '--shift' else 'shift'} only" in err, err


# a small valid call per command, and per bifurcate mode; the walk appends one --flag=value
WALK_BASE = {
    ("spec1d", None): ["spec1d", "--fn", "sqrt_abs", "--numeric", "--steps", "8"],
    ("spec2d", None): ["spec2d", "--fn", "norm_plus_i_im", "--samples", "16"],
    ("classify", None): ["classify", "--fn", "norm_plus_i_im", "--res", "8"],
    ("shift", None): ["shift", "--truncate", "8", "--lambda", "2,0"],
    ("mnc", None): ["mnc", "--expr", "Identity"],
    ("bifurcate", "fn"): ["bifurcate", "--fn", "conj_pair", "--grid=-1,1,-1,1,2,2"],
    ("bifurcate", "shift"): ["bifurcate", "--shift", "--truncate", "8", "--angles", "2"],
}


MAX = "1.7976931348623157e308"
# each ended in a traceback with exit 1, or printed a numpy RuntimeWarning before its exit 3
PINNED = [
    (["bifurcate", "--shift", "--perturb", "normsq_e1", "--radii", "1e-300"], 4),  # ZeroDivisionError
    (["spec1d", "--fn", "sqrt_abs_sin_inv", "--point", "1e-300", "--exact"], 3),  # ZeroDivisionError
    (["spec1d", "--fn", "xsq_sin_inv", "--point", "5e-324", "--steps", "8"], 3),  # ValueError
    (["shift", "--lambda", f"{MAX},{MAX}"], 3),  # OverflowError
    (["bifurcate", "--shift", f"--extra-lambda=-1e308,{MAX}"], 3),  # OverflowError
    (["classify", "--fn", "norm_only", "--ymin", "17", "--ymax", MAX], 3),  # overflow in np.spacing
    (["bifurcate", "--fn", "sqrt_abs", f"--grid=0.5,2,{MAX},16,1,8"], 3),  # overflow in np.linspace
    # found by drawing argv as test_every_command_keeps_its_contract does: an overflow
    # warning in the exact scan's R(lam) - A(r), then exit 4, and in the containment distance
    (["bifurcate", "--fn", "norm_times_x", "--params", "16", f"--grid=2,-{MAX},0,0,3,1", "--radii=1e300"], 4),
    (["bifurcate", "--fn", "real_linear", "--grid=0,0,3e-308,0.5,3,2", "--params=0,1e-200,1e300,1e300",
      "--tol=1e-200", "--radii=1"], 0),
    # classify takes its radius bound before the grid: an |f| that overflows exits 4 before any cell
    # is labelled, where the band query and the crossings warned, or the band reach exited 3
    (["classify", "--fn", "real_linear", "--params", "1e160,1e160,0,1", "--res", "20",
      "--xmin=-1e161", "--xmax=1e161", "--ymin=-1e161", "--ymax=1e161"], 4),
    (["classify", "--fn", "real_linear", "--params", "1e200,0,0,1e200"], 4),
    # a subnormal radius: numpy's complex division formed 1/r = inf, and the verdicts were read off it
    (["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "2", "--grid=-1,1,-1,1,3,3", "--radii=5e-324"], 4),
    (["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "64", "--grid=-1,1,-1,1,3,3", "--radii=5e-324"], 4),
    # a homogeneous map's containment curve is traced at the scan radius too, where the scan's verdicts were
    # read off the 0 and +-5e-324 coordinates of the points of that sphere
    (["bifurcate", "--fn", "norm_plus_i_im", "--grid=-1,1,-1,1,3,3", "--radii=5e-324"], 4),
    # exponents above planar.MAX_POW = 64: 1e300 scanned at exit 0 and named the map with 301 digits
    (["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "65", "--grid=-1,1,-1,1,3,3"], 3),
    (["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "1e300", "--grid=-1,1,-1,1,3,3"], 3),
]


@pytest.mark.parametrize("argv", [
    ["spec2d", "--fn", "norm_plus_i_im_pow", "--params", "1e300"],
    ["bifurcate", "--fn", "norm_plus_i_im_pow", "--params", "1e300", "--grid=-1,1,-1,1,3,3"],
    ["bifurcate", "--fn", "norm_times_x", "--params", "1e300"],
])
def test_an_integer_param_out_of_range_is_named_as_given(capsys, argv):
    # the range is checked on the float: int(1e300) printed all of its 301 digits
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(", got 1e+300\n") and len(captured.err) < 80, captured.err


def _table_walk():
    """(argv, exit code) for each bad value of each numeric flag in the flag tables, each base call and each pin."""
    for base in WALK_BASE.values():
        yield base, 0
    yield from PINNED
    for cmd, (_, _, rows) in cli.COMMANDS.items():
        for flag, kind, _, check, mode, _ in rows:
            if kind == "int":  # a negative value is rejected unless the row's range takes it
                bad = [("nan", 2), ("-1", 0 if isinstance(check, tuple) and check[0] < 0 else 3)]
            elif kind == "float":
                bad = [("nan", 3), ("inf", 0 if flag == "--threshold" else 3), ("-inf", 3)]
            elif kind in ("floats", "pair", "pairs"):
                bad = [("nan,1,-1,1,2,2" if check == "grid" else "nan", 3)]
            else:
                continue
            for (base_cmd, base_mode), base in WALK_BASE.items():
                if base_cmd == cmd and mode in (None, base_mode):
                    yield from ((base + [f"{flag}={value}"], code) for value, code in bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", list(_table_walk()), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_numeric_flag_exits_as_documented(capsys, argv, code):
    # --threshold inf turns divergence detection off; a RuntimeWarning would raise here
    rc, out = run_cli(capsys, argv)
    assert rc == code
    assert (out == "") == (code != 0)


# ---------------------------------------------------------------------------
# the contract of every command, on argv drawn from the flag tables

CONTRACT_EXAMPLES = 200  # about 0.6 s of tier-1 on 2 cores; the conftest.py profile draws 60 and derandomizes
ORDINARY = ["0", "0.5", "1", "2", "3", "16", "-1.5", "1.5", "0.01"]  # values most rows take
SPECIAL = ["0", "-0", "1", "-1", "0.5", "1e-300", "5e-324", "1e300", MAX, "-" + MAX, "nan", "inf", "-inf"]
# the size flags take small values and their cap + 1, never the cap: the largest calls are timed elsewhere
SIZE_CAPS = {"--res": MAX_RESOLUTION, "--samples": 1 << 20, "--truncate": MAX_TRUNCATION, "--steps": MAX_STEPS,
             "--angles": 4096}
ATOMS = ["Identity", "CompactLinear", "LocallyCompactNonlinear", "ScalarMultiple({})", "FiniteRank({})",
         "IsometryOntoCodim({})", "KnownRates(alpha={}, omega=0)", "KnownRates(alpha=1, omega={})"]


def _numbers(k):
    number = st.one_of(st.sampled_from(ORDINARY), st.sampled_from(SPECIAL))
    return st.lists(number, min_size=k, max_size=k)


def _value(flag, kind, check):
    """A strategy for the text of one flag, from its row's kind and check: half ordinary, half extreme."""
    if kind == "int":
        extreme = ["-1", "0", "nan", "0.5"]
        if isinstance(check, tuple):
            extreme += [str(check[0] - 1), str(check[0]), str(check[1]), str(check[1] + 1)]
        if flag in SIZE_CAPS:
            extreme += [str(SIZE_CAPS[flag] + 1)]
        return st.one_of(st.sampled_from(["1", "2", "8", "16"]), st.sampled_from(extreme))
    if kind == "float":
        return _numbers(1).map(",".join)
    if kind == "floats" and check == "grid":
        counts = st.lists(st.sampled_from(["1", "2", "3", "0", "129", "2.5"]), min_size=2, max_size=2)
        return st.builds(lambda xy, n: ",".join(xy + n), _numbers(4), counts)
    if kind in ("floats", "pair"):
        return st.integers(0 if kind == "floats" else 1, 4 if kind == "floats" else 2).flatmap(_numbers).map(",".join)
    if kind == "pairs":
        return st.lists(_value(flag, "pair", check), max_size=2)
    if isinstance(kind, tuple):
        return st.sampled_from(kind + ("bogus",))
    if flag == "--fn":
        return st.sampled_from(BUILTIN_NAMES + ("bogus",))
    assert flag == "--expr", flag  # a new str row needs its values here
    atom = st.builds(str.format, st.sampled_from(ATOMS), _numbers(1).map(",".join))
    return st.lists(atom, min_size=1, max_size=3).map(" + ".join)


@st.composite
def command_argv(draw):
    """A command, a bifurcate mode, and for each row of that mode a drawn value, or none one time in three.

    The --fn and --expr rows, the size flags and the grid are always given, so no call runs a large default.
    """
    cmd = draw(st.sampled_from(sorted(cli.COMMANDS)))
    mode = draw(st.sampled_from(["fn", "shift"])) if cmd == "bifurcate" else None
    argv = [cmd]
    for flag, kind, _, check, only, _ in cli.COMMANDS[cmd][2]:
        if only not in (None, mode):
            continue
        if kind == "switch":
            names = flag.split("|")
            if flag == "--shift":
                argv += ["--shift"] if mode == "shift" else []
            else:
                argv += draw(st.sampled_from([[], *([n] for n in names), names]))
            continue
        if not (kind == "str" or flag in SIZE_CAPS or check == "grid" or draw(st.integers(0, 2)) == 0):
            continue
        value = draw(_value(flag, kind, check))
        argv += [f"{flag}={v}" for v in value] if kind == "pairs" else [f"{flag}={value}"]
    return argv


def _contract_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _strict(token):
    raise ValueError(f"not a JSON number: {token}")


@settings(max_examples=CONTRACT_EXAMPLES)
@given(command_argv())
def test_every_command_keeps_its_contract(argv):
    # no exception escapes and no RuntimeWarning is raised; strict JSON on exit 0
    # and 5, one line on stderr and nothing on stdout on 2, 3 and 4; the same bytes twice
    first = _contract_run(argv)
    rc, out, err = first
    assert rc in (0, 2, 3, 4, 5), (rc, err)
    if rc in (0, 5):
        json.loads(out, parse_constant=_strict)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
        assert err.split(": ", 1)[0] in ("usage error", "precondition error", "numeric error", "error"), err
    assert _contract_run(argv) == first
