#!/usr/bin/env python3
"""Regenerate the three reference figures as SVG files.

    figure 1: shaded spectrum of the cardioid-type map norm + i*im
    figure 2: shaded spectrum of |re|/2 + i*im (two tangent circles)
    figure 3: shift-model spectrum (disk of radius sqrt(2), circles at 1 and sqrt(2))

Usage: python scripts/reproduce_figures.py [--outdir OUT] [--res N]
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from specpoint import cli  # noqa: E402


RES = 220  # the default --res


def jobs(res: int) -> list:
    """(name, CLI argv) of each figure at grid resolution res."""
    res = str(res)
    return [
        (
            "fig1_cardioid",
            ["classify", "--fn", "norm_plus_i_im", "--xmin", "-2", "--xmax", "2",
             "--ymin", "-2", "--ymax", "2", "--res", res],
        ),
        (
            "fig2_two_circles",
            ["classify", "--fn", "half_abs_re_plus_i_im", "--xmin", "-1.5", "--xmax", "2",
             "--ymin", "-1.5", "--ymax", "1.5", "--res", res],
        ),
        ("fig3_shift_model", ["shift", "--truncate", "60"]),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/figures")
    ap.add_argument("--res", type=int, default=RES)
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in jobs(args.res):
        target = out / f"{name}.json"
        rc = cli.main(argv + ["--out", str(target)])
        if rc != 0:
            print(f"{name}: exit {rc}", file=sys.stderr)
            return rc
        print(f"wrote {target.with_suffix('.svg')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
