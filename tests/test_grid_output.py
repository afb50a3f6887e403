"""The classify grid's CSV and SVG, written from label runs, against the former per-cell writers."""
import csv
import hashlib
import io
import itertools
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from specpoint import cli, homog2d, svgfig
from specpoint.homog2d import CellLabel, PlaneSpectrum, SigmaCurve, classify_plane
from specpoint.maps import builtin


def _list_grid_csv(spectrum) -> str:
    """Reference: the former CSV writer, one line per cell in a list, joined at the end."""
    names = ("in_spectrum", "regular", "band")
    cols = [repr(float(x)) + "," for x in spectrum.xs]
    lines = ["re,im,label\n"]
    for y, row in zip(spectrum.ys, spectrum.labels.tolist()):
        yc = repr(float(y)) + ","
        lines.extend(f"{xc}{yc}{names[lab]}\n" for xc, lab in zip(cols, row))
    return "".join(lines)


def _csv_writer_grid_csv(spectrum) -> str:
    """Reference: csv.writer over every cell."""
    names = {0: "in_spectrum", 1: "regular", 2: "band"}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re", "im", "label"])
    for j, y in enumerate(spectrum.ys):
        for i, x in enumerate(spectrum.xs):
            writer.writerow([repr(float(x)), repr(float(y)), names[int(spectrum.labels[j, i])]])
    return buf.getvalue()


def _cell_region_rects(spectrum, canvas) -> list[str]:
    """Reference: the former rectangles, found by reading every cell of the grid."""
    f = svgfig._f
    xs, ys = spectrum.xs, spectrum.ys
    dx = xs[1] - xs[0] if xs.size > 1 else 1.0
    dy = ys[1] - ys[0] if ys.size > 1 else 1.0
    rects = []
    mask = spectrum.labels == CellLabel.IN_SPECTRUM
    for j in range(mask.shape[0]):
        row = mask[j]
        i = 0
        while i < row.size:
            if not row[i]:
                i += 1
                continue
            k = i
            while k + 1 < row.size and row[k + 1]:
                k += 1
            x_left = canvas.px(xs[i] - 0.5 * dx)
            x_right = canvas.px(xs[k] + 0.5 * dx)
            y_top = canvas.py(ys[j] + 0.5 * dy)
            y_bot = canvas.py(ys[j] - 0.5 * dy)
            rects.append(
                f'<rect x="{f(x_left)}" y="{f(y_top)}" '
                f'width="{f(x_right - x_left)}" height="{f(y_bot - y_top)}"/>'
            )
            i = k + 1
    return rects


def _reference_classify_svg(spectrum, size=640, title=""):
    """Reference: the former classify_svg, per-cell rectangles and a per-point polyline."""
    f = svgfig._f
    bounds = (float(spectrum.xs[0]), float(spectrum.xs[-1]), float(spectrum.ys[0]), float(spectrum.ys[-1]))
    canvas = svgfig._Canvas(bounds)  # the canvas of the size-640 figure
    v = spectrum.curve.values
    pts = np.stack([v.real, v.imag], -1)
    closed = np.concatenate([pts, pts[:1]])
    poly = " ".join(f"{f(canvas.px(x))},{f(canvas.py(y))}" for x, y in closed)
    parts = [
        svgfig._HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<title>{title}</title>" if title else "",
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
        '<g id="region" fill="#c8c8c8" stroke="none">',
        *_cell_region_rects(spectrum, canvas),
        "</g>",
        svgfig._axes(canvas),
        '<g id="curve" fill="none" stroke="#000000" stroke-width="1.5">',
        f'<polyline points="{poly}"/>',
        "</g>",
        "</svg>",
        "",
    ]
    return "\n".join(p for p in parts if p != "")


def _written_csv(spectrum) -> str:
    out = io.StringIO()
    cli._grid_csv(spectrum, out)
    return out.getvalue()


def _row_runs(row):
    """Reference: the (start, stop, label) runs of one row, by itertools.groupby."""
    runs, start = [], 0
    for lab, group in itertools.groupby(row.tolist()):
        stop = start + len(list(group))
        runs.append((start, stop, lab))
        start = stop
    return runs


@st.composite
def label_grids(draw):
    """(labels, rows per block): int8 grids whose runs cross row ends before they are cut.

    Runs are laid end to end over the flattened grid, so most rows begin with
    the label the previous row ended with.  Row `a` is one label, continuing
    the previous row's last run; row `c` starts with a one-cell run whose
    label differs from the previous row's last cell; row `d` ends with a
    one-cell run.
    """
    nx, ny = draw(st.integers(2, 40)), draw(st.integers(2, 24))
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2 * nx)), min_size=1, max_size=24))
    flat = np.repeat([lab for lab, _ in runs], [n for _, n in runs])
    labels = np.resize(flat, ny * nx).reshape(ny, nx).astype(np.int8)
    a = draw(st.integers(0, ny - 1))
    others = [r for r in range(ny) if r != a]
    c, d = draw(st.sampled_from(others)), draw(st.sampled_from(others))
    labels[d, -1] = (labels[d, -2] + draw(st.integers(1, 2))) % 3
    taken = {int(labels[c, 1])} | ({int(labels[c - 1, -1])} if c else set())
    labels[c, 0] = draw(st.sampled_from(sorted({0, 1, 2} - taken)))
    labels[a] = labels[a - 1, -1] if a else draw(st.integers(0, 2))
    assert labels[c, 0] != labels[c, 1] and labels[d, -2] != labels[d, -1]
    assert (labels[a] == labels[a, 0]).all()
    return labels, draw(st.integers(1, ny - 1))


coords = st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
curve_points = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=40)


def _spectrum(labels, x_box, y_box, points=((0.5, 0.25),)):
    ny, nx = labels.shape
    values = np.array([complex(x, y) for x, y in points])
    curve = SigmaCurve(np.arange(values.size, dtype=float), values, 1e-3, True)
    xs = np.linspace(x_box[0], x_box[0] + x_box[1], nx)
    ys = np.linspace(y_box[0], y_box[0] + y_box[1], ny)
    return PlaneSpectrum(curve=curve, xs=xs, ys=ys, labels=labels, band_radius=0.1)


@given(label_grids())
def test_label_runs_are_the_maximal_runs_of_each_row(grid):
    labels, rows_per_block = grid
    ps = _spectrum(labels, (0.0, 1.0), (0.0, 1.0))
    with mock.patch.object(homog2d, "CHUNK", rows_per_block * labels.shape[1]):
        blocks = list(ps.label_runs())
    assert len(blocks) == -(-labels.shape[0] // rows_per_block)
    got = [tuple(int(v) for v in run) for block in blocks for run in zip(*block)]
    assert got == [(j, *run) for j, row in enumerate(labels) for run in _row_runs(row)]


@given(label_grids(), coords, coords)
def test_grid_csv_matches_former_writer_and_csv_writer(grid, x_box, y_box):
    labels, rows_per_block = grid
    ps = _spectrum(labels, x_box, y_box)
    with mock.patch.object(homog2d, "CHUNK", rows_per_block * labels.shape[1]):
        text = _written_csv(ps)
    assert text == _list_grid_csv(ps)
    assert text == _csv_writer_grid_csv(ps)


@given(label_grids(), coords, coords, curve_points)
def test_region_rects_and_svg_match_former_cell_walk(grid, x_box, y_box, points):
    labels, rows_per_block = grid
    ps = _spectrum(labels, x_box, y_box, points)
    bounds = (float(ps.xs[0]), float(ps.xs[-1]), float(ps.ys[0]), float(ps.ys[-1]))
    canvas = svgfig._Canvas(bounds)
    with mock.patch.object(homog2d, "CHUNK", rows_per_block * labels.shape[1]):
        assert svgfig._region_rects(ps, canvas) == _cell_region_rects(ps, canvas)
        assert svgfig.classify_svg(ps, title="grid") == _reference_classify_svg(ps, title="grid")


def test_classified_grid_outputs_match_references_across_row_blocks():
    # 600 columns make row blocks of 436 rows, so a block boundary lies inside the grid
    for name, box in (("norm_plus_i_im", (-2.0, 2.0, -2.0, 2.0)), ("half_abs_re_plus_i_im", (-1.5, 2.0, -1.5, 1.5))):
        ps = classify_plane(builtin(name), bounds=box, resolution=600)
        assert len(list(ps.label_runs())) == 2
        assert _written_csv(ps) == _list_grid_csv(ps)
        assert svgfig.classify_svg(ps, title=name) == _reference_classify_svg(ps, title=name)


# The SHA-256 of every file the README's classify line and the figure script's
# figure-2 job write.  With homog2d.CURVE_SAMPLES 1024 in place of 2048 the
# cardioid SVG changes while its JSON and CSV keep their bytes.
CLASSIFY_FILES = {
    "cardioid.csv": "5b4a92eef4c9796dea2e72eb4481ddb17cc8dc45533beb3f722dc38ff4e01e19",
    "cardioid.json": "ba3f4581da29a67e7c84e1da313b4705272240b4254578c94fc9796785f9a9d8",
    "cardioid.svg": "55e35b056e32982aa934b0afa7928298e4687196a36b073adbe68438f82fcd24",
    "fig2_two_circles.csv": "8b1c9b2f6f8b66ab75485c07433b504a66f7e2bd805ce3be388a307e97c379fe",
    "fig2_two_circles.json": "cdda5d06c2025b76e1c1fbc99d427fd375376b57c644ac2a736600c9d01f8f09",
    "fig2_two_circles.svg": "340d5910102b50df20703dde7123c5bfc5b4860313915f1875b3f8c679c73fd6",
}


def test_classify_files_keep_their_bits(tmp_path):
    runs = {
        "cardioid": ["--fn", "norm_plus_i_im", "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2",
                     "--res", "200", "--band", "0.05"],
        "fig2_two_circles": ["--fn", "half_abs_re_plus_i_im", "--xmin", "-1.5", "--xmax", "2",
                             "--ymin", "-1.5", "--ymax", "1.5", "--res", "220"],
    }
    for name, argv in runs.items():
        assert cli.main(["classify", *argv, "--out", str(tmp_path / f"{name}.json")]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert got == CLASSIFY_FILES
