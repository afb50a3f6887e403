"""Deterministic SVG emission for plane figures.

Figures contain the shaded region and the boundary curve as separate
labeled groups so downstream tooling can address them; output bytes depend
only on the inputs.  Coordinates are mapped to the canvas as numpy arrays
and formatted from Python floats: the shaded region is one rectangle per
run of in-spectrum cells of a row (`PlaneSpectrum.label_runs`), never a
walk over the cells.  The module imports no specpoint engine and numpy only
inside `classify_svg`, so the shift figure loads neither.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .homog2d import PlaneSpectrum

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _f(v: float) -> str:
    return f"{v:.6g}"


SIZE, PAD = 640, 30  # the square canvas of every figure and its margin, in pixels


class _Canvas:
    def __init__(self, bounds):
        self.x0, self.x1, self.y0, self.y1 = bounds
        self.sx = (SIZE - 2 * PAD) / (self.x1 - self.x0)
        self.sy = (SIZE - 2 * PAD) / (self.y1 - self.y0)

    # px and py map scalars or arrays, elementwise with the same arithmetic
    def px(self, x: float | np.ndarray) -> float | np.ndarray:
        return PAD + (x - self.x0) * self.sx

    def py(self, y: float | np.ndarray) -> float | np.ndarray:
        return SIZE - PAD - (y - self.y0) * self.sy


def _region_rects(spectrum: PlaneSpectrum, canvas: _Canvas) -> list[str]:
    """Row-merged rectangles covering the in-spectrum cells, row by row."""
    from .homog2d import CellLabel  # a PlaneSpectrum exists, so homog2d is loaded

    xs, ys = spectrum.xs, spectrum.ys
    dx = xs[1] - xs[0] if xs.size > 1 else 1.0
    dy = ys[1] - ys[0] if ys.size > 1 else 1.0
    rects = []
    for rows, starts, stops, labels in spectrum.label_runs():
        keep = labels == CellLabel.IN_SPECTRUM
        rows, starts, stops = rows[keep], starts[keep], stops[keep]
        x_left = canvas.px(xs[starts] - 0.5 * dx)
        x_right = canvas.px(xs[stops - 1] + 0.5 * dx)
        y_top = canvas.py(ys[rows] + 0.5 * dy)
        y_bot = canvas.py(ys[rows] - 0.5 * dy)
        rects.extend(
            f'<rect x="{x:.6g}" y="{y:.6g}" width="{w:.6g}" height="{h:.6g}"/>'
            for x, y, w, h in zip(x_left.tolist(), y_top.tolist(),
                                  (x_right - x_left).tolist(), (y_bot - y_top).tolist())
        )
    return rects


def _axes(canvas: _Canvas) -> str:
    cx = canvas.px(0.0)
    cy = canvas.py(0.0)
    return (
        '<g id="axes" stroke="#444" stroke-width="1" fill="none">'
        f'<line x1="6" y1="{_f(cy)}" x2="{_f(SIZE - 6.0)}" y2="{_f(cy)}"/>'
        f'<line x1="{_f(cx)}" y1="{_f(SIZE - 6.0)}" x2="{_f(cx)}" y2="6"/>'
        "</g>"
    )


def classify_svg(spectrum: PlaneSpectrum, title: str = "") -> str:
    import numpy as np

    bounds = (
        float(spectrum.xs[0]),
        float(spectrum.xs[-1]),
        float(spectrum.ys[0]),
        float(spectrum.ys[-1]),
    )
    canvas = _Canvas(bounds)
    v = spectrum.curve.values
    closed = np.append(v, v[:1])
    poly = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(canvas.px(closed.real).tolist(),
                                                        canvas.py(closed.imag).tolist()))
    parts = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f"<title>{title}</title>" if title else "",
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
        '<g id="region" fill="#c8c8c8" stroke="none">',
        *_region_rects(spectrum, canvas),
        "</g>",
        _axes(canvas),
        '<g id="curve" fill="none" stroke="#000000" stroke-width="1.5">',
        f'<polyline points="{poly}"/>',
        "</g>",
        "</svg>",
        "",
    ]
    return "\n".join(p for p in parts if p != "")


def annuli_svg(disk_radius: float, circle_radii: tuple[float, ...], title: str = "") -> str:
    """Shaded disk plus labeled circles (used by the shift-model figure), 1.25 times the largest radius wide."""
    extent = 1.25 * max((disk_radius, *circle_radii))
    canvas = _Canvas((-extent, extent, -extent, extent))
    cx, cy = canvas.px(0.0), canvas.py(0.0)
    r_disk = disk_radius * canvas.sx
    circles = "".join(
        f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r * canvas.sx)}"/>' for r in circle_radii
    )
    parts = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f"<title>{title}</title>" if title else "",
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
        f'<g id="region" fill="#c8c8c8" stroke="none">'
        f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r_disk)}"/></g>',
        _axes(canvas),
        f'<g id="curve" fill="none" stroke="#000000" stroke-width="1.5">{circles}</g>',
        "</svg>",
        "",
    ]
    return "\n".join(p for p in parts if p != "")
