"""In-process tracing for the per-layer metrics.

The tracer swaps attributes of specpoint's modules for wrappers that record
a span (name, start, end, parent span, CLI call) around each call into a
layer and count the work handed to it.  Nothing under src/ is edited, and
`uninstall` puts every original attribute back.  Spans stay in memory until
`write_jsonl`.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "specpoint"
SQRT2 = math.sqrt(2.0)

# (metric, unit).  `.calls`, `.busy_s` and `.self_s` come from the spans of
# the named layer; every other metric is a counter filled by a hook below or
# by the benchmark runner.  busy = union of the layer's outermost spans;
# self = a span's duration minus the time its child spans cover.
LAYER_METRICS = (
    ("import.specpoint_cli_s", "s"),
    ("import.scipy_optimize_s", "s"),
    ("import.scipy_stats_s", "s"),
    ("import.scipy_spatial_s", "s"),
    ("maps.evaluate.calls", "count"),
    ("maps.evaluate.points", "count"),
    ("maps.evaluate.busy_s", "s"),
    ("numerics.sphere_polish.calls", "count"),
    ("numerics.sphere_polish.busy_s", "s"),
    ("numerics.sphere_directions.busy_s", "s"),
    ("numerics.golden_min.calls", "count"),
    ("dini.dini_estimate.busy_s", "s"),
    ("estimators.bifurcation_scan.busy_s", "s"),
    ("estimators.bifurcation_scan.self_s", "s"),
    ("homog2d.sigma_curve.calls", "count"),
    ("homog2d.sigma_curve.samples", "count"),
    ("homog2d.sigma_curve.busy_s", "s"),
    ("homog2d.classify_plane.busy_s", "s"),
    ("homog2d.classify_plane.self_s", "s"),
    ("homog2d.band_query.busy_s", "s"),
    ("homog2d.band_query.points", "count"),
    ("homog2d.component_label.busy_s", "s"),
    ("homog2d.spectral_radius_bound.busy_s", "s"),
    ("homog2d.spectral_radius_bound.calls", "count"),
    ("homog2d.cells.offband", "count"),
    ("homog2d.cells.band", "count"),
    ("structured.sphere_least_squares.calls", "count"),
    ("structured.sphere_least_squares.busy_s", "s"),
    ("structured.truncated_shift_min.busy_s", "s"),
    ("structured.shift_bifurcation_scan.self_s", "s"),
    ("structured.mnc_bounds.busy_s", "s"),
    ("structured.dense_bytes_computed", "B"),
    ("structured.oracle_err_max", "abs"),
    ("svgfig.busy_s", "s"),
    ("svgfig.bytes", "B"),
    ("cli.grid_csv.busy_s", "s"),
    ("cli.output_bytes", "B"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _evaluate_points(c, args, kwargs, result):
    f, x = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "x")
    size = int(np.size(x))
    c["maps.evaluate.points"] += size if f.dim == 1 else size // f.dim


def _curve_samples(c, args, kwargs, result):
    c["homog2d.sigma_curve.samples"] += int(result.values.size)


def _cells(c, args, kwargs, result):
    band = int(np.sum(result.labels == 2))
    c["homog2d.cells.band"] += band
    c["homog2d.cells.offband"] += int(result.labels.size) - band


def _query_points(c, args, kwargs, result):
    c["homog2d.band_query.points"] += len(_arg(args, kwargs, 1, "x"))  # args[0] is the tree


def _dense_bytes(c, args, kwargs, result):
    """16 N^2 bytes for each dense N x N complex matrix handed to the solver."""
    a = np.shape(_arg(args, kwargs, 0, "A"))
    if len(a) == 2:
        c["structured.dense_bytes_computed"] += 16 * a[0] * a[1]


def _oracle_err(c, args, kwargs, result):
    """Exact truncated minima: 1 at lambda = 0, ||lambda| - sqrt 2| for |lambda| >= 1.2."""
    m = abs(complex(_arg(args, kwargs, 0, "lam")))
    if m == 0.0:
        exact = 1.0
    elif m >= 1.2:
        exact = abs(m - SQRT2)
    else:
        return
    c["structured.oracle_err_max"] = max(c["structured.oracle_err_max"], abs(result - exact))


def _svg_bytes(c, args, kwargs, result):
    c["svgfig.bytes"] += len(result.encode())


# (span name, module, attribute, counting hook).  Every specpoint module that
# binds the attribute gets the wrapper, so calls made inside the defining
# module are traced too.  `evaluate` is the exception: it is wrapped only
# where homog2d, estimators and dini import it, since maps' own helpers call
# it while building composed maps.  Spans that feed no metric still keep the
# layer work they time out of cli.main.self_s.
TARGETS = (
    ("maps.evaluate", "maps", "evaluate", _evaluate_points),
    ("maps.builtin", "maps", "builtin", None),
    ("numerics.sphere_polish", "numerics", "sphere_polish", None),
    ("numerics.sphere_directions", "numerics", "sphere_directions", None),
    ("numerics.golden_min", "numerics", "golden_min", None),
    ("dini.dini_exact", "dini", "dini_exact", None),
    ("dini.dini_estimate", "dini", "dini_estimate", None),
    ("dini.spectrum_1d", "dini", "spectrum_1d", None),
    ("dini.point_spectrum_1d", "dini", "point_spectrum_1d", None),
    ("estimators.bifurcation_scan", "estimators", "bifurcation_scan", None),
    ("homog2d.sigma_curve", "homog2d", "sigma_curve", _curve_samples),
    ("homog2d.d_and_quasinorm", "homog2d", "d_and_quasinorm", None),
    ("homog2d.classify_plane", "homog2d", "classify_plane", _cells),
    ("homog2d.spectral_radius_bound", "homog2d", "spectral_radius_bound", None),
    ("structured.sphere_least_squares", "structured", "sphere_least_squares", _dense_bytes),
    ("structured.truncated_shift_min", "structured", "truncated_shift_min", _oracle_err),
    ("structured.shift_bifurcation_scan", "structured", "shift_bifurcation_scan", None),
    ("structured.shift_model_report", "structured", "shift_model_report", None),
    ("structured.xi_equation_solvable", "structured", "xi_equation_solvable", None),
    ("structured.parse_expr", "structured", "parse_expr", None),
    ("structured.mnc_bounds", "structured", "mnc_bounds", None),
    ("svgfig.classify_svg", "svgfig", "classify_svg", _svg_bytes),
    ("svgfig.annuli_svg", "svgfig", "annuli_svg", _svg_bytes),
    ("cli.grid_csv", "cli", "_grid_csv", None),
)
IMPORTERS_ONLY = {"maps.evaluate"}


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []                    # [name, start, end, parent index, call]
        self.counters = defaultdict(int)
        self.call = None                   # index of the CLI call being traced
        self.missing = []                  # targets the program no longer has
        self._stack = []                   # indices of the open spans
        self._undo = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.call]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def _swap(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        mods = [m for name, m in list(sys.modules.items()) if name.startswith(PACKAGE + ".") and m is not None]
        for name, modname, attr, hook in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{modname}")
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, hook)
            for m in mods:
                if m is home and name in IMPORTERS_ONLY:
                    continue
                if getattr(m, attr, None) is orig:
                    self._swap(m, attr, wrapped)

        homog2d = importlib.import_module(f"{PACKAGE}.homog2d")
        tree = getattr(homog2d, "cKDTree", None)
        if tree is None:
            self.missing.append("homog2d.band_query")
        else:
            traced_tree = type("TracedTree", (tree,), {
                "query": self.wrap("homog2d.band_query", tree.query, _query_points)})
            self._swap(homog2d, "cKDTree", traced_tree)
        ndimage = getattr(homog2d, "ndimage", None)
        if ndimage is None:
            self.missing.append("homog2d.component_label")
        else:
            label = self.wrap("homog2d.component_label", ndimage.label)
            self._swap(homog2d, "ndimage", _Proxy(ndimage, label=label))

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # -- reporting -----------------------------------------------------------

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "call": call}) + "\n")

    def metrics(self) -> dict:
        spans = self.spans
        dur = [end - start for _, start, end, _, _ in spans]
        children = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] is not None:
                children[rec[3]] += dur[i]

        def in_layer(name, layer):
            return name == layer or name.startswith(layer + ".")

        def outermost(i, layer):
            p = spans[i][3]
            while p is not None:
                if in_layer(spans[p][0], layer):
                    return False
                p = spans[p][3]
            return True

        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = sum(1 for rec in spans if rec[0] == layer)
            elif kind == "busy_s":
                out[metric] = sum(dur[i] for i, rec in enumerate(spans)
                                  if in_layer(rec[0], layer) and outermost(i, layer))
            elif kind == "self_s":
                out[metric] = sum(dur[i] - children[i] for i, rec in enumerate(spans) if rec[0] == layer)
            else:
                out[metric] = self.counters[metric]
        return out
