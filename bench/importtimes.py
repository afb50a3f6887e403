"""Cumulative import times inside `import specpoint.cli`, printed as one JSON object.

    PYTHONPATH=src python3 bench/importtimes.py

`python -X importtime` logs only imports that go through the interpreter's
C import path, so a package pulled in by `from scipy import optimize` has
no line of its own.  This script instead times the execution of each
package's module (its nested imports included) with a meta-path finder, in
a fresh interpreter.  A package imported earlier by another one counts
where it is first imported, as with -X importtime.
"""
import json
import sys
import time

PACKAGES = ("scipy.optimize", "scipy.stats", "scipy.spatial")
times = {}


class ExecTimer:
    """Finds specs through the other finders and times their exec_module."""

    @classmethod
    def find_spec(cls, name, path, target=None):
        if name not in PACKAGES:
            return None
        for finder in sys.meta_path:
            if finder is cls or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        run = spec.loader.exec_module

        def exec_module(module):
            t0 = time.perf_counter()
            try:
                run(module)
            finally:
                times[name] = time.perf_counter() - t0

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, ExecTimer)
t0 = time.perf_counter()
import specpoint.cli  # noqa: E402,F401

times["specpoint.cli"] = time.perf_counter() - t0
print(json.dumps({name: times.get(name, 0.0) for name in ("specpoint.cli", *PACKAGES)}))
