#!/usr/bin/env python3
"""List the functions of src/specpoint that no argv of the corpus calls.

    python scripts/reach.py

The corpus is compare_trees.py's: the CLI block of the README, the jobs of
the figure script, every call of bench/workloads.py at its seeds, and
scripts/corpus.txt.  Each argv runs in this process through
specpoint.cli.main, in a fresh temporary directory, under a profile hook
that records every function called.  Each function defined in
src/specpoint that no argv calls is printed as `module:line name (n
lines)`, then their count.  An argv that ends in an uncaught exception is
printed with its traceback, and the exit status is then 1.
"""
import ast
import contextlib
import importlib.util
import io
import os
import shlex
import sys
import tempfile
import time
import traceback
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
PACKAGE = TREE / "src" / "specpoint"


def functions() -> dict:
    """{(file, first line of its code object): label} for every def in the package, nested ones too."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (f"{path.stem}:{child.lineno} {prefix}{child.name} "
                                             f"({child.end_lineno - first + 1} lines)")
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def main() -> int:
    spec = importlib.util.spec_from_file_location("compare_trees", TREE / "scripts" / "compare_trees.py")
    compare_trees = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_trees)
    argvs = compare_trees.corpus(TREE)
    sys.path.insert(0, str(TREE / "src"))
    from specpoint import cli

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    start, failed, home = time.perf_counter(), 0, os.getcwd()
    for argv in argvs:
        with tempfile.TemporaryDirectory() as where:
            os.chdir(where)
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    sys.setprofile(hook)
                    try:
                        cli.main(argv)
                    finally:
                        sys.setprofile(None)
            except Exception:
                failed += 1
                print(f"{shlex.join(argv)}: uncaught exception\n{traceback.format_exc()}", flush=True)
            finally:
                os.chdir(home)
    defined = functions()
    unreached = [label for key, label in sorted(defined.items()) if key not in called]
    for label in unreached:
        print(label)
    print(f"{len(argvs)} argv in {time.perf_counter() - start:.0f} s: {len(unreached)} of the {len(defined)} "
          f"functions of src/specpoint never called, {failed} argv with an uncaught exception")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
