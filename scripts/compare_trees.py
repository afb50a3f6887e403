#!/usr/bin/env python3
"""Run one argv corpus in a BASE tree and in this checkout, and compare what each run leaves behind.

    python scripts/compare_trees.py BASE

The argv come from this checkout: the CLI block of its README, the three
jobs of its figure script, every call of its bench/workloads.py at seeds 7
and 8, and its scripts/corpus.txt.  Each argv runs as `python -m
specpoint.cli` with PYTHONPATH set to the tree's src/, in a fresh directory
for each tree, BASE and this checkout alternating.  The exit code, stdout,
stderr (with the tree's path and the run's directory replaced) and the
SHA-256 of every file written must match.  Each difference is printed, and
the exit status is 1 if there is any.  `compare_trees.py .` checks that
every argv gives the same bytes twice.
"""
import hashlib
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

SEEDS = (7, 8)


def readme_argv(tree: Path) -> list:
    """The commands of the README's CLI block, continuation lines joined."""
    block = re.search(r"```sh\n(.*?)```", (tree / "README.md").read_text().split("## CLI", 1)[1], re.S)
    return [shlex.split(line)[1:] for line in block.group(1).replace("\\\n", " ").splitlines() if line.strip()]


def figure_argv(tree: Path) -> list:
    """The figure script's jobs at its default --res, each with --out figures/NAME.json."""
    spec = importlib.util.spec_from_file_location("reproduce_figures", tree / "scripts" / "reproduce_figures.py")
    figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(figures)
    return [argv + ["--out", f"figures/{name}.json"] for name, argv in figures.jobs(figures.RES)]


def workload_argv(tree: Path) -> list:
    """Every call of every benchmark workload at SEEDS, its files under out/."""
    sys.path.insert(0, str(tree / "bench"))
    import workloads

    return [list(call.argv) for name in workloads.WORKLOADS for seed in SEEDS
            for call in workloads.build(name, seed, Path("out"))]


def corpus_argv(tree: Path) -> list:
    lines = (tree / "scripts" / "corpus.txt").read_text().splitlines()
    return [argv for line in lines if (argv := shlex.split(line, comments=True))]


def corpus(tree: Path) -> list:
    """Every argv of the corpus, in the order they run."""
    return readme_argv(tree) + figure_argv(tree) + workload_argv(tree) + corpus_argv(tree)


def run(tree: Path, argv: list, scratch: Path) -> tuple:
    """(exit code, stdout, stderr, {file: SHA-256}) of one run in a fresh directory, which is then removed."""
    where = Path(tempfile.mkdtemp(dir=scratch))
    proc = subprocess.run([sys.executable, "-m", "specpoint.cli", *argv], cwd=where, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")))

    def clean(text):
        return text.replace(str(where), "<run>").replace(str(tree), "<tree>")

    files = {}
    for path in sorted(where.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with path.open("rb") as f:  # a classify CSV at res 4096 is 0.8 GB: read in blocks
                for block in iter(partial(f.read, 1 << 20), b""):
                    digest.update(block)
            files[str(path.relative_to(where))] = digest.hexdigest()
    shutil.rmtree(where)
    return proc.returncode, clean(proc.stdout), clean(proc.stderr), files


def differences(a: tuple, b: tuple) -> list:
    """One line for each of exit code, stdout, stderr and files that differ between two runs."""
    out = []
    if a[0] != b[0]:
        out.append(f"exit code {a[0]} != {b[0]}")
    for name, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        if x != y:
            i = len(os.path.commonprefix([x, y]))
            out.append(f"{name} differs from character {i}: {x[i:i + 60]!r} != {y[i:i + 60]!r}")
    for name in sorted(a[3].keys() | b[3].keys()):
        if a[3].get(name) != b[3].get(name):
            out.append(f"file {name}: {a[3].get(name, 'absent')} != {b[3].get(name, 'absent')}")
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, tree = Path(sys.argv[1]).resolve(), Path(__file__).resolve().parents[1]
    argvs = corpus(tree)
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(argvs):
            runs = [None, None]  # BASE's and this checkout's, which may be the same tree
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[k] = run((base, tree)[k], argv, Path(scratch))
            found = differences(*runs)
            failed += bool(found)
            for line in found:
                print(f"[{i}] {shlex.join(argv)}: {line}", flush=True)
    print(f"{len(argvs)} argv in {base} and {tree}: {failed} with differences, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
