"""specpoint benchmark: real CLI calls, checked against exact oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.

--trace 0 runs the workload's calls as CLI subprocesses in a closed loop
with one client (the next call starts when the previous one has exited), in
passes, until the next pass would end after S seconds.  A second pass runs
unless the first one took S seconds or more, so that each call's output
bytes can be compared with its first pass.  It prints the end-to-end
metrics.

--trace 1 runs three passes in process: a warm-up, an untraced pass and a
traced one, with timing and counting wrappers swapped onto specpoint's
module attributes, and prints the per-layer metrics.  The spans are written
as JSONL; trace.overhead_s is the traced pass minus the untraced one.

Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Run records, call outputs and
spans go to .bench_build/bench/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_build") / "bench"  # relative to ROOT, the working directory
SETUP_RUNS = 3
MIN_PASSES = 2  # unless the first pass alone used the budget
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SPECPOINT_THREADS")
IMPORT_METRICS = {"specpoint.cli": "import.specpoint_cli_s", "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.stats": "import.scipy_stats_s", "scipy.spatial": "import.scipy_spatial_s"}
CLI = "import sys; from specpoint.cli import main; sys.exit(main())"  # the console script

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import workloads  # noqa: E402


def log(text: str) -> None:
    print(text, flush=True)


def child_env() -> dict:
    """The caller's environment with src/ on the path and SPECPOINT_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "SPECPOINT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    """What the numbers depend on, recorded and left unchanged."""
    import numpy
    import scipy

    try:  # the library behind numpy.linalg, which the solvers call
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{dep[k].get('name')} {dep[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = None

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = got.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one call


def _clear(call) -> None:
    if call.stem is not None:
        for suffix in (".json", ".csv", ".svg"):
            call.stem.with_suffix(suffix).unlink(missing_ok=True)


def spawn(call, env, capture: Path):
    """Run one call as a subprocess, its stdout and stderr going to files named
    after `capture`; returns (wall s, exit code, max RSS MB, stdout)."""
    _clear(call)
    with open(capture.with_suffix(".stdout"), "wb") as out, open(capture.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *call.argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, capture.with_suffix(".stdout").read_bytes()


def in_process(cli, call, capture: Path, tracer=None):
    """Run one call through specpoint.cli.main in this process; returns (wall s, exit code, stdout)."""
    _clear(call)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), (tracer.span("cli.main") if tracer else contextlib.nullcontext()):
            rc = cli.main(list(call.argv))
    except Exception:  # a crash is a failed call, not the end of the run
        capture.with_suffix(".stderr").write_text(traceback.format_exc())
        rc = None
    return time.perf_counter() - t0, rc, buf.getvalue().encode()


class Ledger:
    """Checks each call's output once and compares later passes by hash."""

    def __init__(self, calls):
        self.calls = calls
        self.first = [None] * len(calls)   # (digest, Check) of the first pass
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, i: int, out: checks.Output, pass_no: int) -> None:
        self.attempted += 1
        digest = out.digest()
        if self.first[i] is None:
            self.first[i] = (digest, self.calls[i].check(out))
        first_digest, check = self.first[i]
        errors = list(check.errors)
        if digest != first_digest:
            errors.append("output bytes differ from the first pass")
        if errors:
            self.failed += 1
            self.errors.append({"pass": pass_no, "call": i, "errors": errors})

    def check(self, i: int) -> checks.Check:
        return self.first[i][1]


# ---------------------------------------------------------------------------
# end-to-end run


def setup_time(env) -> float:
    """Median wall time of a fresh `import specpoint.cli`.  In a fresh checkout
    the first import also compiles bytecode; the median leaves that run out."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import specpoint.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call_tail(times: list, n_calls: int) -> tuple:
    """(seconds, percentile, samples beyond): the highest per-call percentile with
    at least ten samples beyond it.  With ten or fewer samples no percentile has
    that, and the tail is the slowest call's median over passes."""
    xs = sorted(times)
    k = len(xs) - 10
    if k < 1:
        per_call = [statistics.median(times[i::n_calls]) for i in range(n_calls)]
        return max(per_call), 100.0, 0
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def run_untraced(calls, seconds: float, out_dir: Path) -> tuple:
    env = child_env()
    ledger = Ledger(calls)
    setup = setup_time(env)  # first, so it also warms the caches the passes use
    pass_walls, call_walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if len(pass_walls) >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            break
        wall = 0.0
        for i, call in enumerate(calls):
            dt, rc, peak, stdout = spawn(call, env, out_dir / f"{i:02d}")
            wall += dt
            call_walls.append(dt)
            rss.append(peak)
            ledger.record(i, checks.Output.collect(rc, stdout, call.stem), len(pass_walls))
        pass_walls.append(wall)
        log(f"pass {len(pass_walls)}: {wall:.3f} s over {len(calls)} calls")

    per_call = [ledger.check(i) for i in range(len(calls))]
    lambdas = sum(c.lambdas for c in per_call)
    examined = sum(c.examined for c in per_call)
    cells = sum(c.cells for c in per_call)
    graded = [c.agreement for c in per_call if c.agreement is not None]
    tail, pct, beyond = call_tail(call_walls, len(calls))
    log(f"call_tail_s: p{pct:.1f} of {len(call_walls)} calls, {beyond} beyond it"
        + ("" if beyond else " (the slowest call's median)"))
    log(f"failed_ratio: {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.4g}")
    if cells:
        band = sum(c.band for c in per_call)
        log(f"band_fraction: {band}/{cells} = {band / cells:.6g}")
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "call_tail_s": (tail, "s"),
        "lambdas_per_s": (statistics.median(lambdas / w for w in pass_walls), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup, "s"),
        "oracle_agreement": (min(graded) if graded else 1.0, "ratio"),
        "decided_fraction": (sum(c.decided for c in per_call) / examined if examined else 1.0, "ratio"),
    }
    detail = {"pass_walls": pass_walls, "call_walls": call_walls, "rss_mb": rss}
    return ledger, metrics, detail


# ---------------------------------------------------------------------------
# traced run


def import_times(env) -> dict:
    """Cumulative import times inside `import specpoint.cli`, median of SETUP_RUNS fresh runs."""
    script = str(Path(__file__).resolve().parent / "importtimes.py")
    runs = [json.loads(subprocess.run([sys.executable, script], cwd=ROOT, env=env, capture_output=True,
                                      text=True, check=True).stdout.splitlines()[-1])
            for _ in range(SETUP_RUNS)]
    return {metric: statistics.median(r[mod] for r in runs) for mod, metric in IMPORT_METRICS.items()}


def run_traced(calls, out_dir: Path, spans_path: Path) -> tuple:
    from tracing import LAYER_METRICS, Tracer

    imports = import_times(child_env())
    os.environ.pop("SPECPOINT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import specpoint.cli as cli

    ledger = Ledger(calls)
    walls, output_bytes = [], 0
    tracer = Tracer()
    # pass 0 warms up lazy set-up, so that the timed passes 1 (untraced) and 2 (traced) both find it done
    for pass_no in range(3):
        traced = tracer if pass_no == 2 else None
        if traced:
            tracer.install()
        t_start = time.perf_counter()
        try:
            wall = 0.0
            for i, call in enumerate(calls):
                tracer.call = i
                dt, rc, stdout = in_process(cli, call, out_dir / f"{i:02d}", traced)
                wall += dt
                out = checks.Output.collect(rc, stdout, call.stem)
                ledger.record(i, out, pass_no)
                if traced:
                    output_bytes += out.nbytes()
        finally:
            tracer.uninstall()
        walls.append(wall)
        log(f"{'traced' if traced else 'untraced'} in-process pass {pass_no}: {wall:.3f} s")
    if tracer.missing:
        log(f"not traced (absent from the program): {', '.join(tracer.missing)}")
    tracer.write_jsonl(spans_path, t_start)
    log(f"spans: {len(tracer.spans)} written to {spans_path}")

    tracer.counters.update(imports)
    tracer.counters["cli.output_bytes"] = output_bytes
    tracer.counters["trace.overhead_s"] = walls[2] - walls[1]
    values = tracer.metrics()
    units = dict(LAYER_METRICS)
    return ledger, {k: (values[k], units[k]) for k, _ in LAYER_METRICS}, {"pass_walls": walls}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specpoint" / "cli.py").is_file():
        print(f"error: no specpoint sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = environment()
    calls = workloads.build(args.workload, args.seed, out_dir)
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log("env " + json.dumps(env, sort_keys=True))
    for i, call in enumerate(calls):
        log(f"argv[{i}] specpoint " + " ".join(call.argv))

    if args.trace:
        ledger, metrics, detail = run_traced(calls, out_dir, OUT / f"{tag}.spans.jsonl")
    else:
        ledger, metrics, detail = run_untraced(calls, args.seconds, out_dir)
    for err in ledger.errors:
        log(f"FAILED pass {err['pass']} call {err['call']}: {'; '.join(err['errors'])}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "argv": [list(c.argv) for c in calls], "errors": ledger.errors,
        "metrics": {k: v for k, (v, _) in metrics.items()}, **detail,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
