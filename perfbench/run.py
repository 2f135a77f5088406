"""cvpbt benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  With `--trace 0` the run repeats the workload's job list for
`--seconds` seconds of measured time and reports the end-to-end metrics.
With `--trace 1` it spends half of that time untraced and half with
every layer wrapped, and reports the per-layer metrics.  Every output is
checked outside the timed region; the gates run once at the end.  The
last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5

SETUP_CODE = """\
import time
start = time.perf_counter()
import cvpbt.cli as cli
build = getattr(cli, "_build_parser", None)
if build is not None:
    build()
print(time.perf_counter() - start)
"""


def find_source(root: Path) -> Path | None:
    src = root / "src"
    return src if (src / "cvpbt" / "__init__.py").is_file() else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            return int(value) if value.isdigit() else value
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path):
    """Commit of a git checkout, read from files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_facts(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    from cvpbt import cli

    workers = None
    build = getattr(cli, "_build_parser", None)
    if build is not None:
        _, subparsers = build()
        workers = subparsers["fidelity-sweep"].get_default("workers")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cli_default_workers": workers,
        "seed": seed,
        "commit": git_commit(root),
    }


def setup_samples(src: Path, count: int) -> list[float]:
    """Seconds for a fresh interpreter to import cvpbt.cli and build its
    parser; one extra first import writes the bytecode cache and is dropped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for _ in range(count + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=src.parent,
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out[1:]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed jobs of one run, with the first repetition's
    output fingerprints that later repetitions must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)


def run_rep(workload, tracer=None):
    """One timed pass over the job list; returns its wall time, the seconds
    spent in each part's jobs, and the job results."""
    import layers

    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    results = []
    parts = dict.fromkeys((job.part for job in workload.jobs), 0.0)
    start = time.perf_counter()
    with span(layers.REP_SPAN):
        for job in workload.jobs:
            job_start = time.perf_counter()
            with span(layers.JOB_SPAN):
                try:
                    results.append((True, job.run()))
                except Exception:
                    results.append((False, traceback.format_exc()))
            parts[job.part] += time.perf_counter() - job_start
    return time.perf_counter() - start, parts, results


def check_rep(workload, results, ledger: Ledger) -> None:
    for job, (ran, result) in zip(workload.jobs, results):
        ledger.attempted += 1
        if not ran:
            ledger.fail(job.name, result)
            continue
        try:
            fingerprint = job.check(result)
        except Exception as exc:  # a failed check or a crash inside it
            ledger.fail(job.name, f"{type(exc).__name__}: {exc}")
            continue
        first = ledger.fingerprints.setdefault(job.name, fingerprint)
        if fingerprint != first:
            ledger.fail(job.name, "output differs from the first repetition")


def measure(workload, seconds: float, ledger: Ledger, tracer=None, on_rep=None):
    """Repeat the job list until `seconds` of measured time have passed
    (at least once); returns each repetition's wall time and part times."""
    walls, parts = [], []
    while not walls or sum(walls) < seconds:
        if tracer is not None:
            tracer.reset()
        wall, part_seconds, results = run_rep(workload, tracer)
        walls.append(wall)
        parts.append(part_seconds)
        if on_rep is not None:
            on_rep()
        check_rep(workload, results, ledger)
        del results  # so that peak memory is one repetition's, not two
    return walls, parts


def run_gates(workload, ledger: Ledger) -> None:
    for name, gate in workload.gates:
        ledger.attempted += 1
        try:
            gate()
        except Exception as exc:
            ledger.fail(f"gate {name}", f"{type(exc).__name__}: {exc}")


def end_to_end(workload, walls, setup, ledger) -> dict:
    rates = [workload.points / w for w in walls]
    return {
        "wall_s": (walls, "s"),
        "points_per_s": (rates, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
        "ok_frac": ([1.0 - ledger.failed / ledger.attempted], "frac"),
    }


def per_layer(walls, parts, traced_walls, rep_metrics) -> dict:
    import layers
    import workloads

    out = {}
    for key in layers.TIME_METRICS:
        out[key] = ([m[key] for m in rep_metrics], "s")
    for key in layers.COUNT_METRICS:
        out[key] = ([m[key] for m in rep_metrics], "count")
    for name in workloads.PARTS:
        out[f"part.{name}_s"] = ([p.get(name, 0.0) for p in parts], "s")
    out["trace.wall_s"] = (traced_walls, "s")
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    out["trace.overhead_frac"] = ([overhead], "frac")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = find_source(ROOT)
    if src is None:
        print(f"error: no cvpbt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    started = time.perf_counter()
    facts = machine_facts(ROOT, args.seed)
    setup = setup_samples(src, SETUP_SAMPLES) if args.trace == 0 else []
    setup_done = time.perf_counter()
    ledger = Ledger()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as outdir:
        workload = workloads.make(args.workload, args.seed, Path(outdir), ROOT)
        if args.trace == 0:
            walls, parts = measure(workload, args.seconds, ledger)
        else:
            walls, parts = measure(workload, args.seconds / 2, ledger)
            tracer = Tracer()
            tracer.install(layers.targets())
            rep_metrics = []

            def collect():
                rep_metrics.append(layers.rep_metrics(tracer.spans, tracer.counts, tracer.metric_of))

            try:
                traced_walls, _ = measure(workload, args.seconds / 2, ledger, tracer, collect)
            finally:
                tracer.uninstall()
            if tracer.absent:
                print(f"# absent names: {', '.join(tracer.absent)}")
        gates_start = time.perf_counter()
        run_gates(workload, ledger)
        gates_done = time.perf_counter()
    if args.trace == 0:
        metrics = end_to_end(workload, walls, setup, ledger)
    else:
        metrics = per_layer(walls, parts, traced_walls, rep_metrics)

    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {workload.name}: {len(workload.jobs)} jobs, {workload.points} points per repetition, "
          f"inputs {json.dumps(workload.inputs, sort_keys=True)}")
    print(f"# attempted {ledger.attempted}, failed {ledger.failed}, "
          f"failed_frac {ledger.failed / ledger.attempted:.6g}")
    for key, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        print(f"# {key:28s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    print(f"# repetition walls {' '.join(f'{w:.4f}' for w in walls)}")
    for name in parts[0]:
        values = [p[name] for p in parts]
        print(f"# part {name}: median {statistics.median(values):.4f} s per repetition, "
              f"{sum(job.points for job in workload.jobs if job.part == name)} points")
    print(f"# phases: facts and setup {setup_done - started:.2f} s, measuring {gates_start - setup_done:.2f} s, "
          f"gates {gates_done - gates_start:.2f} s")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": statistics.median(values), "unit": unit} for key, (values, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
