"""possitrack benchmark: end-to-end and per-layer metrics of the three filters.

Run from the repository root:

    python3 perfbench/run.py --workload clutter --seed 1 --seconds 20 --trace 0

Workloads are described in workloads.py and metrics in README.md.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the environment, the seed and the failures.

Before any timing the demo study must reproduce the golden CSVs in
tests/data byte for byte; otherwise nothing is reported and the exit code
is 1.  Exit code 2 means the program or its golden files are missing.
"""

from __future__ import annotations

import os

# pin BLAS threading for this process (and its set-up probes) before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data"
SPAN_DIR = ROOT / ".perfbench_out"

# set-up probes before and after the measurement, so that the median spans
# the run's time window
SETUP_REPEATS = 4
# One timed set-up in a fresh interpreter: import, parameter build and
# pre-generation of every scan record, then the calibration kernel three
# times.  argv: src dir, benchmark dir, workload, seed, seconds.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), False)
setup = time.perf_counter() - t0
print(setup, *(workloads.calibrate() for _ in range(3)))
"""

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "clutter", "multi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _golden_preflight(tmp: Path) -> bool:
    from possitrack.bench import demo_config, emit_results, run_benchmark

    paths = emit_results(run_benchmark(demo_config()), tmp / "golden")
    golden = (GOLDEN / "demo_per_time.csv", GOLDEN / "demo_summary.csv")
    return all(out.read_bytes() == ref.read_bytes() for out, ref in zip(paths, golden))


def _setup_times(workload: str, seed: int, seconds: int) -> list[tuple[float, float]]:
    """(set-up time, median calibration time) of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed), str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, *cal = (float(v) for v in proc.stdout.split())
        times.append((setup, statistics.median(cal)))
    return times


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("POSSITRACK_LOG", "WARNING").upper(), stream=sys.stderr)
    args = _parse_args(argv)
    needed = [SRC / "possitrack" / "__init__.py", GOLDEN / "demo_per_time.csv", GOLDEN / "demo_summary.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from timing import CAL_REF_S, Tracer

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        if not _golden_preflight(tmp):
            print("perfbench: demo study does not reproduce tests/data golden CSVs; not reporting",
                  file=sys.stderr)
            return 1
        trace = bool(args.trace)
        setup = [] if trace else _setup_times(args.workload, args.seed, args.seconds)
        tracer = Tracer() if trace else None
        inputs = workloads.prepare(args.workload, args.seed, args.seconds, trace, tracer)
        outcome = workloads.run(inputs, tmp, tracer)
        if not trace:
            setup += _setup_times(args.workload, args.seed, args.seconds)

    if not outcome.metrics:
        print(json.dumps({"workload": args.workload, "failures": outcome.info.get("failures")}))
        print("perfbench: no metrics: every scan failed", file=sys.stderr)
        return 1
    metrics = dict(outcome.metrics)
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans_{args.workload}_{args.seed}.jsonl")
    else:
        # at the reference speed, like the other timings
        metrics["setup_s"] = (statistics.median(s * CAL_REF_S / c for s, c in setup), "s")
        outcome.info["raw_setup_s"] = statistics.median(s for s, _ in setup)
        outcome.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "units": workloads.n_units(args.workload, args.seconds, trace),
            "env": _environment(), **outcome.info}
    print(json.dumps(info))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
