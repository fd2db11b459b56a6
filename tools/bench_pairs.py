"""Paired benchmark runs: a parent commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --label pr8 --change "what the change does" \
        --workloads clutter study multi --seeds 1-10 --seconds 30 --traced 3

Both sides are exported with ``git archive`` into one temporary directory:
the parent commit (``--parent``, default HEAD) and the working tree, with its
uncommitted and untracked files, through a temporary index so that the
repository's own index is not touched.  For every workload and seed,
``perfbench/run.py`` runs once on each side, one side after the other, and
the side that runs first alternates from pair to pair, the parent first on
the first pair.  ``--traced N`` (N = 3 when given alone) then makes N traced
pairs (``--trace 1``) per workload, at the first N seeds, alternating sides
the same way.

``BENCH_<label>.json`` records every run's result and info lines and, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change's median over the parent's, the pairs the change
wins and ties, and ``claim_met``: whether the pairs would carry a claim of a
gain on that metric (``summarize``).  ``summary_info`` gives the same for
the wall-clock figures and the calibration kernel's time of the info lines (``INFO_METRICS``), so a
gain in the normalized metrics can be told from a shift of the kernel.
``summary_traced`` gives the same for each per-layer metric over the traced
pairs.  The ``machine`` record holds the first run's environment plus
``blas_core``, the OpenBLAS kernel that numpy runs on (:func:`blas_core`).
``src_lines`` holds each side's line count over ``src/**/*.py``
(:func:`src_lines`), so a change that deletes code is recorded beside the
timings that show what it costs.
The file is rewritten after every run, so an interrupted session keeps the
runs it made.

    python3 tools/bench_pairs.py --verify BENCH_pr8.json

checks that the working tree's ``src/`` (untracked files included) is the
``src/`` that the file's runs measured, that of its ``change_tree``: it
prints both tree ids and exits with status 0 when they are equal, 1 when
they differ and 2 when the recorded tree is not in the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# info-line figures summarized beside the metrics of BENCHMARK.json
INFO_METRICS = [
    {"name": "raw_scans_per_s", "better": "higher"},
    {"name": "raw_scan_ms_p50", "better": "lower"},
    {"name": "calibration_ms", "better": "lower"},
]


def blas_core() -> str:
    """The name of the OpenBLAS kernel that numpy runs here, such as "SkylakeX", or "unknown".

    numpy's OpenBLAS is built with DYNAMIC_ARCH and picks its kernel by CPU
    (or by ``OPENBLAS_CORETYPE``).  Small-matrix routines round differently
    under different kernels, so the filters' output bytes hold per kernel.
    Read through ctypes from ``scipy_openblas_get_corename64_`` of the
    library bundled with numpy; "unknown" when there is none or it lacks
    the symbol.
    """
    import ctypes

    import numpy

    for path in sorted(Path(numpy.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def src_lines(tree: Path) -> int:
    """The number of lines in the ``src/**/*.py`` files under tree."""
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").glob("**/*.py"))


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list like ``1-10,13``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, ratio of medians, wins, ties and claim verdict of paired values.

    ``parent[i]`` and ``change[i]`` are one pair; ``better`` is "higher" or
    "lower".  Quartiles are those of ``statistics.quantiles(method="inclusive")``.
    The ratio of medians is None when the parent's median is 0.
    ``claim_met`` says whether the values would carry a claim of a gain: the
    change wins at least nine tenths of the pairs (a tie counts for neither
    side), and its median is better than the parent's by more than the
    distance between the parent's quartiles.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    out = {"better": better}
    for side, vals in zip(SIDES, (parent, change)):
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
        out.update({f"{side}_median": med, f"{side}_q1": q1, f"{side}_q3": q3})
    out["change_over_parent"] = out["change_median"] / out["parent_median"] if out["parent_median"] else None
    sign = 1.0 if better == "higher" else -1.0
    out["change_wins"] = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    out["ties"] = sum(c == p for p, c in zip(parent, change))
    gap = sign * (out["change_median"] - out["parent_median"])
    out["claim_met"] = 10 * out["change_wins"] >= 9 * len(parent) and gap > out["parent_q3"] - out["parent_q1"]
    out["parent"], out["change"] = list(parent), list(change)
    return out


def summarize_runs(runs: list[dict], metrics: list[dict], line: str = "result") -> dict:
    """Per workload, the pairs of successful runs and ``summarize`` of each metric.

    ``line`` is "result" for the metrics of the result line or "info" for
    figures of the info line.
    """
    by_key = {(r["side"], r["workload"], r["seed"]): r for r in runs if r["exit"] == 0 and r["result"]}
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = [s for (side, w, s) in by_key if side == "parent" and w == workload
                 and ("change", w, s) in by_key]
        if not seeds:
            continue
        entry: dict = {"pairs": len(seeds)}
        for metric in metrics:
            name = metric["name"]
            vals = {side: [_value(by_key[(side, workload, s)], line, name) for s in seeds] for side in SIDES}
            entry[name] = summarize(vals["parent"], vals["change"], metric["better"])
        summary[workload] = entry
    return summary


def _value(run: dict, line: str, name: str) -> float:
    if line == "info":
        return run["info"][name]
    return run["result"]["metrics"][name]["value"]


def pair_schedule(workloads: list[str], seeds: list[int]) -> list[tuple[str, int, tuple[str, str]]]:
    """(workload, seed, side order) of each pair; the side that runs first alternates, parent first."""
    pairs = [(w, s) for w in workloads for s in seeds]
    return [(w, s, SIDES if n % 2 == 0 else SIDES[::-1]) for n, (w, s) in enumerate(pairs)]


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, check=True).stdout


def export_tree(tree: str, dest: Path) -> None:
    """Write the files of a commit or tree (anything ``git archive`` takes) under dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", tree))) as tar:
        tar.extractall(dest, filter="data")


def _worktree_tree() -> str:
    """The tree id of the working tree, untracked files included, as ``git add -A`` would stage it."""
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index"
        real = ROOT / _git("rev-parse", "--git-path", "index").decode().strip()
        if real.is_file():
            shutil.copyfile(real, index)
        env = {**os.environ, "GIT_INDEX_FILE": str(index)}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def _src_tree(tree: str) -> str | None:
    """The id of the ``src`` subtree of a tree, or None when git cannot read it."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{tree}:src"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def verify(path: Path) -> int:
    """Exit status of ``--verify``: whether the working tree's src/ is that of the record's change_tree."""
    record = json.loads(path.read_text())
    recorded = _src_tree(record["change_tree"])
    current = _src_tree(_worktree_tree())
    print(f"src/ of change_tree {record['change_tree']}: {recorded or 'not in this repository'}")
    print(f"src/ of the working tree: {current}")
    if recorded is None:
        return 2
    same = recorded == current
    print("equal" if same else "DIFFERENT: the runs measured another src/")
    return 0 if same else 1


def run_perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in ``tree``: exit code, wall time and its last two output lines."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    wall = round(time.perf_counter() - t0, 1)
    lines = proc.stdout.strip().splitlines()
    result = info = None
    if proc.returncode == 0 and len(lines) >= 2:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    elif proc.stderr:
        print(proc.stderr, file=sys.stderr)
    return {"exit": proc.returncode, "wall_s": wall, "result": result, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--change", help="one line saying what the change does")
    parser.add_argument("--verify", metavar="BENCH_JSON", type=Path,
                        help="only check that the working tree's src/ is the one the file measured")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--workloads", nargs="+", default=["study", "clutter", "multi"])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--traced", type=int, nargs="?", const=3, default=0, metavar="N",
                        help="add N traced pairs per workload (3 when N is not given)")
    args = parser.parse_args(argv)
    if args.verify:
        return verify(args.verify)
    if not (args.label and args.change):
        parser.error("--label and --change are required unless --verify is given")
    if not 0 <= args.traced <= len(args.seeds):
        parser.error(f"--traced takes 0 to {len(args.seeds)} pairs, one per seed")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, layer_metrics = bench["end_to_end"], bench["per_layer"]
    parent_commit = _git("rev-parse", f"{args.parent}^{{commit}}").decode().strip()
    out_path = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent_commit,
        "change_tree": _worktree_tree(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "machine": None,
        "src_lines": None,
        "protocol": (
            "parent and change exported side by side with git archive on one machine; one pair per "
            f"(workload, seed), seeds {args.seeds[0]}-{args.seeds[-1]} ({len(args.seeds)} pairs per "
            "workload), the side that runs first alternating from pair to pair (parent first on the "
            "first pair)" + (f"; {args.traced} traced pairs (--trace 1) per workload at the first "
                             f"{args.traced} seeds, alternating the same way" if args.traced else "")
        ),
        "summary": {},
        "summary_info": {},
        "summary_traced": {},
        "runs": [],
        "traced_runs": [],
    }

    def save():
        record["summary"] = summarize_runs(record["runs"], metrics)
        record["summary_info"] = summarize_runs(record["runs"], INFO_METRICS, "info")
        record["summary_traced"] = summarize_runs(record["traced_runs"], layer_metrics)
        out_path.write_text(json.dumps(record, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_tree(parent_commit, trees["parent"])
        export_tree(record["change_tree"], trees["change"])
        record["src_lines"] = {side: src_lines(trees[side]) for side in SIDES}
        for workload, seed, order in pair_schedule(args.workloads, args.seeds):
            for side in order:
                run = run_perfbench(trees[side], workload, seed, args.seconds, 0)
                record["runs"].append({"side": side, "workload": workload, "seed": seed,
                                       "ran_first": side == order[0], **run})
                if record["machine"] is None and run["info"]:
                    record["machine"] = {**run["info"]["env"], "blas_core": blas_core()}
                value = run["result"]["metrics"]["scans_per_s"]["value"] if run["result"] else None
                print(f"{workload} seed={seed} {side}: exit {run['exit']}, scans_per_s {value}",
                      file=sys.stderr)
                save()
        for workload, seed, order in pair_schedule(args.workloads, args.seeds[: args.traced]):
            for side in order:
                run = run_perfbench(trees[side], workload, seed, args.seconds, 1)
                record["traced_runs"].append({"side": side, "workload": workload, "seed": seed,
                                              "ran_first": side == order[0], **run})
                print(f"{workload} traced seed={seed} {side}: exit {run['exit']}", file=sys.stderr)
                save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
