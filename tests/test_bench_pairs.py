"""Tests for the summary of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_and_ties_in_the_better_direction():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 2.0, 4.0, 5.0, 6.0]
    up = bench_pairs.summarize(parent, change, "higher")
    assert (up["parent_q1"], up["parent_median"], up["parent_q3"]) == (2.0, 3.0, 4.0)
    assert (up["change_q1"], up["change_median"], up["change_q3"]) == (2.0, 4.0, 5.0)
    assert up["change_over_parent"] == 4.0 / 3.0
    assert (up["change_wins"], up["ties"]) == (4, 1)
    assert up["parent"] == parent and up["change"] == change and up["better"] == "higher"
    down = bench_pairs.summarize(parent, change, "lower")
    assert (down["change_wins"], down["ties"]) == (0, 1)


def test_summarize_interpolates_quartiles_and_takes_one_pair():
    s = bench_pairs.summarize([10.0, 20.0, 30.0, 40.0], [1.0, 1.0, 1.0, 1.0], "lower")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (17.5, 25.0, 32.5)
    assert s["change_wins"] == 4
    one = bench_pairs.summarize([2.0], [1.0], "lower")
    assert one["parent_q1"] == one["parent_median"] == one["parent_q3"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [], "lower")


def _run(side, workload, seed, value, exit_code=0):
    result = {"metrics": {"scans_per_s": {"value": value}}} if exit_code == 0 else None
    return {"side": side, "workload": workload, "seed": seed, "exit": exit_code, "result": result}


def test_summarize_runs_pairs_by_seed_and_skips_failed_runs():
    runs = [
        _run("parent", "clutter", 1, 100.0), _run("change", "clutter", 1, 130.0),
        _run("change", "clutter", 2, 120.0), _run("parent", "clutter", 2, 110.0),
        _run("parent", "clutter", 3, 90.0), _run("change", "clutter", 3, 0.0, exit_code=1),
        _run("parent", "multi", 1, 50.0),
    ]
    summary = bench_pairs.summarize_runs(runs, [{"name": "scans_per_s", "better": "higher"}])
    assert list(summary) == ["clutter"]
    entry = summary["clutter"]
    assert entry["pairs"] == 2
    assert entry["scans_per_s"]["parent"] == [100.0, 110.0]
    assert entry["scans_per_s"]["change"] == [130.0, 120.0]
    assert entry["scans_per_s"]["change_wins"] == 2


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("5") == [5]
