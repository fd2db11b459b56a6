"""Tests for tools/bench_pairs.py: the summary, on fixed numbers, and --verify."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
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


# ten parent values with quartiles 102.25 and 106.75: a spread of 4.5
PARENT = [100.0 + i for i in range(10)]


def test_claim_needs_nine_of_ten_wins_ties_counting_for_neither():
    nine = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    assert bench_pairs.summarize(PARENT, nine, "higher")["claim_met"]
    nine_and_a_tie = [p + 10.0 for p in PARENT[:9]] + [PARENT[9]]
    s = bench_pairs.summarize(PARENT, nine_and_a_tie, "higher")
    assert (s["change_wins"], s["ties"], s["claim_met"]) == (9, 1, True)
    eight = [p + 10.0 for p in PARENT[:8]] + [PARENT[8], PARENT[9] - 1.0]
    s = bench_pairs.summarize(PARENT, eight, "higher")
    assert (s["change_wins"], s["claim_met"]) == (8, False)


def test_claim_needs_a_median_gap_beyond_the_parent_quartile_spread():
    s = bench_pairs.summarize(PARENT, [p + 4.5 for p in PARENT], "higher")
    assert s["parent_q3"] - s["parent_q1"] == 4.5 == s["change_median"] - s["parent_median"]
    assert s["change_wins"] == 10 and not s["claim_met"]
    assert bench_pairs.summarize(PARENT, [p + 4.75 for p in PARENT], "higher")["claim_met"]


def test_claim_reads_lower_is_better():
    faster = [p - 10.0 for p in PARENT]
    assert bench_pairs.summarize(PARENT, faster, "lower")["claim_met"]
    assert not bench_pairs.summarize(PARENT, faster, "higher")["claim_met"]
    s = bench_pairs.summarize(PARENT, [p - 4.5 for p in PARENT], "lower")
    assert s["change_wins"] == 10 and not s["claim_met"]


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


def _info_run(side, seed, raw_rate, cal_ms):
    info = {"raw_scans_per_s": raw_rate, "raw_scan_ms_p50": 1e3 / raw_rate, "calibration_ms": cal_ms}
    return {**_run(side, "study", seed, 2.0 * raw_rate), "info": info}


def test_summarize_runs_reads_the_wall_clock_figures_of_the_info_lines():
    runs = [
        _info_run("parent", 1, 800.0, 8.0), _info_run("change", 1, 1250.0, 9.0),
        _info_run("parent", 2, 1000.0, 7.0), _info_run("change", 2, 1600.0, 6.0),
        _info_run("parent", 3, 500.0, 9.0), _info_run("change", 3, 400.0, 8.0),
    ]
    entry = bench_pairs.summarize_runs(runs, bench_pairs.INFO_METRICS, "info")["study"]
    assert entry["pairs"] == 3
    raw = entry["raw_scans_per_s"]
    assert raw["better"] == "higher" and raw["parent"] == [800.0, 1000.0, 500.0]
    assert (raw["parent_median"], raw["change_median"], raw["change_wins"]) == (800.0, 1250.0, 2)
    p50 = entry["raw_scan_ms_p50"]
    assert p50["better"] == "lower" and p50["change"] == [0.8, 0.625, 2.5] and p50["change_wins"] == 2
    cal = entry["calibration_ms"]
    assert (cal["parent_q1"], cal["parent_median"], cal["parent_q3"]) == (7.5, 8.0, 8.5)
    assert (cal["change_wins"], cal["ties"]) == (2, 0)
    # the result line of the same runs is untouched
    normalized = bench_pairs.summarize_runs(runs, [{"name": "scans_per_s", "better": "higher"}])
    assert normalized["study"]["scans_per_s"]["parent"] == [1600.0, 2000.0, 1000.0]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("5") == [5]


def test_pair_schedule_alternates_the_side_that_runs_first():
    schedule = bench_pairs.pair_schedule(["clutter", "study"], [1, 2, 3])
    assert [(w, s) for w, s, _ in schedule] == [
        ("clutter", 1), ("clutter", 2), ("clutter", 3), ("study", 1), ("study", 2), ("study", 3),
    ]
    parent_first = ("parent", "change")
    assert [order == parent_first for _, _, order in schedule] == [True, False, True, False, True, False]
    assert bench_pairs.pair_schedule(["clutter"], []) == []


def _traced(side, seed, merge_ms):
    metrics = {"mixtures.merge_ms": {"value": merge_ms}, "intensity.update_ms": {"value": 0.0}}
    return {"side": side, "workload": "clutter", "seed": seed, "exit": 0, "result": {"metrics": metrics}}


def test_summarize_runs_gives_medians_and_wins_of_traced_per_layer_metrics():
    runs = [
        _traced("parent", 1, 4.0), _traced("change", 1, 3.0),
        _traced("change", 2, 3.5), _traced("parent", 2, 3.6),
        _traced("parent", 3, 4.4), _traced("change", 3, 3.2),
    ]
    layers = [{"name": n, "better": "lower"} for n in ("mixtures.merge_ms", "intensity.update_ms")]
    entry = bench_pairs.summarize_runs(runs, layers)["clutter"]
    assert entry["pairs"] == 3
    merge_ms = entry["mixtures.merge_ms"]
    assert (merge_ms["parent_q1"], merge_ms["parent_median"], merge_ms["parent_q3"]) == (3.8, 4.0, 4.2)
    assert (merge_ms["change_q1"], merge_ms["change_median"], merge_ms["change_q3"]) == (3.1, 3.2, 3.35)
    assert merge_ms["change_over_parent"] == 3.2 / 4.0
    assert (merge_ms["change_wins"], merge_ms["ties"]) == (3, 0)
    # a layer the workload does not run reads 0 on both sides: no ratio, all ties
    idle = entry["intensity.update_ms"]
    assert idle["change_over_parent"] is None and idle["ties"] == 3


def test_verify_compares_the_working_tree_src_with_the_recorded_one(tmp_path, monkeypatch, capsys):
    # a repository of its own: its src/ is recorded, then changed
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "m.py").write_text("x = 1\n")
    (repo / "notes.md").write_text("a\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    record = tmp_path / "BENCH_x.json"
    record.write_text(json.dumps({"change_tree": bench_pairs._worktree_tree()}))
    assert bench_pairs.main(["--verify", str(record)]) == 0
    # a change outside src/ is not measured by the runs
    (repo / "notes.md").write_text("b\n")
    assert bench_pairs.main(["--verify", str(record)]) == 0
    (repo / "src" / "m.py").write_text("x = 2\n")
    assert bench_pairs.main(["--verify", str(record)]) == 1
    (repo / "src" / "m.py").write_text("x = 1\n")
    (repo / "src" / "new.py").write_text("")  # untracked files count
    assert bench_pairs.main(["--verify", str(record)]) == 1
    assert "DIFFERENT" in capsys.readouterr().out
    record.write_text(json.dumps({"change_tree": "0" * 40}))
    assert bench_pairs.main(["--verify", str(record)]) == 2
    assert "not in this repository" in capsys.readouterr().out


def test_blas_core_names_the_kernel_of_numpys_openblas(monkeypatch, tmp_path):
    core = bench_pairs.blas_core()
    assert isinstance(core, str) and core and core == bench_pairs.blas_core()
    # numpy without a bundled OpenBLAS, or one without the symbol: "unknown"
    fake = tmp_path / "numpy"
    fake.mkdir()
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-fake.so").write_bytes(b"not a library")
    monkeypatch.setattr(np, "__file__", str(fake / "__init__.py"))
    assert bench_pairs.blas_core() == "unknown"


def test_src_lines_counts_the_lines_of_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3")  # no newline at the end
    (tmp_path / "src" / "notes.txt").write_text("not counted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3
