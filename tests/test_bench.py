"""Tests for the benchmark harness and its CLI.

tests/data/demo_per_time.csv and demo_summary.csv were generated once from
demo_config() and frozen; the determinism tests compare bytes against them.
tests/data/clutter10_*.csv and clutter30_*.csv were generated and frozen the
same way from small studies at lambda = 10 and 30, where the update builds
hundreds to thousands of branches and prune, dominance reduction and merge
all act.
"""

import concurrent.futures
import csv
import json
import multiprocessing
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from possitrack import bench
from possitrack.bench import (
    BASELINE,
    PER_TIME_HEADER,
    PROPOSED,
    SUMMARY_HEADER,
    BenchConfig,
    BenchResult,
    config_from_dict,
    default_config,
    demo_config,
    emit_results,
    load_config,
    make_run,
    run_benchmark,
)
from possitrack.cli import main
from possitrack.ipda import IpdaState, ipda_estimate
from possitrack.mixtures import MaxMixture, NumericalError
from possitrack.scenario import ScenarioConfig, error_at
from possitrack.single_target import ExtendedPossibility, estimate

DATA = Path(__file__).parent / "data"


def _read_rows(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -------------------------------------------------------------------- config


def test_default_config_covers_full_study():
    cfg = default_config()
    assert cfg.lambda_list == (1.0, 5.0, 10.0)
    assert len(cfg.threshold_sweep) == 8
    assert cfg.n_runs == 100


def test_config_from_every_field_by_name():
    # every key a config file may hold, with demo_config()'s values, in JSON's types
    cfg = demo_config()
    data = {f.name: getattr(cfg.scenario, f.name) for f in fields(ScenarioConfig)}
    data.update({f.name: getattr(cfg, f.name) for f in fields(BenchConfig) if f.name != "scenario"})
    data = json.loads(json.dumps(data))
    assert config_from_dict(data) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown configuration keys"):
        config_from_dict({"a_df": 0.2, "typo_key": 1})


def test_config_accepts_scenario_and_bench_keys_mixed():
    cfg = config_from_dict({"lambda_fp": 5.0, "n_runs": 2, "a_df": 0.3})
    assert cfg.scenario.lambda_fp == 5.0
    assert cfg.n_runs == 2
    assert cfg.a_df == 0.3


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_runs": 3, "lambda_list": [2.0]}))
    cfg = load_config(path)
    assert cfg.n_runs == 3
    assert tuple(cfg.lambda_list) == (2.0,)


def test_parameter_objects_reflect_scalars():
    cfg = demo_config()
    p = cfg.proposed_params()
    assert p.missed_detection == cfg.a_df
    assert p.disappearance == cfg.a_omega
    assert p.remain_absent == cfg.a_alpha
    assert p.survival == cfg.a_pi
    b = cfg.baseline_params(5.0)
    assert b.p_detect == cfg.p_d
    assert b.clutter_rate == 5.0
    assert b.surveillance_volume == pytest.approx(20.0)


# ----------------------------------------------------------------- scenarios


def test_make_run_is_deterministic_and_paired():
    cfg = ScenarioConfig()
    t1, o1 = make_run(cfg, 5.0, base_seed=11, lambda_index=0, run=4)
    t2, o2 = make_run(cfg, 5.0, base_seed=11, lambda_index=0, run=4)
    assert o1.steps == o2.steps
    for a, b in zip(t1.states, t2.states):
        if a is None:
            assert b is None
        else:
            np.testing.assert_array_equal(a, b)
    # different run index gives different data
    _, o3 = make_run(cfg, 5.0, base_seed=11, lambda_index=0, run=5)
    assert o1.steps != o3.steps


# ----------------------------------------------------------------- benchmark


def test_demo_benchmark_matches_golden_files(tmp_path):
    res = run_benchmark(demo_config())
    per_time, summary = emit_results(res, tmp_path)
    assert per_time.read_bytes() == (DATA / "demo_per_time.csv").read_bytes()
    assert summary.read_bytes() == (DATA / "demo_summary.csv").read_bytes()


@pytest.mark.parametrize("lam, n_runs", [(10, 3), (30, 2)], ids=["10", "30"])
def test_clutter_benchmark_matches_golden_files(tmp_path, lam, n_runs):
    cfg = BenchConfig(
        lambda_list=(float(lam),), threshold_sweep=(0.2, 0.5, 0.8), n_runs=n_runs, base_seed=7
    )
    per_time, summary = emit_results(run_benchmark(cfg), tmp_path)
    assert per_time.read_bytes() == (DATA / f"clutter{lam}_per_time.csv").read_bytes()
    assert summary.read_bytes() == (DATA / f"clutter{lam}_summary.csv").read_bytes()


def test_benchmark_rerun_is_byte_identical(tmp_path):
    cfg = BenchConfig(
        lambda_list=(1.0,), threshold_sweep=(0.5,), n_runs=2, base_seed=3
    )
    p1, s1 = emit_results(run_benchmark(cfg), tmp_path / "a")
    p2, s2 = emit_results(run_benchmark(cfg), tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_benchmark_table_shapes():
    cfg = BenchConfig(lambda_list=(1.0,), threshold_sweep=(0.3, 0.6), n_runs=1)
    res = run_benchmark(cfg)
    n_t = cfg.scenario.t_end + 1
    # 2 filters x 1 rate x 2 thresholds
    assert len(res.summary) == 4
    assert len(res.per_time) == 4 * n_t
    for row in res.summary:
        assert len(row) == len(SUMMARY_HEADER)
        assert row[0] in (PROPOSED, BASELINE)
    for row in res.per_time:
        assert len(row) == len(PER_TIME_HEADER)


def test_benchmark_clean_regime_tracks_tightly():
    # perfect detection, no false positives, low confirmation threshold: the
    # time-averaged error over the presence window stays near the
    # estimation-noise level (well under half the saturation constant)
    cfg = BenchConfig(
        scenario=ScenarioConfig(p_detect=1.0),
        lambda_list=(0.0,),
        threshold_sweep=(0.1,),
        n_runs=20,
        base_seed=2,
    )
    res = run_benchmark(cfg)
    rows = {
        (r[0], r[3]): r[4] for r in res.per_time  # (filter, t) -> mean error
    }
    birth, death = cfg.scenario.t_birth, cfg.scenario.t_death
    for name in (PROPOSED, BASELINE):
        window = [rows[(name, t)] for t in range(birth, death + 1)]
        assert float(np.mean(window)) < 0.5, f"{name} failed to lock on clean data"


# ------------------------------------------------------------ parallel cells


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("cpus", [3, 1])
@pytest.mark.parametrize("name", ["demo", "clutter10"])
def test_goldens_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, cpus, name):
    _use_cpus(monkeypatch, cpus)
    if cpus == 1:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    cfg = demo_config() if name == "demo" else BenchConfig(
        lambda_list=(10.0,), threshold_sweep=(0.2, 0.5, 0.8), n_runs=3, base_seed=7
    )
    per_time, summary = emit_results(run_benchmark(cfg), tmp_path)
    assert multiprocessing.active_children() == []
    assert per_time.read_bytes() == (DATA / f"{name}_per_time.csv").read_bytes()
    assert summary.read_bytes() == (DATA / f"{name}_summary.csv").read_bytes()


def test_progress_gets_the_serial_messages_in_order(monkeypatch):
    _use_cpus(monkeypatch, 2)
    cfg = BenchConfig(lambda_list=(1.0, 5.0), threshold_sweep=(0.5,), n_runs=3)
    messages = []
    run_benchmark(cfg, progress=messages.append)
    assert messages == [f"lambda={lam} run={run}/3" for lam in (1, 5) for run in (1, 2, 3)]


def _first_breaking_scan(cfg, li):
    # with no detections, the first clutter point gives a singular birth covariance
    _, obs = make_run(cfg.scenario, cfg.lambda_list[li], cfg.base_seed, li, 0)
    return next(t for t, ys in enumerate(obs.steps) if ys)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_cell_error_names_its_cell(monkeypatch, cpus):
    # cell 0 (rate 0, the caller's) sees no observation; cells 1 and 2 break
    # in a worker, and the first of them in cell order is the one reported
    _use_cpus(monkeypatch, cpus)
    cfg = BenchConfig(
        scenario=ScenarioConfig(p_detect=0.0, r_obs=1e-200), lambda_list=(0.0, 1.0, 2.0), n_runs=1
    )
    messages = []
    with pytest.raises(NumericalError) as info:
        run_benchmark(cfg, progress=messages.append)
    t = _first_breaking_scan(cfg, 1)
    assert str(info.value).startswith(f"lambda=1 run=0 t={t} seed={cfg.base_seed}: birth covariance")
    assert messages == ["lambda=0 run=1/1"]
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------- threshold sweep


def _loop_estimate(state, tau_c):
    """``estimate`` as it ranked the state for each threshold on its own."""
    mix = state.on_s
    ws = mix.weights
    if not ws.size:
        return None
    ranked = np.lexsort((np.trace(mix.covs, axis1=1, axis2=2), -ws))
    w1 = ws[ranked[0]]
    w2 = ws[ranked[1]] if ws.size > 1 else mix.flat_weight
    if w1 > state.psi_mass and (w1 - w2) > tau_c:
        return mix.means[ranked[0]].copy()
    return None


def _loop_ipda_estimate(state, tau_conf):
    """``ipda_estimate`` as it ranked the state for each threshold on its own."""
    if state.existence > tau_conf and state.n_components:
        return state.means[int(np.argmax(state.weights))].copy()
    return None


def _loop_cell(cfg, truth, states):
    """The errors of a cell by the per-threshold loop: every threshold ranks
    each state again and calls error_at."""
    errors = np.zeros((2, len(cfg.threshold_sweep), len(states)))
    for t, (st, ip) in enumerate(states):
        for ti, tau in enumerate(cfg.threshold_sweep):
            errors[0, ti, t] = error_at(t, _loop_estimate(st, tau), truth, cfg.c_err)
            errors[1, ti, t] = error_at(t, _loop_ipda_estimate(ip, tau), truth, cfg.c_err)
    return errors


def _pf_state(psi, weights, positions, traces=None, flat=0.0):
    """A possibility state whose terms sit at ``positions`` with covariance
    traces ``traces`` (2 each by default)."""
    if not weights:
        return ExtendedPossibility(psi, MaxMixture(flat_weight=flat))
    traces = [2.0] * len(weights) if traces is None else traces
    covs = [np.eye(2) * (tr / 2) for tr in traces]
    return ExtendedPossibility(psi, MaxMixture(weights, [[x, 0.0] for x in positions], covs, flat))


def _ipda_state(existence, weights=(), positions=()):
    if not weights:
        return IpdaState(existence, [], [], [], diffuse_weight=1.0)
    return IpdaState(existence, weights, [[x, 0.0] for x in positions], [np.eye(2)] * len(weights))


# thresholds met exactly by the margins below: 0 (w1 = w2), 0.25 (0.75
# against a flat weight of 0.5), 0.5 (1.0 against 0.5; an existence of 0.5)
TIE_SWEEP = (0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.9)
# (possibility state, IPDA state) of one step; each pair puts at least one
# filter exactly on a threshold of TIE_SWEEP or on its absence mass
TIE_STEPS = {
    # equal top weights, the second with the smaller trace: margin 0 = tau
    "top_weights_tie": (_pf_state(0.1, [0.8, 0.8, 0.3], [4.0, 1.0, 2.0], [3.0, 2.0, 2.0]),
                        _ipda_state(0.9, [0.5, 0.5], [3.0, 1.0])),
    # the top weight equals the absence mass: silent at every threshold
    "top_weight_equals_absence": (_pf_state(0.6, [0.6, 0.2], [1.0, 3.0]),
                                  _ipda_state(0.6, [1.0], [2.0])),
    # one term against the flat weight: margin 0.75 - 0.5 = 0.25 = tau
    "lone_term_against_flat": (_pf_state(0.2, [0.75], [1.5], flat=0.5), _ipda_state(0.3, [1.0], [2.0])),
    # no term at all, beside an existence of 0.5 = tau
    "empty_mixture": (_pf_state(0.0, [], []), _ipda_state(0.5, [0.7, 0.3], [2.5, 0.5])),
    # margin 1.0 - 0.5 = 0.5 = tau
    "margin_equals_threshold": (_pf_state(0.0, [0.5, 1.0], [3.0, 0.5]), _ipda_state(0.0, [1.0], [1.0])),
    # an existence of 0.5 = tau, beside a possibility state silent at its absence mass
    "existence_equals_threshold": (_pf_state(1.0, [1.0], [0.5]), _ipda_state(0.5, [0.2, 0.8], [4.0, 1.0])),
    # an existence above every threshold with no component, beside w1 = psi
    "existence_without_components": (_pf_state(0.9, [0.9], [1.0], flat=0.1), _ipda_state(1.0)),
}


def _cell_of_states(monkeypatch, cfg, states):
    """``_run_cell`` of cell (0, 0) with each filter step returning the next
    state of ``states``; also the cell's truth."""
    it = iter(states)
    pending = []

    def pf_step(st, params, ys):
        pending[:] = next(it)
        return pending[0]

    monkeypatch.setattr(bench, "step", pf_step)
    monkeypatch.setattr(bench, "ipda_step", lambda ip, params, ys: pending[1])
    truth, _ = make_run(cfg.scenario, cfg.lambda_list[0], cfg.base_seed, 0, 0)
    return bench._run_cell(cfg, cfg.proposed_params(), cfg.baseline_params(cfg.lambda_list[0]), 0, 0), truth


@pytest.mark.parametrize("case", TIE_STEPS)
def test_the_sweep_decides_ties_as_the_per_threshold_loop(monkeypatch, case):
    # every step of the cell is the tie pair, so present and absent steps both see it
    cfg = BenchConfig(lambda_list=(1.0,), threshold_sweep=TIE_SWEEP, n_runs=1)
    states = [TIE_STEPS[case]] * (cfg.scenario.t_end + 1)
    errors, truth = _cell_of_states(monkeypatch, cfg, states)
    assert errors.tobytes() == _loop_cell(cfg, truth, states).tobytes()
    st, ip = TIE_STEPS[case]
    for tau in (-np.inf, -0.5, -0.0, *TIE_SWEEP, np.inf):
        for mine, loop in ((estimate(st, tau), _loop_estimate(st, tau)),
                           (ipda_estimate(ip, tau), _loop_ipda_estimate(ip, tau))):
            assert (mine is None) == (loop is None)
            assert mine is None or mine.tobytes() == loop.tobytes()


def test_the_sweep_calls_error_at_at_most_twice_per_filter_and_step(monkeypatch):
    calls = []

    def spy(t, est, truth, c_err=5.0):
        calls.append((t, est is not None))
        return error_at(t, est, truth, c_err)

    def declared_per_step(n_t):
        # one silent error per step, which both filters share, and at most
        # one declared error per filter
        counts = []
        for t in range(n_t):
            kinds = [declared for s, declared in calls if s == t]
            assert kinds.count(False) == 1 and kinds.count(True) <= 2
            counts.append(kinds.count(True))
        calls.clear()
        return counts

    monkeypatch.setattr(bench, "error_at", spy)
    cfg = BenchConfig(lambda_list=(10.0,), n_runs=1)
    bench._run_cell(cfg, cfg.proposed_params(), cfg.baseline_params(10.0), 0, 0)
    assert 2 in declared_per_step(cfg.scenario.t_end + 1)  # both filters declare on some step
    # a cell that cycles through the tie steps, against the per-threshold loop
    cfg = BenchConfig(lambda_list=(1.0,), threshold_sweep=TIE_SWEEP, n_runs=1)
    ties = list(TIE_STEPS.values())
    states = [ties[t % len(ties)] for t in range(cfg.scenario.t_end + 1)]
    errors, truth = _cell_of_states(monkeypatch, cfg, states)
    declared_per_step(len(states))
    assert errors.tobytes() == _loop_cell(cfg, truth, states).tobytes()


# ----------------------------------------------------------------------- csv


def test_emit_empty_result_writes_header_only(tmp_path):
    res = BenchResult(config=demo_config())
    per_time, summary = emit_results(res, tmp_path)
    assert per_time.read_bytes() == (",".join(PER_TIME_HEADER) + "\r\n").encode()
    assert summary.read_bytes() == (",".join(SUMMARY_HEADER) + "\r\n").encode()


def test_csv_row_round_trip(tmp_path):
    res = BenchResult(
        per_time=[(PROPOSED, 1.0, 0.1, 0, 0.1 + 0.2, 5, 7)],
        summary=[(PROPOSED, 1.0, 0.1, 1.0 / 3.0, 5, 7, 5.0)],
        config=demo_config(),
    )
    per_time, summary = emit_results(res, tmp_path)
    row = _read_rows(per_time)[0]
    assert row["filter"] == PROPOSED
    assert float(row["mean_error"]) == 0.1 + 0.2  # repr floats are exact
    srow = _read_rows(summary)[0]
    assert float(srow["avg_error"]) == 1.0 / 3.0


@pytest.mark.parametrize(
    "c_err, text", [(np.float64(5.0), "5.0"), (5, "5"), (5.0, "5.0")], ids=["float64", "int", "float"]
)
def test_summary_writes_c_err_as_a_number(tmp_path, c_err, text):
    # numpy 2's repr of a float64 is "np.float64(5.0)", which the table got
    cfg = BenchConfig(lambda_list=(1.0,), threshold_sweep=(0.5,), n_runs=1, c_err=c_err)
    _, summary = emit_results(run_benchmark(cfg), tmp_path)
    lines = summary.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert all(line.endswith(f",{cfg.base_seed},{text}") for line in lines[1:])


# ----------------------------------------------------------------------- cli


def test_cli_demo_writes_tables(tmp_path, capsys):
    assert main(["demo", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "per_time.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert "summary.csv" in out
    assert "avg_error" in out or "proposed" in out


def test_cli_run_with_config_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"n_runs": 4, "lambda_list": [1.0, 5.0], "threshold_sweep": [0.5]})
    )
    code = main(
        [
            "run",
            "--config",
            str(cfg_path),
            "--lambda",
            "2.0",
            "--runs",
            "1",
            "--seed",
            "5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    rows = _read_rows(tmp_path / "out" / "summary.csv")
    assert {r["lambda"] for r in rows} == {"2.0"}
    assert {r["n_runs"] for r in rows} == {"1"}
    assert {r["seed"] for r in rows} == {"5"}


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_cli_unwritable_out_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_runs": 1, "lambda_list": [1.0], "threshold_sweep": [0.5]}))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--config", str(cfg_path), "--out", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_cli_invalid_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"definitely_not_a_key": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1


# the birth velocity stds: their squares are finite normal floats
_STD = "[1.4916681462400413e-154, 1.3407807929942596e+154]"


@pytest.mark.parametrize(
    "data, args, message",
    [
        ({"tau_p": 2.0}, [], "prune_threshold must be in [0, 1), got 2.0"),
        ({"a_df": 0}, [], "missed_detection must be in (0, 1], got 0"),
        ({"c_err": float("nan")}, [], "c_err must be in (0, inf), got nan"),
        ({}, ["--lambda", "nan"], "clutter_rate must be in [0, inf), got nan"),
        ({"c_err": True}, [], "c_err must be in (0, inf), got True"),
        ({"lambda_list": [True]}, [], "clutter_rate must be in [0, inf), got True"),
        ({"birth_velocity_std": "2"}, [], f"velocity_std must be in {_STD}, got '2'"),
        ({"birth_velocity_std": True}, [], f"velocity_std must be in {_STD}, got True"),
        ({"c_err": 10**400}, [], f"c_err must be in (0, inf), got {10**400}"),
    ],
    ids=["tau_p", "a_df", "c_err_nan", "lambda_nan", "c_err_true", "lambda_true", "std_string", "std_true",
         "c_err_huge_int"],
)
def test_cli_out_of_range_value_is_config_error_before_any_cell_runs(tmp_path, capsys, data, args, message):
    # these used to escape as a traceback from run_benchmark (a string std
    # at the first scan, an int past the float range as OverflowError), to
    # write NaN tables and exit 0 (c_err NaN), or to run with a rate, cost or
    # std of 1.0 (JSON true)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_cli_numerical_breakdown_exits_2_and_names_the_cell(tmp_path, capsys):
    # r_obs ** 2 underflows to 0, so a system born from an observation gets a
    # singular covariance; the first scan with an observation breaks
    data = {"r_obs": 1e-200, "lambda_list": [1.0], "n_runs": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    cfg = config_from_dict(data)
    _, obs = make_run(cfg.scenario, 1.0, cfg.base_seed, 0, 0)
    t = next(t for t, ys in enumerate(obs.steps) if ys)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ")
    assert f"lambda=1 run=0 t={t} seed={cfg.base_seed}: birth covariance" in err
