"""Monte Carlo benchmark: possibility filter vs. probabilistic baseline.

For every false-positive rate and every run, one scenario realization is
drawn and the identical observation record is fed to both filters; the
confirmation-threshold sweep is applied to the recorded filter states, so
the comparison is paired across filters and thresholds.  The baseline is
given the true false-positive rate and region; the possibility filter runs
with the no-knowledge clutter model.

Results are written as two CSV tables: per-time mean errors and time-averaged
summaries.  All randomness derives from ``base_seed`` through per-run seed
sequences, so a rerun of the same configuration is byte-identical.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .ipda import IpdaParams, IpdaState, ipda_step
from .ipda import _declaration as _ipda_declaration
from .scenario import (
    GroundTruth,
    ObservationRecord,
    ScenarioConfig,
    error_at,
    generate_observations,
    observation_matrix,
    observation_noise,
    process_noise,
    simulate_truth,
    transition_matrix,
)
from .single_target import (
    ClutterModel,
    ExtendedPossibility,
    ObservationDrivenBirth,
    SingleTargetParams,
    step,
)
from .single_target import _declaration as _pf_declaration
from .mixtures import NumericalError, _check_scalars, _in_range, _scalar

logger = logging.getLogger(__name__)

__all__ = [
    "BenchConfig",
    "BenchResult",
    "default_config",
    "demo_config",
    "config_from_dict",
    "load_config",
    "run_benchmark",
    "emit_results",
    "PER_TIME_HEADER",
    "SUMMARY_HEADER",
]

PER_TIME_HEADER = ("filter", "lambda", "threshold", "t", "mean_error", "n_runs", "seed")
SUMMARY_HEADER = ("filter", "lambda", "threshold", "avg_error", "n_runs", "seed", "c_err")

PROPOSED = "proposed"
BASELINE = "baseline"


@dataclass(frozen=True)
class BenchConfig:
    """Scenario plus both filters' parameters and the sweep grid.

    The filter parameters are kept as the scalars one would tabulate
    (model matrices are derived from the scenario); ``proposed_params`` and
    ``baseline_params`` build the actual parameter objects.
    """

    scenario: ScenarioConfig = ScenarioConfig()
    # possibility filter
    a_df: float = 0.2
    a_omega: float = 0.01
    a_alpha: float = 0.5
    a_pi: float = 1.0
    tau_p: float = 1e-4
    tau_m: float = 3.22
    birth_velocity_std: float = 1.0
    # probabilistic baseline
    p_d: float = 0.8
    p_s: float = 0.99
    p_b: float = 0.5
    tau_p_ipda: float = 1e-5
    tau_m_ipda: float = 3.22
    # sweep
    lambda_list: tuple = (1.0, 5.0, 10.0)
    threshold_sweep: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    n_runs: int = _scalar(100, 1, None, "int")
    base_seed: int = _scalar(20260816, 0, None, "int")
    c_err: float = 5.0

    def __post_init__(self):
        # each rate is checked as the baseline's clutter rate before it becomes a float
        rates = tuple(_in_range("clutter_rate", v, 0, math.inf, "[)") for v in self.lambda_list)
        object.__setattr__(self, "lambda_list", rates)
        sweep = tuple(_in_range("threshold_sweep", v, 0, 1, "[)") for v in self.threshold_sweep)
        object.__setattr__(self, "threshold_sweep", sweep)
        if not self.lambda_list or not self.threshold_sweep:
            raise ValueError("lambda_list and threshold_sweep must be non-empty")
        _check_scalars(self)
        _in_range("c_err", self.c_err, 0, math.inf, "()")  # checked, not converted: the CSVs print it as given
        # the filters check their own scalars
        self.proposed_params()
        for lam in self.lambda_list:
            self.baseline_params(lam)

    def proposed_params(self) -> SingleTargetParams:
        sc = self.scenario
        return SingleTargetParams(
            trans=transition_matrix(sc),
            trans_noise=process_noise(sc),
            obs=observation_matrix(),
            obs_noise=observation_noise(sc),
            survival=self.a_pi,
            disappearance=self.a_omega,
            remain_absent=self.a_alpha,
            missed_detection=self.a_df,
            birth=ObservationDrivenBirth(self.birth_velocity_std),
            clutter=ClutterModel(),
            prune_threshold=self.tau_p,
            merge_threshold=self.tau_m,
        )

    def baseline_params(self, lambda_fp: float) -> IpdaParams:
        sc = self.scenario
        return IpdaParams(
            trans=transition_matrix(sc),
            trans_noise=process_noise(sc),
            obs=observation_matrix(),
            obs_noise=observation_noise(sc),
            p_detect=self.p_d,
            p_survive=self.p_s,
            p_birth=self.p_b,
            clutter_rate=lambda_fp,
            surveillance_volume=sc.fp_hi - sc.fp_lo,
            birth_velocity_std=self.birth_velocity_std,
            prune_threshold=self.tau_p_ipda,
            merge_threshold=self.tau_m_ipda,
        )


def default_config() -> BenchConfig:
    """Full desk-scale study: 100 paired runs at rates 1, 5 and 10."""
    return BenchConfig()


def demo_config() -> BenchConfig:
    """Small pinned configuration for a quick deterministic demonstration."""
    return BenchConfig(
        lambda_list=(1.0,),
        threshold_sweep=(0.2, 0.5, 0.8),
        n_runs=5,
        base_seed=7,
    )


_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}
_BENCH_KEYS = {f.name for f in fields(BenchConfig)} - {"scenario"}


def config_from_dict(data: dict) -> BenchConfig:
    """Build a configuration from a flat mapping; unknown keys are an error."""
    if not isinstance(data, dict):
        raise ValueError("configuration must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS - _BENCH_KEYS
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    sc_kwargs = {k: data[k] for k in data if k in _SCENARIO_KEYS}
    bench_kwargs = {k: data[k] for k in data if k in _BENCH_KEYS}
    return BenchConfig(scenario=ScenarioConfig(**sc_kwargs), **bench_kwargs)


def load_config(path) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data)


@dataclass
class BenchResult:
    """Row-oriented result tables plus the configuration that produced them."""

    per_time: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    config: BenchConfig = None


def make_run(
    scenario: ScenarioConfig, lambda_fp: float, base_seed: int, lambda_index: int, run: int
) -> tuple[GroundTruth, ObservationRecord]:
    """Deterministic scenario realization for one (rate, run) cell."""
    sc = replace(scenario, lambda_fp=lambda_fp)
    rng_truth = np.random.default_rng(np.random.SeedSequence((base_seed, lambda_index, run, 0)))
    rng_obs = np.random.default_rng(np.random.SeedSequence((base_seed, lambda_index, run, 1)))
    truth = simulate_truth(sc, rng_truth)
    return truth, generate_observations(truth, sc, rng_obs)


def run_benchmark(cfg: BenchConfig, progress: Callable[[str], None] | None = None) -> BenchResult:
    """Run the paired Monte Carlo study and return the result tables.

    Each filter runs once per (rate, run) cell; the threshold sweep is
    applied to the filter state after every step, so all thresholds see
    identical filtering behavior.  A NumericalError from a filter is raised
    again with the (lambda, run, t, seed) that reproduces it.

    The cells are independent, so they run on every CPU of the process's
    affinity set: with n CPUs, cell i runs in the caller when i % n == 0
    and in one of n - 1 worker processes otherwise.  The caller takes the
    cells in order, so the sums, the tables, the ``progress`` messages and
    the error reported (that of the first failing cell) are those of a
    serial run.  The workers are spawned, so the caller's main module must
    guard its entry point with ``if __name__ == "__main__"``; none outlives
    the call.
    """
    thresholds = cfg.threshold_sweep
    n_t = cfg.scenario.t_end + 1
    prop_params = cfg.proposed_params()
    base_params = [cfg.baseline_params(lam) for lam in cfg.lambda_list]
    cells = [(li, run) for li in range(len(cfg.lambda_list)) for run in range(cfg.n_runs)]
    n = min(_cpu_count(), len(cells))
    pool = None
    if n > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers start from a fresh import: forking a caller that
        # has threads is unsafe
        pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("spawn"))
    result = BenchResult(config=cfg)
    try:
        pending = {
            i: pool.submit(_run_cell, cfg, prop_params, base_params[li], li, run)
            for i, (li, run) in enumerate(cells)
            if i % n
        }
        for li, lam in enumerate(cfg.lambda_list):
            err = np.zeros((2, len(thresholds), n_t))
            for run in range(cfg.n_runs):
                i = li * cfg.n_runs + run
                # one addition per entry, in run order
                err += pending.pop(i).result() if i % n else _run_cell(cfg, prop_params, base_params[li], li, run)
                if progress is not None:
                    progress(f"lambda={lam:g} run={run + 1}/{cfg.n_runs}")
            for k, name in enumerate((PROPOSED, BASELINE)):
                mean = err[k] / cfg.n_runs
                for ti, tau in enumerate(thresholds):
                    for t in range(n_t):
                        result.per_time.append(
                            (name, lam, tau, t, float(mean[ti, t]), cfg.n_runs, cfg.base_seed)
                        )
                    result.summary.append(
                        (name, lam, tau, float(mean[ti].mean()), cfg.n_runs, cfg.base_seed, cfg.c_err)
                    )
            logger.info("finished rate lambda=%g", lam)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return result


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cell(
    cfg: BenchConfig, prop_params: SingleTargetParams, base_params: IpdaParams, li: int, run: int
) -> np.ndarray:
    """Errors of one (rate, run) cell, as a (2, n_thresholds, n_t) array.

    Row 0 is the possibility filter, row 1 the baseline.  Each filter's
    state is ranked once per step; every threshold is then a comparison with
    its margin, as in ``estimate`` and ``ipda_estimate``.
    """
    lam = cfg.lambda_list[li]
    n_t = cfg.scenario.t_end + 1
    errors = np.zeros((2, len(cfg.threshold_sweep), n_t))
    truth, obs = make_run(cfg.scenario, lam, cfg.base_seed, li, run)
    st = ExtendedPossibility.absent()
    ip = IpdaState.initial()
    for t, ys in enumerate(obs.steps):
        try:
            st = step(st, prop_params, ys)
            ip = ipda_step(ip, base_params, ys)
        except NumericalError as exc:
            raise NumericalError(
                f"lambda={lam:g} run={run} t={t} seed={cfg.base_seed}: {exc}"
            ) from exc
        silent = error_at(t, None, truth, cfg.c_err)
        errors[0, :, t] = _sweep_errors(cfg, truth, t, *_pf_declaration(st), silent)
        errors[1, :, t] = _sweep_errors(cfg, truth, t, *_ipda_declaration(ip), silent)
    return errors


def _sweep_errors(cfg: BenchConfig, truth: GroundTruth, t: int, mean, margin: float, silent: float):
    """Step t's error at each threshold of the sweep: that of declaring
    ``mean`` where ``margin`` exceeds the threshold, ``silent`` elsewhere.
    A mean of None is declared nowhere."""
    taus = cfg.threshold_sweep
    if mean is None or not any(margin > tau for tau in taus):
        return silent
    declared = error_at(t, mean, truth, cfg.c_err)
    return [declared if margin > tau else silent for tau in taus]


def emit_results(result: BenchResult, out_dir) -> tuple[Path, Path]:
    """Write per_time.csv and summary.csv; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per_time_path = out / "per_time.csv"
    summary_path = out / "summary.csv"
    _write_csv(per_time_path, PER_TIME_HEADER, result.per_time)
    _write_csv(summary_path, SUMMARY_HEADER, result.summary)
    return per_time_path, summary_path


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # csv writes a float, numpy's float64 included, as float.__repr__ does
