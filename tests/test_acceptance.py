"""Acceptance suite: one test per acceptance criterion.

Each test prints a one-line PASS/FAIL summary with the measured quantity
(visible with ``pytest -v -rA`` or on failure).  The desk-scale benchmark
criteria (5a-5d) encode comparative-behavior targets for the two filters;
see the assertion messages for the measured values.

5b, 5c and 5d are decided on the pinned 100-run study and fail there; the
README's "Known failing tests" gives the measured cause of each.  5a is
decided on a larger sample of the pinned seed (``_5A_RUNS`` runs, chosen from
a precision target), because at 100 runs its statistic moves across its bound
from seed to seed.
"""

import math
import time

import numpy as np
import pytest

from possitrack.bench import (
    BASELINE,
    PROPOSED,
    default_config,
    make_run,
    run_benchmark,
)
from possitrack.cli import main
from possitrack.ipda import IpdaState, ipda_estimate, ipda_step
from possitrack.intensity import (
    IntensityMixture,
    MultiTargetParams,
    propagate_intensity,
    update_intensity,
)
from possitrack.mixtures import (
    MaxMixture,
    dominance_reduce,
    prune,
)
from possitrack.scenario import (
    ScenarioConfig,
    error_at,
    generate_observations,
    observation_matrix,
    observation_noise,
    process_noise,
    simulate_truth,
    transition_matrix,
)
from possitrack.single_target import (
    ExplicitBirth,
    ExtendedPossibility,
    SingleTargetParams,
    estimate,
    predict,
    step,
    update,
)

from oracles import grid_sup_oracle


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")


# -------------------------------------------------------------- criterion 1


def test_criterion_1_prediction_matches_grid_oracle():
    """Closed-form prediction equals the brute-force lattice sup, 1e-6."""
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = rng.uniform(-3.0, 3.0)
        v = rng.uniform(0.5, 3.0)
        f = rng.uniform(-1.5, 1.5)
        q = rng.uniform(0.8, 3.0)
        a_pi = rng.uniform(0.1, 1.0)
        params = SingleTargetParams(trans=[[f]], trans_noise=[[q]], obs=[[1.0]], obs_noise=[[1.0]],
                                    survival=a_pi, disappearance=1.0)
        pred = predict(ExtendedPossibility(0.0, MaxMixture([1.0], [[m]], [[[v]]])), params).on_s
        xs = rng.uniform(-6.0, 6.0, size=50)
        for x in xs:
            brute = grid_sup_oracle(
                lambda xp: a_pi
                * np.exp(-0.5 * (x - f * xp) ** 2 / q)
                * np.exp(-0.5 * (xp - m) ** 2 / v),
                -20.0,
                20.0,
                1e-3,
            )
            worst = max(worst, abs(pred(np.array([x])) - brute))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(
        "criterion 1 (prediction vs oracle)",
        ok,
        f"max abs error {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 30s)",
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


# -------------------------------------------------------------- criterion 2


def test_criterion_2_update_normalization_invariant():
    """After every update of a 25-step high-clutter run, max(psi, sup) = 1."""
    cfg = ScenarioConfig(lambda_fp=10.0)
    truth = simulate_truth(cfg, seed=20260816)
    obs = generate_observations(truth, cfg, seed=1)
    params = default_config().proposed_params()
    st = ExtendedPossibility.absent()
    worst = 0.0
    from possitrack.mixtures import merge

    for t in range(cfg.t_end + 1):
        post = update(predict(st, params), params, obs.steps[t])
        worst = max(worst, abs(max(post.psi_mass, post.on_s.sup()) - 1.0))
        mix = prune(post.on_s, params.prune_threshold)
        mix = dominance_reduce(mix)
        mix = merge(mix, params.merge_threshold)
        st = ExtendedPossibility(post.psi_mass, mix, post.time_index)
    ok = worst <= 1e-12
    _report(
        "criterion 2 (posterior normalization)",
        ok,
        f"max |max(psi, sup) - 1| = {worst:.2e} over 26 updates (tol 1e-12)",
    )
    assert worst <= 1e-12


# -------------------------------------------------------------- criterion 3


def test_criterion_3_clean_data_kalman_equivalence():
    """Zero clutter, certain detection, one explicit birth: the dominant
    component follows a textbook Kalman filter for all 25 steps."""
    cfg = ScenarioConfig(t_birth=0, t_death=24, t_end=24, p_detect=1.0, lambda_fp=0.0)
    truth = simulate_truth(cfg, seed=3)
    obs = generate_observations(truth, cfg, seed=4)
    F, Q = transition_matrix(cfg), process_noise(cfg)
    H, R = observation_matrix(), observation_noise(cfg)

    m0 = np.array([0.0, 0.0])
    v0 = np.diag([0.0625, 1.0])
    params = SingleTargetParams(
        trans=F,
        trans_noise=Q,
        obs=H,
        obs_noise=R,
        survival=1.0,
        disappearance=0.01,
        remain_absent=0.01,  # kills rebirth weight after the first injection
        missed_detection=0.01,
        birth=ExplicitBirth(MaxMixture([1.0], [m0], [v0])),
        prune_threshold=0.05,
        merge_threshold=0.0,  # merging off: equivalence must be exact
    )
    st = ExtendedPossibility.absent()
    m, v = m0.copy(), v0.copy()
    worst = 0.0
    for t in range(25):
        if t > 0:  # reference predicts from the second step on
            m = F @ m
            v = F @ v @ F.T + Q
        y = np.asarray(obs.steps[t])
        s = H @ v @ H.T + R
        k = v @ H.T @ np.linalg.inv(s)
        m = m + (k @ (y - H @ m)).ravel()
        v = (np.eye(2) - k @ H) @ v

        st = step(st, params, obs.steps[t])
        top = max(st.on_s.components, key=lambda c: c.weight)
        worst = max(
            worst,
            float(np.max(np.abs(top.mean - m) / np.maximum(np.abs(m), 1e-9))),
            float(np.max(np.abs(top.cov - v) / np.maximum(np.abs(v), 1e-9))),
        )
    ok = worst <= 1e-9
    _report(
        "criterion 3 (clean-data Kalman equivalence)",
        ok,
        f"max rel deviation {worst:.2e} over 25 steps (tol 1e-9)",
    )
    assert worst <= 1e-9


# -------------------------------------------------------------- criterion 4


def test_criterion_4_intensity_bound_and_duplicate_invariance():
    """100 random multi-system steps: intensity <= 1 at 10^4 points, and a
    duplicated observation gives component-set equality with the single."""
    cfg = ScenarioConfig()
    params = MultiTargetParams(
        trans=transition_matrix(cfg),
        trans_noise=process_noise(cfg),
        obs=observation_matrix(),
        obs_noise=observation_noise(cfg),
    )
    rng = np.random.default_rng(99)
    worst = 0.0
    checked_points = 0
    for chain in range(5):
        fm = IntensityMixture(flat_weight=0.5)
        for _ in range(20):
            fm = propagate_intensity(fm, params)
            n = int(rng.integers(0, 4))
            ys = [[float(u)] for u in rng.uniform(-10, 10, n)]
            out = update_intensity(fm, params, ys)
            if ys:
                dup = update_intensity(fm, params, ys + [ys[0]])
                assert dup.floor == out.floor
                assert len(dup.components) == len(out.components)
                for a, b in zip(out.components, dup.components):
                    assert a.weight == b.weight
                    np.testing.assert_array_equal(a.mean, b.mean)
                    np.testing.assert_array_equal(a.cov, b.cov)
            fm = out
            pts = np.column_stack(
                [rng.uniform(-12, 12, 100), rng.uniform(-4, 4, 100)]
            )
            worst = max(worst, float(fm.eval_many(pts).max()))
            checked_points += 100
    ok = worst <= 1.0 + 1e-12 and checked_points == 10_000
    _report(
        "criterion 4 (intensity bound + duplicates)",
        ok,
        f"max intensity {worst:.15f} over {checked_points} points (tol 1+1e-12); duplicate updates identical",
    )
    assert checked_points == 10_000
    assert worst <= 1.0 + 1e-12


# -------------------------------------------------------------- criterion 5
#
# Desk-scale benchmark study: 100 paired runs at rates 1, 5, 10 with the
# pinned parameterization.  Sub-criteria (a)-(d) target comparative filter
# behavior.  They are asserted exactly as stated; the measured values are in
# the assertion messages.
#
# (a) is a ratio of run means a few steps apart; over 100 runs its standard
# deviation is about 0.07, enough to land it on either side of its 0.5
# bound depending on the seed.  So it is measured on the first _5A_RUNS runs of the pinned seed,
# the first 100 of which are the study's own (checked bit for bit), with N
# set from a standard-error target rather than from the outcome.
# (b), (c) and (d) are decided on the study itself; they fail through the
# filters' documented behavior at the pinned parameters, not through noise
# (see the README's "Known failing tests").

# Standard error wanted for 5a's statistic, and its standard deviation over
# 100-run samples (bootstrap of 100 from 800 pinned-seed runs: 0.068; the
# 100-run values on base seeds 1-6 range from 0.37 to 0.62).  The test
# reports the bootstrap standard error it reaches.
_5A_SE_TARGET = 0.025
_5A_SD_100 = 0.07
_5A_RUNS = 100 * math.ceil((_5A_SD_100 / _5A_SE_TARGET) ** 2)  # 800
_5A_RATE = 1.0
_5A_WINDOW = 3


@pytest.fixture(scope="module")
def study():
    cfg = default_config()
    t0 = time.perf_counter()
    res = run_benchmark(cfg)
    elapsed = time.perf_counter() - t0
    per = {(r[0], r[1], r[2], r[3]): r[4] for r in res.per_time}
    summ = {(r[0], r[1], r[2]): r[3] for r in res.summary}
    return cfg, per, summ, elapsed


def test_criterion_5_runtime(study):
    cfg, per, summ, elapsed = study
    ok = elapsed <= 300.0
    _report("criterion 5 (runtime)", ok, f"full study took {elapsed:.1f}s (<= 300s)")
    assert ok


def _errors_after_birth(cfg, n_runs):
    """Per-run errors e[run, threshold, k] at t = t_birth + k, k = 0..window,
    for both filters on runs 0..n_runs-1 of the pinned seed at rate 1.

    Same realizations, parameters, estimators and metric as run_benchmark;
    the filters are causal, so each run stops at t_birth + window.
    """
    tb = cfg.scenario.t_birth
    li = cfg.lambda_list.index(_5A_RATE)
    prop_params = cfg.proposed_params()
    base_params = cfg.baseline_params(_5A_RATE)
    shape = (n_runs, len(cfg.threshold_sweep), _5A_WINDOW + 1)
    err = {PROPOSED: np.zeros(shape), BASELINE: np.zeros(shape)}
    for run in range(n_runs):
        truth, obs = make_run(cfg.scenario, _5A_RATE, cfg.base_seed, li, run)
        st = ExtendedPossibility.absent()
        ip = IpdaState.initial()
        for t in range(tb + _5A_WINDOW + 1):
            st = step(st, prop_params, obs.steps[t])
            ip = ipda_step(ip, base_params, obs.steps[t])
            if t < tb:
                continue
            for ti, tau in enumerate(cfg.threshold_sweep):
                err[PROPOSED][run, ti, t - tb] = error_at(t, estimate(st, tau), truth, cfg.c_err)
                err[BASELINE][run, ti, t - tb] = error_at(t, ipda_estimate(ip, tau), truth, cfg.c_err)
    return err


def _best_drop_ratio(mean_err):
    """min over thresholds of min(e[tb+1..tb+window]) / e[tb]; returns the
    ratio and the index of the threshold that gives it."""
    ratios = mean_err[:, 1:].min(axis=1) / mean_err[:, 0]
    ti = int(np.argmin(ratios))
    return float(ratios[ti]), ti


def test_criterion_5a_error_drop_after_birth(study):
    """Mean e_t drops by >= 50% within 3 steps after t_birth at rate 1, for
    both filters (most favorable threshold in the sweep).

    Measured on the first _5A_RUNS runs of the pinned seed; their first
    cfg.n_runs reproduce the study's per-time means exactly.
    """
    cfg, per, summ, _ = study
    tb = cfg.scenario.t_birth
    err = _errors_after_birth(cfg, _5A_RUNS)
    rng = np.random.default_rng(5)
    lines = []
    ok_all = True
    for name in (PROPOSED, BASELINE):
        # summed in run order, as run_benchmark does, so the means match bit for bit
        head = err[name][: cfg.n_runs].cumsum(axis=0)[-1] / cfg.n_runs
        for ti, tau in enumerate(cfg.threshold_sweep):
            for k in range(_5A_WINDOW + 1):
                assert head[ti, k] == per[(name, _5A_RATE, tau, tb + k)], (name, tau, tb + k)
        best, ti = _best_drop_ratio(err[name].mean(axis=0))
        boot = [
            _best_drop_ratio(err[name][rng.integers(0, _5A_RUNS, _5A_RUNS)].mean(axis=0))[0]
            for _ in range(400)
        ]
        se = float(np.std(boot, ddof=1))
        ok = best <= 0.5
        ok_all &= ok
        lines.append(
            f"{name}: best drop ratio {best:.3f} (se {se:.3f}) at threshold "
            f"{cfg.threshold_sweep[ti]:g}"
        )
    _report(
        "criterion 5a (error drop after appearance)",
        ok_all,
        f"N = {_5A_RUNS} runs; " + "; ".join(lines) + " (need <= 0.5)",
    )
    assert ok_all, "; ".join(lines)


def test_criterion_5b_threshold_insensitivity(study):
    """The proposed filter's time-averaged error varies less across the
    threshold sweep than the baseline's (range ratio < 1 at each rate)."""
    cfg, per, summ, _ = study
    lines = []
    ok_all = True
    for lam in cfg.lambda_list:
        prop = [summ[(PROPOSED, lam, tau)] for tau in cfg.threshold_sweep]
        base = [summ[(BASELINE, lam, tau)] for tau in cfg.threshold_sweep]
        r_prop = max(prop) - min(prop)
        r_base = max(base) - min(base)
        ratio = r_prop / r_base if r_base > 0 else float("inf")
        ok = ratio < 1.0
        ok_all &= ok
        lines.append(f"rate {lam:g}: range ratio {ratio:.2f}")
    _report(
        "criterion 5b (threshold insensitivity)",
        ok_all,
        "; ".join(lines) + " (need < 1)",
    )
    assert ok_all, "; ".join(lines)


def test_criterion_5c_comparable_average_error(study):
    """Proposed time-averaged error <= 1.5x baseline at each rate (each
    filter at its best threshold in the sweep)."""
    cfg, per, summ, _ = study
    lines = []
    ok_all = True
    for lam in cfg.lambda_list:
        prop = min(summ[(PROPOSED, lam, tau)] for tau in cfg.threshold_sweep)
        base = min(summ[(BASELINE, lam, tau)] for tau in cfg.threshold_sweep)
        ratio = prop / base
        ok = ratio <= 1.5
        ok_all &= ok
        lines.append(f"rate {lam:g}: {prop:.3f}/{base:.3f} = {ratio:.3f}")
    _report(
        "criterion 5c (comparable average error)",
        ok_all,
        "; ".join(lines) + " (need <= 1.5)",
    )
    assert ok_all, "; ".join(lines)


def test_criterion_5d_slower_disappearance_notice(study):
    """After t_death the proposed filter keeps declaring a state for at
    least as long as the baseline, on average over the sweep.  Post-death
    declared-step mass is sum_t mean_e_t / c_err over t in (t_death, t_end]."""
    cfg, per, summ, _ = study
    tb, td, te, c = cfg.scenario.t_birth, cfg.scenario.t_death, cfg.scenario.t_end, cfg.c_err
    n_after = te - td

    def declared_mass(name, lam, times):
        return float(
            np.mean([sum(per[(name, lam, tau, t)] for t in times) / c for tau in cfg.threshold_sweep])
        )

    lines = []
    refs = []
    ok_all = True
    for lam in cfg.lambda_list:
        declared = {name: declared_mass(name, lam, range(td + 1, te + 1)) for name in (PROPOSED, BASELINE)}
        # Same mass over the n_after steps before t_birth: what each filter
        # declares with no system present, for reference.
        before = {name: declared_mass(name, lam, range(tb - n_after, tb)) for name in (PROPOSED, BASELINE)}
        ok = declared[PROPOSED] >= declared[BASELINE]
        ok_all &= ok
        lines.append(
            f"rate {lam:g}: proposed {declared[PROPOSED]:.2f} vs baseline {declared[BASELINE]:.2f} steps"
        )
        refs.append(
            f"rate {lam:g}: proposed {before[PROPOSED]:.2f}, baseline {before[BASELINE]:.2f}"
        )
    _report(
        "criterion 5d (slower disappearance notice)",
        ok_all,
        "; ".join(lines)
        + " (need proposed >= baseline); declared before birth: "
        + "; ".join(refs),
    )
    assert ok_all, "; ".join(lines)


# -------------------------------------------------------------- criterion 6


def test_criterion_6_demo_determinism(tmp_path):
    """`bench demo` twice produces byte-identical CSVs."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["demo", "--out", str(a)]) == 0
    assert main(["demo", "--out", str(b)]) == 0
    same = all(
        (a / f).read_bytes() == (b / f).read_bytes()
        for f in ("per_time.csv", "summary.csv")
    )
    _report("criterion 6 (demo determinism)", same, "two runs byte-identical")
    assert same


# -------------------------------------------------------------- criterion 7


def test_criterion_7_reduction_safety():
    """On 20 random mixtures: dominance reduction changes no grid value
    (tol 1e-12); pruning changes values by at most the prune threshold."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-10.0, 10.0, 1001).reshape(-1, 1)
    tau_p = 0.05
    worst_dom = 0.0
    worst_prune = 0.0
    for _ in range(20):
        comps = [
            (rng.uniform(0.01, 1.0), [rng.uniform(-6, 6)], [[rng.uniform(0.2, 3.0)]])
            for _ in range(rng.integers(1, 8))
        ]
        mix = MaxMixture(*zip(*comps), flat_weight=float(rng.uniform(0.0, 0.3)))
        before = mix.eval_many(xs)
        worst_dom = max(
            worst_dom, float(np.abs(dominance_reduce(mix).eval_many(xs) - before).max())
        )
        worst_prune = max(
            worst_prune, float(np.abs(prune(mix, tau_p).eval_many(xs) - before).max())
        )
    ok = worst_dom <= 1e-12 and worst_prune <= tau_p
    _report(
        "criterion 7 (reduction safety)",
        ok,
        f"dominance max change {worst_dom:.2e} (tol 1e-12); prune max change {worst_prune:.3f} (<= {tau_p})",
    )
    assert worst_dom <= 1e-12
    assert worst_prune <= tau_p
