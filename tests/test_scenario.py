"""Tests for the simulation scenario and the error metric.

Statistical checks run on large samples with fixed seeds; tolerances leave
several standard deviations of headroom so they are deterministic in
practice.
"""

import numpy as np
import pytest

from possitrack.scenario import (
    ScenarioConfig,
    error_at,
    generate_observations,
    noise_vector,
    observation_matrix,
    observation_noise,
    process_noise,
    simulate_truth,
    transition_matrix,
)


# --------------------------------------------------------------------- model


def test_model_matrices():
    cfg = ScenarioConfig()
    np.testing.assert_array_equal(transition_matrix(cfg), [[1.0, 0.1], [0.0, 1.0]])
    np.testing.assert_allclose(noise_vector(cfg), [0.005, 0.1], rtol=1e-15)
    G = np.array([0.005, 0.1])
    np.testing.assert_allclose(process_noise(cfg), 2.25 * np.outer(G, G), rtol=1e-15)
    np.testing.assert_array_equal(observation_matrix(), [[1.0, 0.0]])
    np.testing.assert_array_equal(observation_noise(cfg), [[0.0625]])


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(t_birth=10, t_death=5)
    with pytest.raises(ValueError):
        ScenarioConfig(t_death=30, t_end=25)
    with pytest.raises(ValueError):
        ScenarioConfig(fp_lo=5.0, fp_hi=-5.0)


# --------------------------------------------------------------------- truth


def test_truth_presence_window_inclusive():
    truth = simulate_truth(ScenarioConfig(), seed=0)
    assert len(truth.states) == 26
    for t in range(26):
        assert truth.present(t) == (3 <= t <= 22)
    with pytest.raises(ValueError):
        truth.position(0)


def test_truth_birth_at_origin():
    truth = simulate_truth(ScenarioConfig(), seed=1)
    assert truth.position(3) == 0.0


def test_truth_deterministic_in_seed():
    a = simulate_truth(ScenarioConfig(), seed=7)
    b = simulate_truth(ScenarioConfig(), seed=7)
    c = simulate_truth(ScenarioConfig(), seed=8)
    for t in range(3, 23):
        assert a.position(t) == b.position(t)
    assert any(a.position(t) != c.position(t) for t in range(4, 23))


def test_truth_zero_noise_stays_at_origin():
    cfg = ScenarioConfig(q_accel=0.0, init_vel_std=0.0)
    truth = simulate_truth(cfg, seed=3)
    for t in range(3, 23):
        assert truth.position(t) == 0.0


def test_truth_velocity_increments_match_noise_scale():
    # v_{t+1} - v_t = q * dt * w with w ~ N(0,1): variance q^2 dt^2 = 0.0225
    cfg = ScenarioConfig(t_birth=0, t_death=25, init_vel_std=0.0)
    incs = []
    for s in range(400):
        truth = simulate_truth(cfg, seed=100 + s)
        vel = [truth.states[t][1] for t in range(26)]
        incs.extend(np.diff(vel))
    var = float(np.var(incs))
    assert var == pytest.approx(0.0225, rel=0.05)


# -------------------------------------------------------------- observations


def test_observations_clean_regime_one_per_present_step():
    cfg = ScenarioConfig(p_detect=1.0, lambda_fp=0.0)
    truth = simulate_truth(cfg, seed=5)
    obs = generate_observations(truth, cfg, seed=6)
    for t in range(26):
        assert len(obs.steps[t]) == (1 if truth.present(t) else 0)
    # detection noise: within a few sigma of the true position
    for t in range(3, 23):
        assert abs(obs.steps[t][0] - truth.position(t)) < 4 * cfg.r_obs


def test_observations_deterministic_in_seed():
    cfg = ScenarioConfig()
    truth = simulate_truth(cfg, seed=5)
    a = generate_observations(truth, cfg, seed=9)
    b = generate_observations(truth, cfg, seed=9)
    assert a.steps == b.steps


def test_false_positive_count_matches_rate():
    # absent steps carry only clutter; mean count over 10000 steps ~ 10
    cfg = ScenarioConfig(lambda_fp=10.0, t_birth=3, t_death=3, t_end=25)
    truth = simulate_truth(cfg, seed=0)
    counts = []
    rng = np.random.default_rng(1234)
    while len(counts) < 10_000:
        obs = generate_observations(truth, cfg, rng)
        for t in range(26):
            if t != 3:
                counts.append(len(obs.steps[t]))
    mean = float(np.mean(counts[:10_000]))
    assert abs(mean - 10.0) < 0.3


def test_false_positive_positions_uniform():
    # Kolmogorov-Smirnov distance to U(-10, 10) below 0.02 on 1e5 samples
    cfg = ScenarioConfig(lambda_fp=4.0, t_birth=3, t_death=3, t_end=25)
    truth = simulate_truth(cfg, seed=0)
    rng = np.random.default_rng(99)
    samples: list[float] = []
    while len(samples) < 100_000:
        obs = generate_observations(truth, cfg, rng)
        for t in range(26):
            if t != 3:
                samples.extend(obs.steps[t])
    xs = np.sort(np.asarray(samples[:100_000]))
    cdf = (xs + 10.0) / 20.0
    emp = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.abs(emp - cdf)))
    assert ks < 0.02


# --------------------------------------------------------------------- error


def test_error_metric_cases():
    truth = simulate_truth(ScenarioConfig(q_accel=0.0, init_vel_std=0.0), seed=0)
    # present: exact hit, miss distance, saturation, silence
    assert error_at(5, np.array([0.0, 0.0]), truth) == 0.0
    assert error_at(5, np.array([1.2, 0.0]), truth) == pytest.approx(1.2)
    assert error_at(5, np.array([50.0, 0.0]), truth) == 5.0
    assert error_at(5, None, truth) == 5.0
    # absent: silence is free, a declared estimate costs c
    assert error_at(0, None, truth) == 0.0
    assert error_at(0, np.array([0.0, 0.0]), truth) == 5.0
    # custom saturation
    assert error_at(5, None, truth, c_err=2.0) == 2.0
    with pytest.raises(ValueError):
        error_at(5, None, truth, c_err=0.0)
