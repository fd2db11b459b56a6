"""Benchmark scenario: one system on a 1-d line, observed in position.

Nearly-constant-velocity dynamics with acceleration noise entering through
the discretization vector [dt^2 / 2, dt], position-only observations, a
detection probability while the system is present, and Poisson-distributed
false positives uniform over a fixed interval.  The system appears at
t_birth with position 0 and a small random velocity and disappears after
t_death; the scenario runs for t_end + 1 steps (t = 0 .. t_end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixtures import _check_scalars, _in_range, _scalar

__all__ = [
    "ScenarioConfig",
    "GroundTruth",
    "ObservationRecord",
    "transition_matrix",
    "process_noise",
    "observation_matrix",
    "observation_noise",
    "simulate_truth",
    "generate_observations",
    "error_at",
]


@dataclass(frozen=True)
class ScenarioConfig:
    dt: float = _scalar(0.1, 0, math.inf, "()")
    q_accel: float = _scalar(1.5, 0, math.inf, "[)")
    r_obs: float = _scalar(0.25, 0, math.inf, "()")
    p_detect: float = _scalar(0.8, 0, 1, "[]")
    lambda_fp: float = _scalar(1.0, 0, math.inf, "[)")
    fp_lo: float = _scalar(-10.0, -math.inf, math.inf, "()")
    fp_hi: float = _scalar(10.0, -math.inf, math.inf, "()")
    t_birth: int = _scalar(3, 0, None, "int")
    t_death: int = _scalar(22, 0, None, "int")
    t_end: int = _scalar(25, 0, None, "int")
    init_vel_std: float = _scalar(0.1, 0, math.inf, "[)")

    def __post_init__(self):
        _check_scalars(self)
        if not self.fp_lo < self.fp_hi:
            raise ValueError("false-positive region must have fp_lo < fp_hi")
        if not (self.t_birth <= self.t_death <= self.t_end):
            raise ValueError("need 0 <= t_birth <= t_death <= t_end")


def transition_matrix(cfg: ScenarioConfig) -> np.ndarray:
    return np.array([[1.0, cfg.dt], [0.0, 1.0]])


def noise_vector(cfg: ScenarioConfig) -> np.ndarray:
    return np.array([0.5 * cfg.dt**2, cfg.dt])


def process_noise(cfg: ScenarioConfig) -> np.ndarray:
    g = noise_vector(cfg)
    return cfg.q_accel**2 * np.outer(g, g)


def observation_matrix() -> np.ndarray:
    return np.array([[1.0, 0.0]])


def observation_noise(cfg: ScenarioConfig) -> np.ndarray:
    return np.array([[cfg.r_obs**2]])


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-step state [position, velocity] or None while absent."""

    states: tuple

    def __post_init__(self):
        states = tuple(
            None if s is None else np.asarray(s, dtype=float) for s in self.states
        )
        for s in states:
            if s is not None and s.shape != (2,):
                raise ValueError("states must be length-2 vectors or None")
        object.__setattr__(self, "states", states)

    def present(self, t: int) -> bool:
        return self.states[t] is not None

    def position(self, t: int) -> float:
        s = self.states[t]
        if s is None:
            raise ValueError(f"no system at step {t}")
        return float(s[0])


@dataclass(frozen=True, eq=False)
class ObservationRecord:
    """Per-step tuples of scalar observations (detections and false positives)."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(tuple(float(y) for y in ys) for ys in self.steps)
        object.__setattr__(self, "steps", steps)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate_truth(cfg: ScenarioConfig, seed) -> GroundTruth:
    """Draw one trajectory: birth at [0, v] with v ~ N(0, init_vel_std^2)."""
    rng = _rng(seed)
    trans = transition_matrix(cfg)
    g = noise_vector(cfg)
    states: list = [None] * (cfg.t_end + 1)
    x = np.array([0.0, rng.normal(0.0, cfg.init_vel_std)])
    for t in range(cfg.t_birth, cfg.t_death + 1):
        states[t] = x.copy()
        x = trans @ x + g * rng.normal(0.0, cfg.q_accel)
    return GroundTruth(tuple(states))


def generate_observations(truth: GroundTruth, cfg: ScenarioConfig, seed) -> ObservationRecord:
    """Draw detections and false positives for every step, in shuffled order."""
    rng = _rng(seed)
    steps = []
    for t in range(cfg.t_end + 1):
        ys: list[float] = []
        if truth.present(t) and rng.random() < cfg.p_detect:
            ys.append(truth.position(t) + rng.normal(0.0, cfg.r_obs))
        n_fp = rng.poisson(cfg.lambda_fp)
        ys.extend(rng.uniform(cfg.fp_lo, cfg.fp_hi, n_fp).tolist())
        order = rng.permutation(len(ys))
        steps.append(tuple(ys[i] for i in order))
    return ObservationRecord(tuple(steps))


def error_at(t: int, estimate, truth: GroundTruth, c_err: float = 5.0) -> float:
    """Tracking error at one step.

    While the system is present: the position distance saturated at c_err,
    plus c_err when no estimate is declared.  While absent: c_err for a
    declared estimate, 0 otherwise.
    """
    _in_range("c_err", c_err, 0, math.inf, "()")
    declared = estimate is not None
    if truth.present(t):
        if not declared:
            return c_err
        pos = float(np.atleast_1d(np.asarray(estimate, dtype=float))[0])
        return min(abs(pos - truth.position(t)), c_err)
    return c_err if declared else 0.0
