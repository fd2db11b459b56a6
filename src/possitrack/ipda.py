"""Probabilistic baseline: integrated probabilistic data association.

Tracks a single system with a Bernoulli existence probability and, given
existence, a Gaussian mixture over the state.  Unlike the possibility filter
this baseline needs the true false-positive model: clutter is Poisson with a
known rate, uniform over a known surveillance region, so the clutter spatial
density is rate / volume.

Appearance is observation-oriented here too.  Birth existence mass enters at
prediction (Markov existence chain); the state prior it carries is uniform in
position and Gaussian in velocity, kept as an explicit "diffuse" weight next
to the Gaussian components.  At update the diffuse mass spawns one Gaussian
candidate per observation.  Mixture weights plus the diffuse weight sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mixtures import LinearGaussianModel, batch_kalman_update, batch_quadratic, concat_terms
from .single_target import canonicalize_observations, materialize_birth

__all__ = ["IpdaParams", "IpdaState", "ipda_predict", "ipda_update", "ipda_estimate", "ipda_step"]

# clutter density floor: keeps the zero-clutter limit finite while letting
# detections dominate the association weights
_DENSITY_FLOOR = 1e-30


@dataclass(frozen=True)
class IpdaParams(LinearGaussianModel):
    """Model matrices and probabilities of the baseline filter."""

    p_detect: float = 0.8
    p_survive: float = 0.99
    p_birth: float = 0.5
    clutter_rate: float = 1.0
    surveillance_volume: float = 20.0
    birth_velocity_std: float = 1.0
    prune_threshold: float = 1e-5
    merge_threshold: float = 3.22

    def __post_init__(self):
        super().__post_init__()
        for name in ("p_detect", "p_survive", "p_birth"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
            object.__setattr__(self, name, v)
        if self.clutter_rate < 0.0:
            raise ValueError("clutter_rate must be >= 0")
        if not self.surveillance_volume > 0.0:
            raise ValueError("surveillance_volume must be > 0")
        if not self.birth_velocity_std > 0.0:
            raise ValueError("birth_velocity_std must be > 0")
        if not (0.0 <= self.prune_threshold < 1.0):
            raise ValueError("prune_threshold must be in [0, 1)")
        if not (self.merge_threshold >= 0.0):
            raise ValueError("merge_threshold must be >= 0")

    @property
    def clutter_density(self) -> float:
        return max(self.clutter_rate / self.surveillance_volume, _DENSITY_FLOOR)


@dataclass(frozen=True, eq=False)
class IpdaState:
    """Existence probability plus the state mixture given existence.

    ``weights`` (Gaussian components) and ``diffuse_weight`` (not-yet-located
    birth mass: uniform position, Gaussian velocity) sum to 1 whenever
    existence is positive.
    """

    existence: float
    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    diffuse_weight: float = 0.0
    time_index: int = 0

    def __post_init__(self):
        r = float(self.existence)
        if not (0.0 <= r <= 1.0) or not math.isfinite(r):
            raise ValueError(f"existence must be in [0, 1], got {r!r}")
        w = np.array(self.weights, dtype=float, ndmin=1)
        k = w.size
        m = np.array(self.means, dtype=float).reshape(k, -1) if k else np.empty((0, 0))
        v = np.array(self.covs, dtype=float)
        if k and v.shape != (k, m.shape[1], m.shape[1]):
            raise ValueError("covs shape inconsistent with means")
        delta = float(self.diffuse_weight)
        if not (0.0 <= delta <= 1.0 + 1e-9):
            raise ValueError(f"diffuse_weight must be in [0, 1], got {delta!r}")
        if np.any(w < 0.0):
            raise ValueError("weights must be >= 0")
        total = float(w.sum()) + delta
        if abs(total - 1.0) > 1e-9 and (k or delta > 0.0):
            raise ValueError(f"weights plus diffuse mass must sum to 1, got {total!r}")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "existence", r)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", v)
        object.__setattr__(self, "diffuse_weight", delta)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @staticmethod
    def initial(time_index: int = 0) -> "IpdaState":
        """Start not existing; the state prior is pure birth mass."""
        return IpdaState(0.0, np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), 1.0, time_index)


def ipda_predict(state: IpdaState, params: IpdaParams) -> IpdaState:
    """Markov existence prediction and linear propagation of the mixture.

    existence' = p_survive * existence + p_birth * (1 - existence).  The
    surviving mixture and the fresh birth mass are mixed in proportion to the
    two existence pathways; fresh birth mass is diffuse.
    """
    r = state.existence
    surv = params.p_survive * r
    born = params.p_birth * (1.0 - r)
    r_new = surv + born
    if r_new <= 0.0:
        return IpdaState.initial(state.time_index + 1)
    k = state.n_components
    if k:
        # not batch_predict: its product differs in the last bit, and the goldens pin these bytes
        ms = state.means @ params.trans.T
        vs = params.trans @ state.covs @ params.trans.T + params.trans_noise
        vs = 0.5 * (vs + np.swapaxes(vs, 1, 2))
        ws = state.weights * (surv / r_new)
    else:
        ms, vs, ws = state.means, state.covs, state.weights
    diffuse = (state.diffuse_weight * surv + born) / r_new
    total = float(ws.sum()) + diffuse
    return IpdaState(r_new, ws / total, ms, vs, diffuse / total, state.time_index + 1)


def _gaussian_densities(state: IpdaState, params: IpdaParams, ys: np.ndarray):
    """Normalized innovation densities N(y; H m_k, S_k) for all (k, observation)."""
    liks, m_post, v_post = batch_kalman_update(
        state.means, state.covs, ys, params.obs, params.obs_noise
    )
    s = params.obs @ state.covs @ params.obs.T + params.obs_noise
    p = params.obs_dim
    norm = np.sqrt((2.0 * math.pi) ** p * np.linalg.det(s))  # (k,)
    dens = liks / norm[:, None]
    return dens, m_post, v_post


def _prune_and_merge(ws, ms, vs, diffuse, params):
    """Association-weight pruning then moment-matching merge; renormalizes."""
    keep = ws >= params.prune_threshold
    ws, ms, vs = ws[keep], ms[keep], vs[keep]
    if ws.size:
        # in_gate[i, j]: m_j lies within merge_threshold of m_i in the metric of V_i
        in_gate = batch_quadratic(ms, vs, ms) <= params.merge_threshold**2
        out_w, out_m, out_v = [], [], []
        idx = np.argsort(-ws)
        while idx.size:
            gated = in_gate[idx[0], idx]
            cluster = idx[gated]
            w_tot = ws[cluster].sum()
            m_bar = (ws[cluster, None] * ms[cluster]).sum(axis=0) / w_tot
            dif = ms[cluster] - m_bar
            v_bar = (
                ws[cluster, None, None] * (vs[cluster] + dif[:, :, None] * dif[:, None, :])
            ).sum(axis=0) / w_tot
            out_w.append(w_tot)
            out_m.append(m_bar)
            out_v.append(0.5 * (v_bar + v_bar.T))
            idx = idx[~gated]
        ws = np.asarray(out_w)
        ms = np.stack(out_m)
        vs = np.stack(out_v)
    total = float(ws.sum()) + diffuse
    if total <= 0.0:
        return np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), 1.0
    return ws / total, ms, vs, diffuse / total


def ipda_update(state: IpdaState, params: IpdaParams, observations) -> IpdaState:
    """Association-likelihood update of existence and mixture.

    Branch weights: (1 - p_detect) for a detection failure and
    p_detect * density / clutter_density per observation.  The diffuse birth
    mass associates with every observation through the uniform position
    density 1 / volume and spawns a located candidate there.  Existence is
    updated by the total likelihood ratio.  Branches come in this order: all
    detection failures, then for each observation its detections followed
    by its birth.
    """
    ys = canonicalize_observations(observations, params.obs_dim)
    n_obs = ys.shape[0]
    r = state.existence
    pd = params.p_detect
    rho = params.clutter_density
    k = state.n_components
    delta = state.diffuse_weight

    miss = 1.0 - pd
    branches = [(miss * state.weights, state.means, state.covs)]
    lam_total = miss
    if n_obs and k:
        dens, m_post, v_post = _gaussian_densities(state, params, ys)
        det_w = (pd / rho) * state.weights * dens.T  # (n, k)
    if n_obs and delta > 0.0:
        w_birth = (pd / rho) * delta * (1.0 / params.surveillance_volume)
        born_m, born_v = materialize_birth(
            ys, params.obs, params.obs_noise, params.birth_velocity_std
        )
    for j in range(n_obs):
        if k:
            branches.append((det_w[j], m_post[:, j, :], v_post))
            lam_total += float(det_w[j].sum())
        if delta > 0.0:
            branches.append((np.array([w_birth]), born_m[j : j + 1], born_v[None]))
            lam_total += w_birth

    denom = 1.0 - r + r * lam_total
    existence = r * lam_total / denom if denom > 0.0 else 0.0
    if lam_total <= 0.0:
        return replace(IpdaState.initial(state.time_index), existence=existence)

    ws, ms, vs = concat_terms(branches)
    ws, ms, vs, diffuse = _prune_and_merge(ws / lam_total, ms, vs, miss * delta / lam_total, params)
    return IpdaState(existence, ws, ms, vs, diffuse, state.time_index)


def ipda_estimate(state: IpdaState, tau_conf: float) -> np.ndarray | None:
    """Highest-weight component mean iff existence exceeds the threshold."""
    if state.existence > tau_conf and state.n_components:
        return state.means[int(np.argmax(state.weights))].copy()
    return None


def ipda_step(state: IpdaState, params: IpdaParams, observations) -> IpdaState:
    """ipda_predict followed by ipda_update."""
    return ipda_update(ipda_predict(state, params), params, observations)
