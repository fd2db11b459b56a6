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
from dataclasses import MISSING, dataclass

import numpy as np

from .mixtures import (
    LinearGaussianModel,
    _Record,
    _as_count,
    _check_scalars,
    _check_terms,
    _gate_rows,
    _greedy_clusters,
    _in_range,
    _inverse,
    _require_pd,
    _scalar,
    batch_kalman_update,
    concat_terms,
)
from .single_target import _BIRTH_STD, _born_terms, canonicalize_observations

__all__ = ["IpdaParams", "IpdaState", "ipda_predict", "ipda_update", "ipda_estimate", "ipda_step"]

# clutter density floor: keeps the zero-clutter limit finite while letting
# detections dominate the association weights
_DENSITY_FLOOR = 1e-30

# numpy sums a 1-d slice of fewer terms left to right, as a scatter-add does,
# and a longer one pairwise
_SEQUENTIAL_SUM = 8


@dataclass(frozen=True)
class IpdaParams(LinearGaussianModel):
    """Model matrices and probabilities of the baseline filter."""

    p_detect: float = _scalar(0.8, 0, 1, "[]")
    p_survive: float = _scalar(0.99, 0, 1, "[]")
    p_birth: float = _scalar(0.5, 0, 1, "[]")
    clutter_rate: float = _scalar(1.0, 0, math.inf, "[)")
    surveillance_volume: float = _scalar(20.0, 0, math.inf, "()")
    birth_velocity_std: float = _scalar(1.0, *_BIRTH_STD)
    prune_threshold: float = _scalar(1e-5, 0, 1, "[)")
    merge_threshold: float = _scalar(3.22, 0, math.inf, "[]")

    @property
    def clutter_density(self) -> float:
        return max(self.clutter_rate / self.surveillance_volume, _DENSITY_FLOOR)


@dataclass(frozen=True, eq=False)
class IpdaState(_Record):
    """Existence probability plus the state mixture given existence.

    ``weights`` (Gaussian components) and ``diffuse_weight`` (not-yet-located
    birth mass: uniform position, Gaussian velocity) sum to 1 whenever
    existence is positive.  The constructor copies and checks its arrays:
    finite means and finite, symmetric, positive-definite covariances.  The
    recursions build their states with the private ``_trusted``
    (:class:`_Record`), which does not check them again.
    """

    existence: float = _scalar(MISSING, 0, 1, "[]")
    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    # no upper end: the sum rule of __post_init__ bounds it
    diffuse_weight: float = _scalar(0.0, 0, math.inf, "[)")
    time_index: int = _scalar(0, 0, None, "int")

    def __post_init__(self):
        _check_scalars(self)
        w = np.array(self.weights, dtype=float, ndmin=1)
        k = w.size
        m = np.array(self.means, dtype=float).reshape(k, -1) if k else np.empty((0, 0))
        v = np.array(self.covs, dtype=float)
        if k and v.shape != (k, m.shape[1], m.shape[1]):
            raise ValueError("covs shape inconsistent with means")
        if not (w >= 0.0).all():
            raise ValueError("weights must be >= 0")
        total = float(w.sum()) + self.diffuse_weight
        if abs(total - 1.0) > 1e-9 and (k or self.diffuse_weight > 0.0):
            raise ValueError(f"weights plus diffuse mass must sum to 1, got {total!r}")
        if k:
            _check_terms(m, v)
        self._fill((self.existence, w, m, v))

    @property
    def n_components(self) -> int:
        return self.weights.size

    @staticmethod
    def initial(time_index: int = 0) -> "IpdaState":
        """Start not existing; the state prior is pure birth mass."""
        n = _as_count("time_index", time_index, 0)
        return IpdaState._trusted(0.0, np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), 1.0, n)


def ipda_predict(state: IpdaState, params: IpdaParams) -> IpdaState:
    """Markov existence prediction and linear propagation of the mixture.

    existence' = p_survive * existence + p_birth * (1 - existence).  The
    surviving mixture and the fresh birth mass are mixed in proportion to the
    two existence pathways; fresh birth mass is diffuse.  Raises
    NumericalError if a predicted covariance is not positive-definite.
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
        _require_pd(vs, "predicted")
        ws = state.weights * (surv / r_new)
    else:
        ms, vs, ws = state.means, state.covs, state.weights
    diffuse = (state.diffuse_weight * surv + born) / r_new
    total = float(ws.sum()) + diffuse
    return IpdaState._trusted(r_new, ws / total, ms, vs, diffuse / total, state.time_index + 1)


def _prune_and_merge(ws, ms, vs, ps, diffuse, params):
    """Association-weight pruning then moment-matching merge; renormalizes.

    ``ps`` are the precisions ``inv(vs)``.  Greedy from the heaviest term
    down (:func:`_greedy_clusters`): each term not yet merged heads a
    cluster of the unmerged terms within merge_threshold of its mean in the
    metric of its covariance, and the cluster is replaced by its moment
    match.  The gate tests only the pairs of a coordinate-0 window
    (:func:`_gate_rows`).  The result is bit for bit that of testing every
    pair and merging one cluster at a time.
    """
    keep = ws >= params.prune_threshold
    ws, ms, vs = ws.compress(keep), ms.compress(keep, axis=0), vs.compress(keep, axis=0)
    if ws.size:
        # the default sort, not a stable one: its order among equal weights picks the heads
        order = np.argsort(-ws)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # only later-ranked neighbours: every term ranked before h is clustered when h is reached
        start, nbrs, _ = _gate_rows(ms, vs, ps.compress(keep, axis=0), params.merge_threshold, rank)
        label, _ = _greedy_clusters(order, start, nbrs)
        ws, ms, vs = _moment_merge(ws, ms, vs, order, label)
    total = float(ws.sum()) + diffuse
    if total <= 0.0:
        return np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), 1.0
    return ws / total, ms, vs, diffuse / total


def _moment_merge(ws, ms, vs, order, label):
    """Weight, mean and covariance of each cluster, in cluster order.

    The members of a cluster are summed in ``order``, from +0.0 and left to
    right (``np.bincount`` and ``np.add.at``), which gives the bits of
    numpy's sum over each cluster alone while it has fewer than
    ``_SEQUENTIAL_SUM`` members; larger clusters are summed again by numpy.
    The members are grouped by cluster once, in ``order`` within each (a
    stable sort of the labels), so each large cluster is a slice.
    """
    order = order.take(np.argsort(label.take(order), kind="stable"))
    label = label.take(order)
    ws, ms, vs = ws.take(order), ms.take(order, axis=0), vs.take(order, axis=0)
    sizes = np.bincount(label)
    ends = np.cumsum(sizes)
    large = {c: slice(ends[c] - sizes[c], ends[c]) for c in np.flatnonzero(sizes >= _SEQUENTIAL_SUM).tolist()}
    wm = ws[:, None] * ms
    out_w = np.bincount(label, weights=ws)
    out_m = np.zeros((out_w.size, ms.shape[1]))
    np.add.at(out_m, label, wm)
    for c, part in large.items():
        out_w[c] = ws[part].sum()
        out_m[c] = wm[part].sum(axis=0)
    out_m /= out_w[:, None]

    dif = ms - out_m.take(label, axis=0)
    wv = ws[:, None, None] * (vs + dif[:, :, None] * dif[:, None, :])
    out_v = np.zeros((out_w.size, *vs.shape[1:]))
    np.add.at(out_v, label, wv)
    for c, part in large.items():
        out_v[c] = wv[part].sum(axis=0)
    out_v /= out_w[:, None, None]
    return out_w, out_m, 0.5 * (out_v + np.swapaxes(out_v, 1, 2))


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
    lam_total = miss
    # each stack with the precisions of its covariances: one inverse per distinct covariance
    stacks = [(miss * state.weights, state.means, state.covs, _inverse(state.covs))]
    born = int(n_obs > 0 and delta > 0.0)
    if n_obs and (k or born):
        # row j: the detections of observation j, then its birth
        d = params.state_dim
        w = np.empty((n_obs, k + born))
        m = np.empty((n_obs, k + born, d))
        v = np.empty((n_obs, k + born, d, d))
        p = np.empty((n_obs, k + born, d, d))
        if k:
            liks, m_post, v_post, s = batch_kalman_update(state.means, state.covs, ys, params)
            # the normalized innovation densities N(y; H m, S), one row per observation
            norm = np.sqrt((2.0 * math.pi) ** params.obs_dim * np.linalg.det(s))
            w[:, :k] = (pd / rho) * state.weights * (liks / norm[:, None]).T
            m[:, :k] = m_post.swapaxes(0, 1)
            v[:, :k] = v_post
            p[:, :k] = _inverse(v_post)
            det_sums = w[:, :k].sum(axis=1).tolist()
        if born:
            w_birth = (pd / rho) * delta * (1.0 / params.surveillance_volume)
            w[:, k] = w_birth
            m[:, k], v[:, k], p[:, k] = _born_terms(params, params.birth_velocity_std, ys)
        for j in range(n_obs):  # in the order of the branches
            if k:
                lam_total += det_sums[j]
            if born:
                lam_total += w_birth
        stacks.append((w.ravel(), m.reshape(-1, d), v.reshape(-1, d, d), p.reshape(-1, d, d)))

    if lam_total <= 0.0:  # no branch is possible: existence 0, only the diffuse prior is left
        return IpdaState.initial(state.time_index)
    denom = 1.0 - r + r * lam_total
    existence = r * lam_total / denom if denom > 0.0 else 0.0

    ws, ms, vs, ps = concat_terms(stacks)
    ws, ms, vs, diffuse = _prune_and_merge(ws / lam_total, ms, vs, ps, miss * delta / lam_total, params)
    if not ws.size:
        ms = np.empty((0, 0))  # as the constructor stores the means of no terms
    return IpdaState._trusted(existence, ws, ms, vs, diffuse, state.time_index)


def _declaration(state: IpdaState) -> tuple[np.ndarray | None, float]:
    """The heaviest component's mean (None without components) and the existence.

    :func:`ipda_estimate` declares the mean at tau_conf iff the existence
    exceeds tau_conf.  Weight ties go to the lower index.  The mean is a
    read-only view into the state.
    """
    if not state.n_components:
        return None, state.existence
    return state.means[int(np.argmax(state.weights))], state.existence


def ipda_estimate(state: IpdaState, tau_conf: float) -> np.ndarray | None:
    """Highest-weight component mean iff existence exceeds the threshold.

    tau_conf may be any float, ±inf included, but not NaN.
    """
    tau_conf = _in_range("tau_conf", tau_conf, -math.inf, math.inf, "[]")
    mean, existence = _declaration(state)
    if mean is not None and existence > tau_conf:
        return mean.copy()
    return None


def ipda_step(state: IpdaState, params: IpdaParams, observations) -> IpdaState:
    """ipda_predict followed by ipda_update."""
    return ipda_update(ipda_predict(state, params), params, observations)
