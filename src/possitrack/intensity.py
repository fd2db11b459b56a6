"""Multi-system filtering with possibilistic intensity functions.

The number of systems and their states are described by an uncertain
counting measure whose intensity function F maps each state to [0, 1].
The count possibility is n -> sup(F)^n and the spatial possibility is
F / sup(F), so F factors into a max-mixture-shaped object: a constant floor
(newborn systems not yet located) plus weighted Gaussian components.

The recursion mirrors the single-system filter branch for branch, except
that normalization is per observation: each observation y contributes
components scaled by 1 / D_y with

    D_y = max(sup_x F(x) h(y | x), clutter_intensity(y)),

which keeps the updated intensity bounded by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixtures import (
    LinearGaussianModel,
    MaxMixture,
    _as_count,
    _check_count,
    _gate_neighbours,
    _greedy_clusters,
    _in_range,
    batch_kalman_update,
    batch_predict,
    concat_terms,
    dominance_reduce,
)
from .single_target import _born_terms, _check_birth_std, canonicalize_observations

__all__ = [
    "IntensityMixture",
    "MultiTargetParams",
    "sum_intensities",
    "propagate_intensity",
    "update_intensity",
    "recover_cardinality_spatial",
    "extract_targets",
]


class IntensityMixture(MaxMixture):
    """Intensity function: max of a constant floor and Gaussian components.

    A :class:`MaxMixture` whose flat term is called the floor.
    """

    @property
    def floor(self) -> float:
        return self.flat_weight


@dataclass(frozen=True)
class MultiTargetParams(LinearGaussianModel):
    """Model matrices and intensity parameters of the multi-system filter.

    ``birth`` is the appearance intensity on the state space (typically just
    a floor); ``clutter`` is the false-positive intensity on the observation
    space.  Their terms, if any, must have those dimensions.
    ``birth_velocity_std`` locates floor-born components on the unobserved
    coordinates.
    """

    survival: float = 1.0
    missed_detection: float = 0.2
    birth: IntensityMixture = IntensityMixture(flat_weight=0.5)
    clutter: IntensityMixture = IntensityMixture(flat_weight=0.5)
    birth_velocity_std: float = 1.0
    max_components: int = 200

    def __post_init__(self):
        super().__post_init__()
        for name in ("survival", "missed_detection"):
            object.__setattr__(self, name, _in_range(name, getattr(self, name), 0, 1, "(]"))
        _check_birth_std("birth_velocity_std", self.birth_velocity_std)
        _check_count(self, "max_components", 1)
        if not isinstance(self.birth, IntensityMixture):
            raise ValueError(f"birth must be an IntensityMixture, got {type(self.birth).__name__}")
        if self.birth.dim not in (None, self.state_dim):
            raise ValueError(f"birth terms must have the state dimension {self.state_dim}, got {self.birth.dim}")
        if not isinstance(self.clutter, MaxMixture):
            raise ValueError(f"clutter must be a MaxMixture, got {type(self.clutter).__name__}")
        if self.clutter.dim not in (None, self.obs_dim):
            raise ValueError(
                f"clutter terms must have the observation dimension {self.obs_dim}, got {self.clutter.dim}"
            )


def sum_intensities(a: IntensityMixture, b: IntensityMixture) -> IntensityMixture:
    """Pointwise max of two intensities (union of independent populations)."""
    stack = concat_terms(((a.weights, a.means, a.covs), (b.weights, b.means, b.covs)))
    return dominance_reduce(IntensityMixture._trusted(*stack, max(a.floor, b.floor)))


def propagate_intensity(fm: IntensityMixture, params: MultiTargetParams) -> IntensityMixture:
    """Survival-scaled linear propagation followed by the birth intensity."""
    ms, vs = batch_predict(fm.means, fm.covs, params.trans, params.trans_noise)
    # a weight that underflows to 0 here is dropped by the dominance reduction
    moved = IntensityMixture._trusted(fm.weights * params.survival, ms, vs, fm.floor * params.survival)
    return sum_intensities(moved, params.birth)


def update_intensity(fm: IntensityMixture, params: MultiTargetParams, observations) -> IntensityMixture:
    """One observation update of the intensity function.

    The detection-failure branch scales everything by missed_detection.  Each
    observation y adds Kalman-updated components and, when the floor is
    positive, one newborn component located at y; all of them are divided by
    D_y = max(floor, best component likelihood, clutter intensity at y), so
    no weight exceeds 1.  An observation with D_y = 0 adds nothing.  Exact
    duplicate observations are a single observation.  The terms are ordered
    by branch: the k misdetections, then for each observation in
    canonical order its k detections and its newborn.  The result is
    dominance-reduced and capped at the max_components heaviest components.

    The branch weights are computed in one pass, as a (n, k + 1) array, and
    only the terms above the new floor (floor * missed_detection) get their
    means and covariances gathered: dominance reduction drops every other
    term first and keeps the order of the rest, so the result is that of
    building all k + n (k + 1) terms.
    """
    ys = canonicalize_observations(observations, params.obs_dim)
    ws, ms, vs = fm.weights, fm.means, fm.covs
    k, n, floor = ws.size, ys.shape[0], fm.floor
    new_floor = floor * params.missed_detection
    # the sources of the terms' moments, in branch order: misdetections, the
    # detections of term c against observation j at row c * n + j, the newborns
    m_src, v_src = ([ms], [vs]) if k else ([], [])
    d_y = np.maximum(floor, params.clutter.eval_many(ys))
    w_lik = np.empty((k, n))
    if k and n:
        liks, m_post, v_post, _ = batch_kalman_update(ms, vs, ys, params.obs, params.obs_noise)
        w_lik = ws[:, None] * liks
        d_y = np.maximum(d_y, w_lik.max(axis=0))
        m_src.append(m_post.reshape(k * n, -1))
        v_src.append(v_post)
    if n and floor > 0.0:
        born_m, born_v = _born_terms(params, params.birth_velocity_std, ys)
        m_src.append(born_m)
        v_src.append(born_v[None])
    if not m_src:  # no terms and no newborns
        return IntensityMixture._trusted(np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), new_floor)

    seen = np.flatnonzero(d_y > 0.0)
    d_seen = d_y.take(seen)
    branch_w = np.empty((seen.size, k + 1))  # per observation: k detections, then the newborn
    branch_w[:, :k] = (w_lik.take(seen, axis=1) / d_seen).T
    branch_w[:, k] = floor / d_seen
    new_w = np.concatenate([ws * params.missed_detection, branch_w.ravel()])
    sel = np.flatnonzero(new_w > new_floor)
    n_mis = np.searchsorted(sel, k)
    obs_j, c = np.divmod(sel[n_mis:] - k, k + 1)
    m_rows = np.concatenate([sel[:n_mis], k + c * n + seen.take(obs_j)])
    v_rows = np.concatenate([sel[:n_mis], k + c])
    out = dominance_reduce(IntensityMixture._trusted(
        new_w.take(sel),
        np.concatenate(m_src).take(m_rows, axis=0),
        np.concatenate(v_src).take(v_rows, axis=0),
        new_floor,
    ))
    if out.weights.size > params.max_components:
        out = out.take(np.argsort(-out.weights, kind="stable")[: params.max_components])
    return out


def recover_cardinality_spatial(fm: IntensityMixture):
    """Split an intensity into its count possibility and spatial possibility.

    Returns ``(card, spatial)`` with ``card(n) = sup(F) ** n`` and spatial the
    sup-normalized intensity.  A zero intensity carries no spatial
    information, so its spatial part is the constant 1.
    """
    s = fm.sup()

    def card(n: int) -> float:
        return float(s ** _as_count("count", n, 0))

    if s <= 0.0:
        return card, IntensityMixture(flat_weight=1.0)
    return card, IntensityMixture._trusted(fm.weights / s, fm.means, fm.covs, fm.floor / s)


def extract_targets(
    fm: IntensityMixture, tau_x: float = 0.9, merge_radius: float = 3.22
) -> list[np.ndarray]:
    """Means of components confirming a system: weight above tau_x and the floor.

    At most one extraction per spatial cluster: a candidate within
    merge_radius (Mahalanobis, in an accepted component's covariance) of an
    already accepted component is skipped.  The candidates are dominance
    reduced first and taken heaviest first, ties toward the smaller
    covariance trace; the accepted ones are the heads of
    :func:`_greedy_clusters`.
    """
    tau_x = _in_range("tau_x", tau_x, -math.inf, math.inf, "[]")
    merge_radius = _in_range("merge_radius", merge_radius, -math.inf, math.inf, "[]")
    ws = fm.weights
    cands = np.flatnonzero((ws > tau_x) & (ws > fm.floor))
    if not cands.size:
        return []
    # reducing the candidates alone keeps the same ones: only a heavier-ranked
    # term can dominate a candidate, and such a term is a candidate too
    reduced = dominance_reduce(fm.take(cands))
    order = np.lexsort((np.trace(reduced.covs, axis1=1, axis2=2), -reduced.weights))
    ms, vs = reduced.means.take(order, axis=0), reduced.covs.take(order, axis=0)
    # near[start[a]:start[a + 1]]: the later candidates within merge_radius of a in a's covariance
    start, near = _gate_neighbours(ms, vs, abs(merge_radius), np.arange(order.size))
    _, heads = _greedy_clusters(np.arange(order.size), start, near)
    return list(ms.take(heads, axis=0))
