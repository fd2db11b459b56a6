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
    _gate_rows,
    _greedy_clusters,
    _in_range,
    batch_kalman_update,
    batch_predict,
    concat_terms,
    dominance_reduce,
)
from .single_target import _BIRTH_STD, _born_terms, canonicalize_observations

__all__ = [
    "IntensityMixture",
    "MultiTargetParams",
    "sum_intensities",
    "propagate_intensity",
    "update_intensity",
    "recover_cardinality_spatial",
    "extract_targets",
]


# propagate_intensity skips the certificates of the moved terms only while
# F's condition number and the ratio of Q to F V F' (_moves_stay_reduced)
# are at most these
_TRANS_COND_LIMIT = 100.0
_NOISE_RATIO_LIMIT = 100.0
_TINY = np.finfo(float).tiny
# _eigenvalue_floor's allowance for rounding, relative to trace(V)
_FLOOR_SLACK = 1e-12


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
        std = _in_range("birth_velocity_std", self.birth_velocity_std, *_BIRTH_STD)
        object.__setattr__(self, "birth_velocity_std", std)
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
        # the smallest covariance eigenvalue of a term whose pairs keep their
        # certificates through prediction (_moves_stay_reduced); inf for an
        # F past the condition limit, 0 for Q = 0
        sv = np.linalg.svd(self.trans, compute_uv=False)
        min_var = math.inf
        if sv[-1] > 0.0 and sv[0] <= _TRANS_COND_LIMIT * sv[-1]:
            min_var = max(float(np.linalg.eigvalsh(self.trans_noise)[-1]), 0.0) / (_NOISE_RATIO_LIMIT * sv[-1] ** 2)
        object.__setattr__(self, "_stay_reduced_min_var", min_var)


def sum_intensities(a: IntensityMixture, b: IntensityMixture) -> IntensityMixture:
    """Pointwise max of two intensities (union of independent populations)."""
    stack = concat_terms(((a.weights, a.means, a.covs), (b.weights, b.means, b.covs)))
    return dominance_reduce(IntensityMixture._trusted(*stack, max(a.floor, b.floor)))


def _moves_stay_reduced(fm: IntensityMixture, ws: np.ndarray, keep: np.ndarray, params: MultiTargetParams) -> bool:
    """Whether the moved terms ``keep`` of a reduced ``fm``, with weights
    ``ws``, are reduced without certifying their pairs again.

    In real arithmetic they are whenever F is invertible
    (:func:`propagate_intensity`).  In floating point this holds when no
    two of them are left, and otherwise needs:

    - no two distinct weights rounded to one value by a survival factor
      below 1: a tie ranks the pair by position, which can put the lighter
      term first, and the lighter term can dominate the other;
    - no weight scaled below the normal range, where the rounding changes
      the ratio of two weights by more than an ulp;
    - F's condition number at most ``_TRANS_COND_LIMIT``: a singular F can
      map two terms onto one point, where the lighter is dominated, and a
      nearly singular one brings them within the certificates' tolerance;
    - ``lambda_max(Q) <= _NOISE_RATIO_LIMIT * sigma_min(F)**2 *
      lambda_min(V)`` for every term: Q shrinks the difference of two
      terms' precisions, and with it the margin by which the certificate
      fails, by about the square of 1 + lambda_max(Q) / lambda_min(F V F').

    On random reduced intensities the rounding certified a pair only past a
    condition number of about 3e4 or a ratio of Q to F V F' of about 1e7.
    """
    if keep.size < 2:
        return True
    kept_ws = ws.take(keep)
    if params.survival != 1.0 and (
        kept_ws.min() < _TINY or np.unique(kept_ws).size < np.unique(fm.weights.take(keep)).size
    ):
        return False
    min_var = params._stay_reduced_min_var
    if min_var == 0.0 or min_var == math.inf:
        return min_var == 0.0
    covs = fm.covs.take(keep, axis=0)
    # eigvalsh decides only what the cheaper lower bound leaves open
    return _eigenvalue_floor(covs).min() >= min_var or np.linalg.eigvalsh(covs)[:, 0].min() >= min_var


def _eigenvalue_floor(covs: np.ndarray) -> np.ndarray:
    """A lower bound on the smallest eigenvalue of each covariance (k, d, d).

    For a positive-definite V with eigenvalues l_1 <= ... <= l_d, the
    arithmetic-geometric mean inequality on l_2 ... l_d gives
    l_1 >= det(V) / (tr(V) / (d - 1))**(d - 1), which is det / tr for
    d = 2 and V itself for d = 1.  ``_FLOOR_SLACK * tr(V)`` is taken off for
    the rounding of det and of ``eigvalsh``'s own result, both of which
    are of order eps * tr(V), so the bound stays below what ``eigvalsh``
    returns, near-singular V included.
    """
    d = covs.shape[-1]
    tr = np.trace(covs, axis1=1, axis2=2)
    if d == 1:
        floor = tr
    elif d == 2:  # from the lower triangle, the one eigvalsh reads
        floor = (covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 1, 0] ** 2) / tr
    else:
        floor = np.linalg.det(covs) / (tr / (d - 1)) ** (d - 1)
    return floor - _FLOOR_SLACK * tr


def propagate_intensity(fm: IntensityMixture, params: MultiTargetParams) -> IntensityMixture:
    """Survival-scaled linear propagation followed by the birth intensity.

    ``fm`` must be dominance reduced, as the results of
    :func:`update_intensity` are.  The moved terms are then reduced too, so
    only those at or below the new floor, max(floor * survival, birth
    floor), are dropped, in index order: the result is
    ``sum_intensities(moved, birth)`` without its pairwise certificates.
    For Gaussian possibility terms, w_i N(m_i, V_i) <= w_j N(m_j, V_j)
    everywhere iff V_i <= V_j (Loewner order) and 2 log(w_j / w_i) >=
    d' (V_j - V_i)^-1 d with d = m_i - m_j.  Prediction maps d to F d and
    V_j - V_i to F (V_j - V_i) F' (Q cancels) and scales both weights by
    the survival, so for an invertible F the condition holds after it iff
    it held before.  :func:`sum_intensities` still reduces the moved terms
    when the birth has Gaussian terms, and when floating point can break
    the argument (:func:`_moves_stay_reduced`): a singular or
    ill-conditioned F, a survival factor that rounds two weights into a
    tie or below the normal range, or a Q large beside the predicted
    covariances.

    An unreduced ``fm`` keeps its dominated terms through propagation
    (``update_intensity`` reduces all of its terms);
    ``dominance_reduce(propagate_intensity(fm, params))`` gives the reduced
    result.
    """
    ms, vs = batch_predict(fm.means, fm.covs, params.trans, params.trans_noise)
    # a weight that underflows to 0 here is dropped with the terms at or below the floor
    ws, floor = fm.weights * params.survival, fm.floor * params.survival
    new_floor = max(floor, params.birth.floor)
    keep = np.flatnonzero(ws > new_floor)
    if params.birth.weights.size or not ws.size or not _moves_stay_reduced(fm, ws, keep, params):
        return sum_intensities(IntensityMixture._trusted(ws, ms, vs, floor), params.birth)
    moved = IntensityMixture._trusted(ws, ms, vs, new_floor)
    return moved if keep.size == ws.size else moved.take(keep)


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
    # detections of term c against observation j at row c * n + j, the
    # newborns; the precisions beside the covariances, one inverse per source
    m_src, v_src, p_src = ([ms], [vs], [fm._precisions()]) if k else ([], [], [])
    d_y = np.maximum(floor, params.clutter.eval_many(ys))
    w_lik = np.empty((k, n))
    if k and n:
        liks, m_post, v_post, _ = batch_kalman_update(ms, vs, ys, params)
        w_lik = ws[:, None] * liks
        d_y = np.maximum(d_y, w_lik.max(axis=0))
        m_src.append(m_post.reshape(k * n, -1))
        v_src.append(v_post)
        p_src.append(np.linalg.inv(v_post))
    if n and floor > 0.0:
        born_m, born_v, born_p = _born_terms(params, params.birth_velocity_std, ys)
        m_src.append(born_m)
        v_src.append(born_v[None])
        p_src.append(born_p[None])
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
    terms = IntensityMixture._trusted(
        new_w.take(sel),
        np.concatenate(m_src).take(m_rows, axis=0),
        np.concatenate(v_src).take(v_rows, axis=0),
        new_floor,
    )
    terms._keep_precisions(np.concatenate(p_src).take(v_rows, axis=0))
    out = dominance_reduce(terms)
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
    already accepted component is skipped.  The candidates are taken
    heaviest first, ties toward the smaller covariance trace; the accepted
    ones are the heads of :func:`_greedy_clusters`.

    ``fm`` must be dominance reduced, as the results of
    :func:`propagate_intensity` and :func:`update_intensity` are.  Then any
    subset that keeps the terms' relative order, like the candidates, is
    reduced too: no certified pair joins two kept terms (the heavier-ranked
    one claims the other), and a certificate has the same bits in any batch.
    An unreduced ``fm`` can yield a dominated candidate that lies outside
    merge_radius of its dominator as a target of its own.
    """
    tau_x = _in_range("tau_x", tau_x, -math.inf, math.inf, "[]")
    merge_radius = _in_range("merge_radius", merge_radius, -math.inf, math.inf, "[]")
    ws = fm.weights
    cands = np.flatnonzero((ws > tau_x) & (ws > fm.floor))
    if not cands.size:
        return []
    cands = cands.take(np.lexsort((np.trace(fm.covs.take(cands, axis=0), axis1=1, axis2=2), -ws.take(cands))))
    terms, rank = fm.take(cands), np.arange(cands.size)
    # near[start[a]:start[a + 1]]: the later candidates within merge_radius of a in a's covariance
    start, near, _ = _gate_rows(terms.means, terms.covs, terms._precisions(), abs(merge_radius), rank)
    _, heads = _greedy_clusters(rank, start, near)
    return list(terms.means.take(heads, axis=0))
