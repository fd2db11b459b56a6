"""Single-system detection and tracking with possibility functions.

The state space is extended with one extra point meaning "no system present".
A filtering state is therefore a scalar possibility mass for absence plus a
max-mixture over the usual state space; at least one of the two reaches 1
after every update (something must be fully possible).

The recursion never needs the false-positive rate: with the "no knowledge"
clutter model every observation set is fully possible, and false positives
are absorbed by branch bookkeeping instead of an explicit clutter density.
Appearance can be described either by an explicit mixture or as
observation-driven, in which case a flat term over the state space is carried
and turned into a Gaussian component the first time an observation meets it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass
from typing import Callable

import numpy as np

from .mixtures import (
    LinearGaussianModel,
    MaxMixture,
    NumericalError,
    _Record,
    _check_scalars,
    _in_range,
    _inverse,
    _require_pd,
    _scalar,
    batch_kalman_update,
    batch_predict,
    concat_terms,
    dominance_reduce,
    merge,
    prune,
)

__all__ = [
    "ClutterModel",
    "ObservationDrivenBirth",
    "ExplicitBirth",
    "SingleTargetParams",
    "ExtendedPossibility",
    "canonicalize_observations",
    "clutter_possibility",
    "predict",
    "update",
    "estimate",
    "step",
]


@dataclass(frozen=True)
class ClutterModel:
    """Possibility description of the false-positive set.

    ``card`` maps a count to the possibility of that many false positives;
    ``spatial`` maps one observation to the possibility of its location.
    Both default to None, meaning total ignorance: any finite observation set
    has possibility 1.
    """

    card: Callable[[int], float] | None = None
    spatial: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        for name in ("card", "spatial"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                raise ValueError(f"{name} must be callable or None, got {type(value).__name__}")


# the birth velocity stds whose square, a born term's variance on each
# unobserved coordinate, is a finite normal float
_BIRTH_STD = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max), "[]")


@dataclass(frozen=True)
class ObservationDrivenBirth:
    """Appearance anywhere on the state space, located only once observed.

    Unobserved coordinates (e.g. velocity) get an independent Gaussian
    possibility prior with standard deviation ``velocity_std``.
    """

    velocity_std: float = _scalar(1.0, *_BIRTH_STD)

    def __post_init__(self):
        _check_scalars(self)


@dataclass(frozen=True)
class ExplicitBirth:
    """Appearance described by a fixed Gaussian max-mixture.

    ``mixture`` is checked when it is built.  It must have at least one term
    and no flat term, which :func:`predict` would ignore.  A flat term that a
    state brings along still meets observations in :func:`update`; its
    births get velocity std 1.0.
    """

    mixture: MaxMixture

    def __post_init__(self):
        if not isinstance(self.mixture, MaxMixture):
            raise ValueError(f"explicit birth needs a MaxMixture, got {type(self.mixture).__name__}")
        if not self.mixture.weights.size:
            raise ValueError("explicit birth needs at least one term")
        if self.mixture.flat_weight:
            raise ValueError("explicit birth mixture must have no flat term")


BirthModel = ObservationDrivenBirth | ExplicitBirth


@dataclass(frozen=True)
class SingleTargetParams(LinearGaussianModel):
    """Model matrices and possibility parameters of the single-system filter.

    survival / disappearance are the possibilities of the system staying on
    the state space vs. leaving it; their max must be 1.  remain_absent is
    the possibility of staying absent, missed_detection the possibility of a
    detection failure while present.
    """

    survival: float = _scalar(1.0, 0, 1, "(]")
    disappearance: float = _scalar(0.01, 0, 1, "(]")
    remain_absent: float = _scalar(0.5, 0, 1, "(]")
    missed_detection: float = _scalar(0.2, 0, 1, "(]")
    birth: BirthModel = ObservationDrivenBirth()
    clutter: ClutterModel = ClutterModel()
    prune_threshold: float = _scalar(1e-4, 0, 1, "[)")
    merge_threshold: float = _scalar(3.22, 0, math.inf, "[]")

    def __post_init__(self):
        super().__post_init__()
        if abs(max(self.survival, self.disappearance) - 1.0) > 1e-12:
            raise ValueError("max(survival, disappearance) must equal 1")
        if not isinstance(self.birth, (ObservationDrivenBirth, ExplicitBirth)):
            raise ValueError(
                f"birth must be an ObservationDrivenBirth or an ExplicitBirth, got {type(self.birth).__name__}"
            )
        if not isinstance(self.clutter, ClutterModel):
            raise ValueError(f"clutter must be a ClutterModel, got {type(self.clutter).__name__}")
        if isinstance(self.birth, ExplicitBirth) and self.birth.mixture.dim != self.state_dim:
            raise ValueError("explicit birth components must have the state dimension")


@dataclass(frozen=True)
class ExtendedPossibility(_Record):
    """Filter state: absence mass plus a max-mixture on the state space.

    The recursions build their states with the private ``_trusted``
    (:class:`_Record`), which does not check them again.
    """

    psi_mass: float = _scalar(MISSING, 0, 1, "[]")
    on_s: MaxMixture
    time_index: int = _scalar(0, 0, None, "int")

    def __post_init__(self):
        _check_scalars(self)
        if not isinstance(self.on_s, MaxMixture):
            raise ValueError(f"on_s must be a MaxMixture, got {type(self.on_s).__name__}")

    @staticmethod
    def absent(time_index: int = 0) -> "ExtendedPossibility":
        """Initial state: absence fully possible, nothing on the state space."""
        return ExtendedPossibility(1.0, MaxMixture(), time_index)


def _observation_rows(observations, obs_dim: int) -> np.ndarray:
    """An observation set as a float array with one row per observation.

    ``observations`` is an iterable of observations, or of scalars (a 1-d
    input holds that many scalar observations), or an array of either.  An
    empty set gives a (0, obs_dim) array.  The array is not checked.
    """
    if not isinstance(observations, (np.ndarray, list, tuple)):
        observations = list(observations)  # a set or another iterable
    if not len(observations):
        return np.empty((0, obs_dim))
    arr = np.asarray(observations, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def canonicalize_observations(observations, obs_dim: int) -> np.ndarray:
    """Sort an observation set lexicographically and drop exact duplicates.

    Returns the (n, obs_dim) array of distinct rows in lexicographic order,
    as ``np.unique(arr, axis=0)`` does, with -0.0 stored as 0.0, so the
    bytes do not depend on which of two equal rows came first.  Observations
    form a set: order carries no information and exact duplicates are one
    observation.
    ``observations`` is an iterable of observations, or of scalars when
    obs_dim is 1, or an array of either.
    """
    arr = _observation_rows(observations, obs_dim)
    if arr.ndim != 2 or arr.shape[1] != obs_dim:
        raise ValueError(f"observations must have dimension {obs_dim}")
    if not np.isfinite(arr).all():
        raise ValueError("observations must be finite")
    arr = arr[np.lexsort(arr.T[::-1])]
    new = np.ones(arr.shape[0], dtype=bool)
    new[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[new] + 0.0  # -0.0 + 0.0 is 0.0; no other value changes


def clutter_possibility(model: ClutterModel, observations) -> float:
    """Possibility of a finite set of false positives under the model.

    ``observations`` is read as by :func:`canonicalize_observations`: any
    iterable of observations, or of scalars, each scalar one observation.
    """
    ys = _observation_rows(observations, 1)
    n = ys.shape[0]
    val = 1.0
    if model.card is not None:
        val = _in_range("cardinality possibility", model.card(n), 0, 1, "[]")
    if model.spatial is not None:
        for y in ys:
            val *= _in_range("spatial possibility", model.spatial(y), 0, 1, "[]")
    return val


def _born_terms(params: LinearGaussianModel, velocity_std: float, ys: np.ndarray):
    """Moments of the terms born from observations ``ys`` (n, p) meeting the flat term.

    Observed coordinates take the observation value with the observation
    noise covariance; unobserved coordinates get mean 0 and the velocity
    prior variance.  For a selection observation matrix the product of the
    flat term, the observation likelihood and the velocity prior is exactly
    this Gaussian possibility.  Returns the means (n, d), the one
    covariance they share and its inverse.  Raises NumericalError if that
    covariance is not positive-definite, as happens when the observation
    noise is singular.

    The covariance, its inverse and the observed coordinates depend only on
    the model, so they are built and checked once per parameter object, on
    first use, and kept on it; the covariance and inverse returned are
    read-only.  A failed check is not kept: every call raises it again.
    """
    layout = params.__dict__.get("_birth_layout")
    if layout is None or layout[0] != velocity_std:
        idx, cov = _birth_layout(params, velocity_std)
        prec = _inverse(cov)
        cov.setflags(write=False)
        prec.setflags(write=False)
        layout = (velocity_std, idx, cov, prec)
        object.__setattr__(params, "_birth_layout", layout)
    _, idx, cov, prec = layout
    return _born_means(ys, idx, params.state_dim), cov, prec


def _birth_layout(params: LinearGaussianModel, velocity_std: float):
    """Observed coordinates and the checked covariance of a term born from an observation.

    The coordinates are those that H selects (``params._selected``); any
    other H raises ValueError.
    """
    if params._selected is None:
        raise ValueError("observation-driven birth needs a 0/1 selection observation matrix")
    idx = np.array(params._selected, dtype=np.intp)
    cov = np.eye(params.state_dim) * velocity_std**2
    cov[np.ix_(idx, idx)] = params.obs_noise
    _require_pd(cov, "birth")
    return idx, cov


def _born_means(y, idx: np.ndarray, d: int) -> np.ndarray:
    mean = np.zeros(np.shape(y)[:-1] + (d,))
    mean[..., idx] = y
    return mean


def predict(state: ExtendedPossibility, params: SingleTargetParams) -> ExtendedPossibility:
    """One prediction of the extended state.

    Components propagate through the linear model scaled by survival; the
    absence mass becomes max(remain_absent * psi, disappearance * sup on S).
    Appearance adds either explicit components scaled by psi or, in
    observation-driven mode, raises the flat term to psi.
    """
    mix = state.on_s
    ms, vs = batch_predict(mix.means, mix.covs, params.trans, params.trans_noise)
    stacks = [(mix.weights * params.survival, ms, vs)]
    flat_new = mix.flat_weight * params.survival
    psi = state.psi_mass
    if isinstance(params.birth, ObservationDrivenBirth):
        flat_new = max(flat_new, psi)
    elif psi > 0.0:
        birth = params.birth.mixture
        stacks.append((psi * birth.weights, birth.means, birth.covs))
    psi_new = max(params.remain_absent * psi, params.disappearance * mix.sup())
    new_w, new_m, new_v = concat_terms(stacks)
    if not new_w.all():  # a scaled weight can underflow to 0
        keep = new_w > 0.0
        new_w, new_m, new_v = new_w.compress(keep), new_m.compress(keep, axis=0), new_v.compress(keep, axis=0)
    on_s = MaxMixture._trusted(new_w, new_m, new_v, flat_new)
    return ExtendedPossibility._trusted(psi_new, on_s, state.time_index + 1)


def update(state: ExtendedPossibility, params: SingleTargetParams, observations) -> ExtendedPossibility:
    """One update of the extended state with a finite observation set.

    Every component splits into a detection-failure branch (weight scaled by
    missed_detection and the clutter possibility of the whole set) and one
    detection branch per observation (Kalman moments, weight scaled by the
    leave-one-out clutter possibility and the observation likelihood).  The
    flat term follows the same pattern, spawning one located component per
    observation, with the birth model's velocity std (1.0 under
    :class:`ExplicitBirth`).  Everything is renormalized by the global max
    so the posterior is a valid possibility function.  Branches come in this
    order: all detection failures, then the detections of each observation
    in turn, then the births.
    """
    ys = canonicalize_observations(observations, params.obs_dim)
    n_obs = ys.shape[0]
    clutter = params.clutter
    if clutter.card is None and clutter.spatial is None:
        # no knowledge: every observation set is fully possible
        f_all, f_loo = 1.0, np.ones(n_obs)
    else:
        f_all = clutter_possibility(clutter, ys)
        f_loo = np.array(
            [clutter_possibility(clutter, np.delete(ys, j, axis=0)) for j in range(n_obs)]
        )
    mix = state.on_s
    ws, ms, vs = mix.weights, mix.means, mix.covs
    a_df = params.missed_detection
    k = ws.size
    # each branch with the precisions of its covariances: one inverse per distinct covariance
    branches = [(ws * (a_df * f_all), ms, vs, mix._precisions())]
    if k and n_obs:
        liks, m_post, v_post, _ = batch_kalman_update(ms, vs, ys, params)
        det_w = ws[:, None] * liks * f_loo[None, :]
        branches.append((
            det_w.T.ravel(),
            m_post.swapaxes(0, 1).reshape(-1, ms.shape[1]),
            np.tile(v_post, (n_obs, 1, 1)),
            np.tile(_inverse(v_post), (n_obs, 1, 1)),
        ))

    flat = mix.flat_weight
    flat_mis = flat * a_df * f_all
    if flat > 0.0 and n_obs:
        vel_std = (
            params.birth.velocity_std
            if isinstance(params.birth, ObservationDrivenBirth)
            else 1.0
        )
        means, cov, prec = _born_terms(params, vel_std, ys)
        branches.append((flat * f_loo, means, np.broadcast_to(cov, (n_obs, *cov.shape)),
                         np.broadcast_to(prec, (n_obs, *prec.shape))))

    new_w, new_m, new_v, new_p = concat_terms(branches)
    psi_un = state.psi_mass * f_all
    c_t = float(np.max(new_w, initial=max(psi_un, flat_mis)))
    if not (c_t > 0.0) or not math.isfinite(c_t):
        raise NumericalError(f"posterior has no positive possibility (C_t = {c_t!r})")

    keep = new_w > 0.0
    on_s = MaxMixture._trusted(
        new_w.compress(keep) / c_t, new_m.compress(keep, axis=0), new_v.compress(keep, axis=0), flat_mis / c_t
    )
    on_s._keep_precisions(new_p.compress(keep, axis=0))
    return ExtendedPossibility._trusted(psi_un / c_t, on_s, state.time_index)


def _declaration(state: ExtendedPossibility) -> tuple[np.ndarray | None, float]:
    """The top term's mean, None unless w1 > the absence mass, and the margin w1 - w2.

    The terms are ranked once: by weight, weight ties toward the smaller
    covariance trace, then toward the lower index.  With fewer than two
    terms the flat weight is w2.  :func:`estimate` declares the mean at
    tau_c iff it is not None and the margin exceeds tau_c.  An empty mixture
    gives (None, -inf).  The mean is a read-only view into the state.
    """
    mix = state.on_s
    ws = mix.weights
    if not ws.size:
        return None, -math.inf
    if ws.size == 1:
        top, w2 = 0, mix.flat_weight
    else:
        ranked = np.lexsort((np.trace(mix.covs, axis1=1, axis2=2), -ws))
        top, w2 = ranked[0], ws[ranked[1]]
    w1 = ws[top]
    return (mix.means[top] if w1 > state.psi_mass else None), float(w1 - w2)


def estimate(state: ExtendedPossibility, tau_c: float) -> np.ndarray | None:
    """Declared state estimate, or None when no system is confirmed.

    The top component mean is returned iff its weight beats the absence mass
    and beats the runner-up weight by more than tau_c.  With fewer than two
    components the flat term plays runner-up.  Weight ties are broken toward
    the smaller covariance trace; a tie with the absence mass stays absent.
    tau_c may be any float, ±inf included, but not NaN.
    """
    tau_c = _in_range("tau_c", tau_c, -math.inf, math.inf, "[]")
    mean, margin = _declaration(state)
    if mean is not None and margin > tau_c:
        return mean.copy()
    return None


def step(state: ExtendedPossibility, params: SingleTargetParams, observations) -> ExtendedPossibility:
    """predict -> update -> prune -> dominance reduction -> merge."""
    post = update(predict(state, params), params, observations)
    mix = prune(post.on_s, params.prune_threshold)
    mix = dominance_reduce(mix)
    return ExtendedPossibility._trusted(post.psi_mass, merge(mix, params.merge_threshold), post.time_index)
