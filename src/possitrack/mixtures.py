"""Gaussian possibility functions and max-mixtures.

A possibility function assigns each state a credibility in [0, 1] and has
supremum 1; nothing here integrates to 1.  The Gaussian possibility

    N(x; m, V) = exp(-0.5 (x - m)' V^-1 (x - m))

peaks at exactly 1, so a weighted term ``w * N(x; m, V)`` attains its weight
at its mean.  A max-mixture is the pointwise maximum of finitely many such
terms plus an optional constant term ("flat" term) representing total
ignorance over the whole space.

Filtering with these objects replaces integrals by suprema, which keeps the
usual Kalman algebra intact: propagating a Gaussian term through a linear
transition and fusing it with a linear-Gaussian observation both stay in
closed form.  A mixture of k terms in d dimensions is therefore stored as one
stack, ``weights`` (k,), ``means`` (k, d) and ``covs`` (k, d, d), and every
recursion is batched algebra over that stack.  The stack is checked once,
when the mixture is built, and is read-only afterwards.
:class:`GaussianPossibility` is the single-term type for callers; a
mixture's ``components`` builds those terms on request.  The reduction
operations (pruning, dominance removal, merging) keep mixtures small;
dominance removal is exact while merging is an approximation with a
reportable pointwise error bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# exp(-745) is still a positive double; anything below underflows to 0.
EXP_FLOOR = -745.0

__all__ = [
    "EXP_FLOOR",
    "NumericalError",
    "GaussianPossibility",
    "MaxMixture",
    "predict_gaussian",
    "update_gaussian",
    "prune",
    "dominance_reduce",
    "merge",
    "merge_with_report",
    "grid_sup_oracle",
]


class NumericalError(RuntimeError):
    """Linear-algebra failure: singular innovation, non-finite weight, ..."""


def _floored_exp(exponent):
    """exp with the exponent clamped at EXP_FLOOR so results stay positive."""
    return np.exp(np.maximum(exponent, EXP_FLOOR))


def _as_vector(x, name="x") -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-d vector, got shape {v.shape}")
    return v


def _as_matrix(a, name="matrix") -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    return m


def _require_psd(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate a symmetric positive semi-definite matrix (e.g. process noise)."""
    mat = _as_matrix(mat, name)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError(f"{name} must be positive semi-definite")
    return mat


def _checked_stack(weights, means, covs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only copies of a stack of k terms, after checking every term.

    Each weight must lie in (0, 1] and each covariance must be symmetric
    positive-definite; shapes must be (k,), (k, d) and (k, d, d).
    """
    w = np.array(weights, dtype=float)
    m = np.array(means, dtype=float)
    v = np.array(covs, dtype=float)
    k = w.shape[0] if w.ndim == 1 else -1
    if m.ndim != 2 or m.shape[0] != k or v.shape != (k, m.shape[1], m.shape[1]):
        raise ValueError(
            f"stack shapes {w.shape}, {m.shape}, {v.shape} are not (k,), (k, d), (k, d, d)"
        )
    bad = ~((w > 0.0) & (w <= 1.0))
    if bad.any():
        raise ValueError(f"weights must be in (0, 1], got {w[bad][0]!r}")
    if not np.allclose(v, np.swapaxes(v, 1, 2), rtol=1e-9, atol=1e-12):
        raise ValueError("cov must be symmetric")
    try:
        np.linalg.cholesky(v)
    except np.linalg.LinAlgError as err:
        raise ValueError("cov must be positive-definite") from err
    for a in (w, m, v):
        a.setflags(write=False)
    return w, m, v


@dataclass(frozen=True, eq=False)
class GaussianPossibility:
    """One weighted Gaussian possibility term ``w * N(x; m, V)``.

    weight must lie in (0, 1]; cov must be symmetric positive-definite.
    Instances are immutable and hold their own copies of mean and cov.
    """

    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = _as_vector(self.mean, "mean")
        v = _as_matrix(self.cov, "cov")
        w, ms, vs = _checked_stack([self.weight], m[None], v[None])
        object.__setattr__(self, "weight", float(w[0]))
        object.__setattr__(self, "mean", ms[0])
        object.__setattr__(self, "cov", vs[0])

    @property
    def dim(self) -> int:
        return self.mean.size

    def __call__(self, x) -> float:
        x = _as_vector(x)
        if x.size != self.dim:
            raise ValueError(f"point has dim {x.size}, component has dim {self.dim}")
        d = x - self.mean
        quad = d @ np.linalg.solve(self.cov, d)
        return float(self.weight * _floored_exp(-0.5 * quad))


@dataclass(frozen=True, eq=False, init=False)
class MaxMixture:
    """Pointwise max of weighted Gaussian terms plus an optional flat term.

    The terms are one stack: ``weights`` (k,), ``means`` (k, d) and ``covs``
    (k, d, d), read-only copies checked when the mixture is built.
    ``flat_weight`` is the value of a constant term over the whole space; 0
    means no flat term.  eval(x) = max(flat_weight, max_i w_i N(x; m_i, V_i)).

    ``MaxMixture(components, flat_weight)`` builds a mixture from
    :class:`GaussianPossibility` terms and :meth:`from_arrays` from a stack;
    both run the same checks.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    flat_weight: float

    def __init__(self, components: Sequence[GaussianPossibility] = (), flat_weight: float = 0.0):
        comps = tuple(components)
        if not all(isinstance(c, GaussianPossibility) for c in comps):
            raise ValueError("components must be GaussianPossibility instances")
        if len({c.dim for c in comps}) > 1:
            raise ValueError("components must share one state dimension")
        if comps:
            stack = ([c.weight for c in comps], [c.mean for c in comps], [c.cov for c in comps])
        else:
            stack = (np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)))
        self._set(*stack, flat_weight)

    @classmethod
    def from_arrays(cls, weights, means, covs, flat_weight: float = 0.0):
        """The mixture of the stack ``weights`` (k,), ``means`` (k, d), ``covs`` (k, d, d)."""
        mix = object.__new__(cls)
        mix._set(weights, means, covs, flat_weight)
        return mix

    def _set(self, weights, means, covs, flat_weight):
        w, m, v = _checked_stack(weights, means, covs)
        b = float(flat_weight)
        if not (0.0 <= b <= 1.0) or not math.isfinite(b):
            raise ValueError(f"flat_weight must be in [0, 1], got {b!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", v)
        object.__setattr__(self, "flat_weight", b)

    @property
    def components(self) -> tuple[GaussianPossibility, ...]:
        """The terms as GaussianPossibility objects, built on each access."""
        return tuple(
            GaussianPossibility(w, m, v) for w, m, v in zip(self.weights, self.means, self.covs)
        )

    def take(self, idx):
        """The mixture of the terms at ``idx``, in that order, with the same flat term."""
        return type(self).from_arrays(
            self.weights[idx], self.means[idx], self.covs[idx], self.flat_weight
        )

    @property
    def dim(self) -> int | None:
        return self.means.shape[1] if self.weights.size else None

    def __call__(self, x) -> float:
        return float(self.eval_many(_as_vector(x)[None, :])[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at many points; xs has shape (n,) for 1-d or (n, d)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if not self.weights.size:
            return np.full(xs.shape[0], self.flat_weight)
        if xs.shape[1] != self.dim:
            raise ValueError(f"points have dim {xs.shape[1]}, mixture has dim {self.dim}")
        quads = batch_quadratic(self.means, self.covs, xs)  # (k, n)
        vals = self.weights[:, None] * _floored_exp(-0.5 * quads)
        out = vals.max(axis=0)
        return np.maximum(out, self.flat_weight)

    def sup(self) -> float:
        """Global supremum: attained at a component mean or by the flat term."""
        return float(np.max(self.weights, initial=self.flat_weight))


def concat_terms(stacks: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate (weights, means, covs) stacks in order.

    Empty stacks are skipped: a mixture built without terms does not know
    its dimension and stores (0, 0) means.
    """
    stacks = [s for s in stacks if len(s[0])]
    if not stacks:
        return np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0))
    return tuple(np.concatenate(parts) for parts in zip(*stacks))


def batch_quadratic(ms: np.ndarray, vs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(x - m_k)' V_k^-1 (x - m_k) for every component k and point x: (k, n)."""
    inv = np.linalg.inv(vs)  # (k, d, d)
    d = xs[None, :, :] - ms[:, None, :]  # (k, n, d)
    return np.einsum("knd,kde,kne->kn", d, inv, d)


# ---------------------------------------------------------------------------
# linear-Gaussian model, prediction and update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear motion ``x' = F x`` with noise Q and observation ``y = H x`` with noise R.

    The base of the filters' parameter classes.  The four matrices are
    checked here, once: Q and R symmetric positive semi-definite, shapes
    consistent.  They are stored as read-only copies, so the recursions use
    them without checking them again.
    """

    trans: np.ndarray
    trans_noise: np.ndarray
    obs: np.ndarray
    obs_noise: np.ndarray

    def __post_init__(self):
        trans = _as_matrix(self.trans, "trans")
        noise = _require_psd(self.trans_noise, "trans_noise")
        obs = _as_matrix(self.obs, "obs")
        obs_noise = _require_psd(self.obs_noise, "obs_noise")
        d = trans.shape[0]
        if trans.shape != (d, d) or noise.shape != (d, d):
            raise ValueError("trans and trans_noise must be square with equal size")
        if obs.shape[1] != d or obs_noise.shape != (obs.shape[0], obs.shape[0]):
            raise ValueError("obs/obs_noise shapes inconsistent with state dim")
        for arr, name in ((trans, "trans"), (noise, "trans_noise"), (obs, "obs"), (obs_noise, "obs_noise")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def state_dim(self) -> int:
        return self.trans.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[0]


def batch_predict(ms: np.ndarray, vs: np.ndarray, trans: np.ndarray, noise: np.ndarray):
    """Means ``F m_k`` (k, d) and covariances ``F V_k F' + Q`` (k, d, d) of k terms.

    ``trans`` and ``noise`` are used as given; callers check them.  An empty
    stack is returned unchanged, whatever its dimension.
    """
    if not len(ms):
        return ms, vs
    means = (trans @ ms[:, :, None])[:, :, 0]
    covs = trans @ vs @ trans.T + noise
    return means, 0.5 * (covs + np.swapaxes(covs, 1, 2))


def predict_gaussian(
    g: GaussianPossibility, trans: np.ndarray, noise: np.ndarray, gain: float
) -> GaussianPossibility:
    """Propagate one term through a linear transition with Gaussian possibility noise.

    The sup-convolution of ``w N(x'; m, V)`` with ``gain * N(x; F x', Q)`` is
    again Gaussian: weight ``gain * w``, mean ``F m``, covariance ``F V F' + Q``.
    ``noise`` may be singular (positive semi-definite) as long as the output
    covariance stays positive-definite.
    """
    trans = _as_matrix(trans, "transition")
    noise = _require_psd(noise, "noise covariance")
    gain = float(gain)
    if not (0.0 < gain <= 1.0):
        raise ValueError(f"gain must be in (0, 1], got {gain!r}")
    if trans.shape != (g.dim, g.dim):
        raise ValueError(f"transition shape {trans.shape} does not match dim {g.dim}")
    means, covs = batch_predict(g.mean[None], g.cov[None], trans, noise)
    return GaussianPossibility(gain * g.weight, means[0], covs[0])


def update_gaussian(
    g: GaussianPossibility, y, obs: np.ndarray, obs_noise: np.ndarray
) -> tuple[GaussianPossibility, float]:
    """Fuse one term with a linear-Gaussian observation ``N(y; H x, R)``.

    Returns the posterior term (same weight as the input; the caller composes
    branch weights) and the scalar possibility likelihood ``N(y; H m, S)``
    with ``S = H V H' + R``.
    """
    y = _as_vector(y, "observation")
    obs = _as_matrix(obs, "observation matrix")
    obs_noise = _as_matrix(obs_noise, "observation noise")
    if obs.shape != (y.size, g.dim):
        raise ValueError(
            f"observation matrix shape {obs.shape} does not match obs dim {y.size} / state dim {g.dim}"
        )
    liks, m_post, v_post = batch_kalman_update(
        np.asarray([g.mean]), np.asarray([g.cov]), np.asarray([y]), obs, obs_noise
    )
    post = GaussianPossibility(g.weight, m_post[0, 0], v_post[0])
    return post, float(liks[0, 0])


def batch_kalman_update(ms, vs, ys, obs, obs_noise):
    """Kalman update of k Gaussian terms against n observations at once.

    Returns (likelihoods (k, n), posterior means (k, n, d), posterior covs (k, d, d)).
    The posterior covariance does not depend on the observation value.
    Raises NumericalError if any innovation covariance is singular.
    """
    ms = np.asarray(ms, dtype=float)
    vs = np.asarray(vs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    k, d = ms.shape
    p = ys.shape[1]
    s = obs @ vs @ obs.T + obs_noise  # (k, p, p)
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as err:
        raise NumericalError("singular innovation covariance in update") from err
    s_inv = np.linalg.inv(s)
    gain = vs @ obs.T @ s_inv  # (k, d, p)
    innov = ys[None, :, :] - (obs @ ms[:, :, None])[:, None, :, 0]  # (k, n, p)
    quad = np.einsum("knp,kpq,knq->kn", innov, s_inv, innov)
    liks = _floored_exp(-0.5 * quad)
    m_post = ms[:, None, :] + np.einsum("kdp,knp->knd", gain, innov)
    eye = np.eye(d)
    v_post = (eye[None, :, :] - gain @ obs) @ vs
    v_post = 0.5 * (v_post + np.swapaxes(v_post, 1, 2))
    return liks, m_post, v_post


# ---------------------------------------------------------------------------
# mixture reduction
# ---------------------------------------------------------------------------


def prune(mix: MaxMixture, tau_p: float) -> MaxMixture:
    """Remove components below tau_p; the max-weight component is always kept.

    Pruning changes the mixture value by at most tau_p at any point.
    """
    tau_p = float(tau_p)
    if not (0.0 <= tau_p < 1.0):
        raise ValueError(f"prune threshold must be in [0, 1), got {tau_p!r}")
    ws = mix.weights
    if not ws.size:
        return mix
    kept = np.flatnonzero(ws >= tau_p)
    if not kept.size:
        kept = [int(np.argmax(ws))]
    if len(kept) == ws.size:
        return mix
    return mix.take(kept)


# slack on the log-domain dominance certificate; for values in [0, 1] a log
# slack of eps changes the mixture value by less than eps
_DOMINANCE_TOL = 1e-14


def _dominates(
    w_big: float, m_big: np.ndarray, p_big: np.ndarray,
    w_small: float, m_small: np.ndarray, p_small: np.ndarray,
) -> bool:
    """Certify ``w_small N(.; m_small, V_small) <= w_big N(.; m_big, V_big)`` everywhere.

    In log space the difference of the two terms is a quadratic; it is
    nonnegative on all of R^d iff its homogenized (d+1)x(d+1) symmetric matrix
    is positive semi-definite.  p_* are the precision matrices V_*^-1.
    """
    if w_small > w_big:
        return False
    d = m_big.size
    a = p_small - p_big
    b = p_big @ m_big - p_small @ m_small
    c0 = math.log(w_big / w_small) + 0.5 * (
        m_small @ p_small @ m_small - m_big @ p_big @ m_big
    )
    mat = np.empty((d + 1, d + 1))
    mat[:d, :d] = 0.5 * a
    mat[:d, d] = 0.5 * b
    mat[d, :d] = 0.5 * b
    mat[d, d] = c0
    eigs = np.linalg.eigvalsh(mat)
    tol = _DOMINANCE_TOL * max(1.0, float(np.abs(mat).max()))
    return bool(eigs[0] >= -tol)


def dominance_reduce(mix: MaxMixture) -> MaxMixture:
    """Remove components that provably never attain the mixture max.

    A component is removed when it is certified pointwise-dominated by the
    flat term or by a single other component, so the mixture value is
    unchanged everywhere.  Pairwise certificates only: a component dominated
    jointly by several others but by none alone is kept.
    """
    if not mix.weights.size:
        return mix
    survivors = np.flatnonzero(mix.weights > mix.flat_weight)
    ws, ms, vs = mix.weights[survivors], mix.means[survivors], mix.covs[survivors]
    ps = np.linalg.inv(vs)
    # cheap necessary condition: j can only dominate i if j's term at i's mean
    # reaches i's weight
    quads = batch_quadratic(ms, vs, ms)  # quads[j, i] = (m_i-m_j)' P_j (m_i-m_j)
    vals = ws[:, None] * _floored_exp(-0.5 * quads)

    w, ms, ps = ws.tolist(), list(ms), list(ps)  # Python scalars and rows: faster in the loops
    kept: list[int] = []
    for i in np.argsort(-ws, kind="stable").tolist():
        dominated = False
        for j in kept:
            if vals[j, i] < w[i] * (1.0 - 1e-9):
                continue
            if _dominates(w[j], ms[j], ps[j], w[i], ms[i], ps[i]):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    if len(kept) == mix.weights.size:
        return mix
    return mix.take(survivors[sorted(kept)])


# absorption is declined when covering the absorbed peak would more than
# double the variance along the separation direction (s > 2 * beta)
_MERGE_COVER_LIMIT = 2.0


def _absorb(
    w_i: float, m_i: np.ndarray, v_cur: np.ndarray, w_j: float, m_j: np.ndarray
) -> np.ndarray | None:
    """Inflate the running covariance so the merged term covers the absorbed peak.

    The merged term keeps the dominant weight and mean; covariance becomes
    ``V + gamma * dd'`` with ``d = m_j - m_i`` and ``gamma = max(0, 1/beta - 1/s)``
    where ``s = d' V^-1 d`` and ``beta = 2 log(w_i / w_j)``.  That gamma is the
    smallest scale for which the merged term at m_j reaches w_j (gamma = 0 when
    the dominant term already covers it).  Returns None — absorption declined —
    when coverage would require inflating the variance along d by more than
    ``_MERGE_COVER_LIMIT``; such components are genuinely distinct hypotheses
    and keeping them costs less than destabilizing the covariance.
    """
    delta = m_j - m_i
    s = float(delta @ np.linalg.solve(v_cur, delta))
    if s <= 0.0:
        return v_cur
    beta = 2.0 * math.log(w_i / w_j) if w_j < w_i else 0.0
    if s > _MERGE_COVER_LIMIT * beta:
        return None
    gamma = max(0.0, 1.0 / beta - 1.0 / s)
    if gamma == 0.0:
        return v_cur
    v_new = v_cur + gamma * np.outer(delta, delta)
    return 0.5 * (v_new + v_new.T)


def _overshoot_bound(w_i: float, v_orig: np.ndarray, v_new: np.ndarray) -> float:
    """Sup of (merged - original dominant term): exact for shared means."""
    lam = np.linalg.eigvals(np.linalg.solve(v_orig, v_new)).real.max()
    if lam <= 1.0 + 1e-12:
        return 0.0
    rho = 1.0 / lam
    return float(w_i * (rho ** (rho / (1.0 - rho)) - rho ** (1.0 / (1.0 - rho))))


def _deficit_bound(
    w_i: float, m_i: np.ndarray, v_new: np.ndarray, w_j: float, m_j: np.ndarray, v_j: np.ndarray
) -> float:
    """Upper bound on sup of (absorbed term - merged term).

    Uses the norm inequality |x - m_i|_{V_new} <= sqrt(kappa) |x - m_j|_{V_j} + delta
    and maximizes the resulting one-dimensional envelope numerically.
    """
    dm = m_j - m_i
    delta = math.sqrt(max(float(dm @ np.linalg.solve(v_new, dm)), 0.0))
    kappa = max(float(np.linalg.eigvals(np.linalg.solve(v_new, v_j)).real.max()), 0.0)
    sk = math.sqrt(kappa)
    u = np.linspace(0.0, 42.0, 21001)
    envelope = w_j * _floored_exp(-0.5 * u**2) - w_i * _floored_exp(
        -0.5 * (sk * u + delta) ** 2
    )
    du = u[1] - u[0]
    slack = 1.5 * max(w_j, w_i) * du
    return float(max(0.0, envelope.max()) + slack)


def merge_with_report(mix: MaxMixture, tau_m: float) -> tuple[MaxMixture, list[float]]:
    """Merge like :func:`merge` and also return one error bound per merge event.

    Each bound dominates the pointwise change of the mixture caused by that
    absorption (both underestimation near the absorbed peak and overshoot of
    the inflated covariance).
    """
    return _merge_impl(mix, tau_m, report=True)


def merge(mix: MaxMixture, tau_m: float) -> MaxMixture:
    """Greedily absorb nearby components into the locally dominant one.

    A component j is absorbed into the heaviest remaining component i when
    ``(m_j - m_i)' V_i^-1 (m_j - m_i) <= tau_m ** 2`` and covering j's peak
    needs at most a doubling of variance along the separation (see
    :func:`_absorb`).  The merged component keeps i's weight and mean; its
    covariance is inflated just enough to cover each absorbed peak.  This is
    a deliberate approximation: the result can differ pointwise from the
    input (see :func:`merge_with_report` for bounds).
    """
    out, _ = _merge_impl(mix, tau_m, report=False)
    return out


def _merge_impl(mix: MaxMixture, tau_m: float, report: bool):
    tau_m = float(tau_m)
    if tau_m < 0.0:
        raise ValueError(f"merge threshold must be >= 0, got {tau_m!r}")
    if mix.weights.size <= 1:
        return mix, []
    # in_gate[h, j]: m_j lies within tau_m of m_h in the metric of V_h
    in_gate = (batch_quadratic(mix.means, mix.covs, mix.means) <= tau_m * tau_m).tolist()
    # Python scalars and rows: faster in the loops below
    ws, ms, vs = mix.weights.tolist(), list(mix.means), list(mix.covs)
    bounds: list[float] = []
    heads: list[int] = []
    covs: list[np.ndarray] = []
    remaining = np.argsort(-mix.weights, kind="stable").tolist()
    while remaining:
        h = remaining.pop(0)
        v_cur = vs[h]
        cluster = [j for j in remaining if in_gate[h][j]]
        rest = [j for j in remaining if not in_gate[h][j]]
        absorbed: list[int] = []
        for j in cluster:
            v_next = _absorb(ws[h], ms[h], v_cur, ws[j], ms[j])
            if v_next is None:
                rest.append(j)
            else:
                v_cur = v_next
                absorbed.append(j)
        if absorbed and report:
            over = _overshoot_bound(ws[h], vs[h], v_cur)
            deficit = max(_deficit_bound(ws[h], ms[h], v_cur, ws[j], ms[j], vs[j]) for j in absorbed)
            bounds.append(max(over, deficit))
        heads.append(h)
        covs.append(v_cur)
        # declined components were appended after the ungated ones; only an
        # absorption re-sorts what is left by weight
        remaining = sorted(rest, key=lambda j: -ws[j]) if absorbed else rest
    if bounds:
        logger.debug("merge: %d events, worst pointwise error bound %.3g", len(bounds), max(bounds))
    order = np.argsort(-mix.weights[heads], kind="stable")
    idx = np.asarray(heads)[order]
    merged = type(mix).from_arrays(
        mix.weights[idx], mix.means[idx], np.stack(covs)[order], mix.flat_weight
    )
    return merged, bounds


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def grid_sup_oracle(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, step: float) -> float:
    """Max of a scalar function sampled on the lattice lo, lo+step, ..., hi.

    ``fn`` must accept a 1-d numpy array of sample points and return values
    of the same shape (a constant return value is also accepted).  Intended
    as an independent check of the closed-form sup computations, not for use
    inside the filters.
    """
    lo = float(lo)
    hi = float(hi)
    step = float(step)
    if not (lo < hi) or step <= 0.0:
        raise ValueError("need lo < hi and step > 0")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    xs = lo + step * np.arange(n)
    vals = np.asarray(fn(xs), dtype=float)
    if vals.ndim == 0:
        return float(vals)
    return float(vals.max())
