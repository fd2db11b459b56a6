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
recursion is batched algebra over that stack.  Stacks are read-only.  The
precisions V^-1 are one more stack (k, d, d): the update inverts each
distinct covariance it derives once and lays the inverses out as the
covariances, ``take`` gathers them with the covariances, and the reductions
and ``eval_many`` read them where they would invert.  An H whose every row
is one 1 among 0s is read as the coordinates it selects, decided once per
model: by the Kalman update, for one row, with no matrix products and no
1 x 1 inverse, and by the observation-driven birth.  Both keep every output
bit.  The
one way into a mixture is ``MaxMixture(weights, means, covs, flat_weight)``,
which checks the stack in full; a stack that a recursion derives from checked
stacks is not checked again.  The recursions check only what their
arithmetic can break, such as the positive definiteness of a predicted or
posterior covariance, and raise :class:`NumericalError` when it breaks.  A
mixture's ``components`` gives its terms back as unchecked
:class:`GaussianPossibility` records.  The reduction
operations (pruning, dominance removal, merging) keep mixtures small;
dominance removal is exact while merging is an approximation with a
reportable pointwise error bound.  Both compare only the pairs of terms whose
means lie close enough in coordinate 0 to interact, which gives the same
result as comparing every pair.  Merging decides its absorptions from the
gate's quadratics, with a margin that sends every close call to the exact
sequential rule, and solves only the separations of the inflations it keeps,
in batches, so its result has the bits of that rule.

Rows of a stack are gathered with ``a.take(idx, axis=0)`` and
``a.compress(mask, axis=0)``, not with ``a[idx]`` or ``a[mask]``.  Both copy
the same bytes, but numpy's advanced indexing costs far more per call: for
4400 rows of a (200, 2) stack, 96 µs against 8 µs for ``take`` (numpy 2.4,
one core).  The reductions gather a few such stacks per head, so the
difference is a large part of their time.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# exp(-745) is still a positive double; anything below underflows to 0.
EXP_FLOOR = -745.0

__all__ = [
    "EXP_FLOOR",
    "NumericalError",
    "GaussianPossibility",
    "MaxMixture",
    "prune",
    "dominance_reduce",
    "merge",
    "merge_with_report",
]


class NumericalError(RuntimeError):
    """Linear-algebra failure inside a recursion: a covariance that is no longer
    positive-definite, a singular innovation, a non-finite normalization, ..."""


def _floored_exp(exponent):
    """exp with the exponent clamped at EXP_FLOOR so results stay positive."""
    return np.exp(np.maximum(exponent, EXP_FLOOR))


def _inverse(covs: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(covs)``, raising NumericalError where LAPACK finds a matrix singular."""
    try:
        return np.linalg.inv(covs)
    except np.linalg.LinAlgError as err:  # a Cholesky check passes some of these
        raise NumericalError("a covariance is singular to working precision") from err


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
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError(f"{name} must be positive semi-definite")
    return mat


def _in_range(name: str, value, lo: float, hi: float, closed: str) -> float:
    """``float(value)``, or ValueError unless it lies in the interval from lo to hi.

    ``closed`` is the interval's brackets: "[]", "[)", "(]" or "()".  NaN lies
    in no interval, and an infinite value only in one whose end at that
    infinity is closed.  A string or a bool is not a number, so it lies in
    none either.  An int past the float range counts as ±inf.
    """
    try:
        v = math.nan if isinstance(value, (str, bool, np.bool_)) else float(value)
    except OverflowError:  # copysign would convert the int again
        v = math.inf if value > 0 else -math.inf
    above = lo <= v if closed[0] == "[" else lo < v
    below = v <= hi if closed[1] == "]" else v < hi
    if not (above and below):
        raise ValueError(f"{name} must be in {closed[0]}{lo!r}, {hi!r}{closed[1]}, got {value!r}")
    return v


def _as_count(name: str, value, lo: int) -> int:
    """``operator.index(value)``, or ValueError unless value is an integer
    (bools excluded) of at least lo."""
    try:
        n = operator.index(value)
    except TypeError:  # 2.5, nan, None, ...
        n = lo - 1
    if n < lo or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return n


def _scalar(default, lo, hi, closed: str):
    """A dataclass field that :func:`_check_scalars` checks and stores: a float in the interval of
    :func:`_in_range`, or with ``closed="int"`` (``hi`` None) an :func:`_as_count` count of at least
    ``lo``.  A ``default`` of ``dataclasses.MISSING`` makes the field required."""
    return field(default=default, metadata={"rule": (lo, hi, closed)})


def _check_scalars(obj) -> None:
    """Store each field of the dataclass ``obj`` declared with :func:`_scalar`
    as its rule returns it, a float or an int, or raise ValueError."""
    for f in fields(obj):
        if "rule" in f.metadata:
            lo, hi, closed = f.metadata["rule"]
            value = getattr(obj, f.name)
            value = _as_count(f.name, value, lo) if closed == "int" else _in_range(f.name, value, lo, hi, closed)
            object.__setattr__(obj, f.name, value)


def _checked_stack(weights, means, covs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copies of a stack of k terms, after checking every term.

    Each weight must lie in (0, 1], each mean must be finite and each
    covariance must be finite and symmetric positive-definite; shapes must be
    (k,), (k, d) and (k, d, d).  No terms given as empty sequences are
    stored as (0,), (0, 0) and (0, 0, 0).
    """
    w = np.array(weights, dtype=float)
    m = np.array(means, dtype=float)
    v = np.array(covs, dtype=float)
    if not m.size and m.ndim == 1:  # no terms, given as empty sequences
        m, v = m.reshape(0, 0), v.reshape(0, 0, 0)
    k = w.shape[0] if w.ndim == 1 else -1
    if m.ndim != 2 or m.shape[0] != k or v.shape != (k, m.shape[1], m.shape[1]):
        raise ValueError(
            f"stack shapes {w.shape}, {m.shape}, {v.shape} are not (k,), (k, d), (k, d, d)"
        )
    bad = ~((w > 0.0) & (w <= 1.0))
    if bad.any():
        raise ValueError(f"weights must be in (0, 1], got {float(w[bad][0])!r}")
    if not np.isfinite(m).all():
        raise ValueError("means must be finite")
    if not np.isfinite(v).all():
        raise ValueError("covs must be finite")
    if not np.allclose(v, np.swapaxes(v, 1, 2), rtol=1e-9, atol=1e-12):
        raise ValueError("cov must be symmetric")
    try:
        np.linalg.cholesky(v)
    except np.linalg.LinAlgError as err:
        raise ValueError("cov must be positive-definite") from err
    return w, m, v


class _Record:
    """Base of the frozen records that the recursions derive: mixtures,
    filter states and model matrices.

    A public constructor checks what it is given and stores it with
    :meth:`_fill`.  A recursion stores what it derived from checked records
    with :meth:`_trusted`, which checks nothing.  Either way an array is
    kept, not copied, and made read-only.
    """

    @classmethod
    def _trusted(cls, *values):
        """A record of ``values``, the constructor's arguments in field order, stored without checks.

        Each value must be one the public constructor would store: a float
        array that nothing else writes to, with the shape and the values it
        checks for, or a float or an int where it stores one.
        """
        rec = object.__new__(cls)
        rec._fill(values)
        return rec

    def _fill(self, values) -> None:
        """Store ``values`` as the leading fields, in field order, and make the arrays among them read-only."""
        # a local name and an exact type test: every recursion builds a few records per scan
        fields, array = self.__dict__, np.ndarray
        for name, value in zip(self.__match_args__, values):  # the dataclass's fields, in order
            if type(value) is array:
                value.setflags(write=False)
            fields[name] = value


class GaussianPossibility(NamedTuple):
    """One term ``weight * N(x; mean, cov)`` of a mixture, as
    :attr:`MaxMixture.components` gives it: a plain record, not checked."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class MaxMixture(_Record):
    """Pointwise max of weighted Gaussian terms plus an optional flat term.

    The terms are one stack: ``weights`` (k,), ``means`` (k, d) and ``covs``
    (k, d, d), read-only copies checked when the mixture is built.
    ``flat_weight`` is the value of a constant term over the whole space; 0
    means no flat term.  eval(x) = max(flat_weight, max_i w_i N(x; m_i, V_i)).
    ``MaxMixture()`` is the empty mixture.  The recursions build their
    results with the private ``_trusted`` (:class:`_Record`), which does not
    check them again.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    flat_weight: float

    def __init__(self, weights=(), means=(), covs=(), flat_weight: float = 0.0):
        w, m, v = _checked_stack(weights, means, covs)
        self._fill((w, m, v, _in_range("flat_weight", flat_weight, 0, 1, "[]")))

    @property
    def components(self) -> tuple[GaussianPossibility, ...]:
        """The terms as records, built on each access; their means and covs
        are views of the read-only stack."""
        return tuple(map(GaussianPossibility, self.weights.tolist(), self.means, self.covs))

    def take(self, idx):
        """The mixture of the terms at the integer indices ``idx``, in that order, with the same flat term.

        Kept precisions (:meth:`_precisions`) are gathered with the covariances.
        """
        out = self._trusted(
            self.weights.take(idx), self.means.take(idx, axis=0), self.covs.take(idx, axis=0), self.flat_weight
        )
        kept = self.__dict__.get("_precs")
        if kept is not None:
            out._keep_precisions(kept.take(idx, axis=0))
        return out

    def _precisions(self) -> np.ndarray:
        """The inverses of ``covs`` (k, d, d), read-only.

        Kept beside the stack, not as a field: the update that built the
        terms stores them, :meth:`take` gathers them, and otherwise they are
        computed on first use, one ``np.linalg.inv`` call, and kept.  Each is
        one LAPACK inverse of its own covariance, so it has the same bits
        whichever stack it was inverted in.  The stack is read-only, so they
        cannot go stale.
        """
        kept = self.__dict__.get("_precs")
        return self._keep_precisions(_inverse(self.covs)) if kept is None else kept

    def _keep_precisions(self, precs: np.ndarray) -> np.ndarray:
        """Keep ``precs`` (k, d, d), ``np.linalg.inv`` of each term's
        covariance, read-only as the precisions of the terms, and return it."""
        precs.setflags(write=False)
        self.__dict__["_precs"] = precs
        return precs

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
        quads = _quadratic(xs[None, :, :] - self.means[:, None, :], self._precisions()[:, None])  # (k, n)
        vals = self.weights[:, None] * _floored_exp(-0.5 * quads)
        out = vals.max(axis=0)
        return np.maximum(out, self.flat_weight)

    def sup(self) -> float:
        """Global supremum: attained at a component mean or by the flat term."""
        return float(np.max(self.weights, initial=self.flat_weight))


def concat_terms(stacks: Sequence[tuple]) -> tuple[np.ndarray, ...]:
    """Concatenate (weights, means, covs) stacks, or (weights, means, covs,
    precisions) stacks, in order; ``stacks`` holds at least one.

    Empty stacks are skipped: a mixture built without terms does not know
    its dimension and stores (0, 0) means.
    """
    filled = [s for s in stacks if len(s[0])]
    if not filled:
        return (np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), np.empty((0, 0, 0)))[: len(stacks[0])]
    return tuple(np.concatenate(parts) for parts in zip(*filled))


def _quadratic(dd: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """``d' P d`` over the last axes of dd (..., d) and prec (..., d, d).

    The terms are summed in one fixed order (row index outer) rather than by
    einsum, whose summation order changes with the array shapes, so a value
    does not depend on which other values are computed with it.
    """
    q = np.zeros(dd.shape[:-1])
    for a in range(dd.shape[-1]):
        for b in range(dd.shape[-1]):
            q += dd[..., a] * prec[..., a, b] * dd[..., b]
    return q


# ---------------------------------------------------------------------------
# linear-Gaussian model, prediction and update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianModel(_Record):
    """Linear motion ``x' = F x`` with noise Q and observation ``y = H x`` with noise R.

    The base of the filters' parameter classes.  The four matrices are
    checked here, once: all finite, Q and R symmetric positive semi-definite,
    shapes consistent.  They are stored as read-only copies, so the recursions use
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
        for arr, name in ((trans, "trans"), (obs, "obs")):  # _require_psd checked the noises
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        self._fill((trans.copy(), noise.copy(), obs.copy(), obs_noise.copy()))
        _check_scalars(self)  # the scalars a subclass declares
        # the coordinate that each row of H picks when every row is one 1 among 0s, else None; the Kalman
        # update and the observation-driven birth read H as these indices
        selects = ((obs == 0.0) | (obs == 1.0)).all() and ((obs == 1.0).sum(axis=1) == 1).all()
        object.__setattr__(self, "_selected", tuple(obs.argmax(axis=1).tolist()) if selects else None)

    @property
    def state_dim(self) -> int:
        return self.trans.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[0]


def _require_pd(covs: np.ndarray, what: str) -> None:
    """Raise NumericalError unless every covariance in the stack is finite and positive-definite.

    One batched Cholesky factorization; it does not fail on NaN or inf, but
    its factor is then not finite.
    """
    try:
        ok = np.isfinite(np.linalg.cholesky(covs)).all()
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        raise NumericalError(f"{what} covariance is not finite and positive-definite")


def batch_predict(ms: np.ndarray, vs: np.ndarray, trans: np.ndarray, noise: np.ndarray):
    """Means ``F m_k`` (k, d) and covariances ``F V_k F' + Q`` (k, d, d) of k terms.

    ``trans`` and ``noise`` are used as given; callers check them.  An empty
    stack is returned unchanged, whatever its dimension.  Raises
    NumericalError if a predicted covariance is not positive-definite.
    """
    if not len(ms):
        return ms, vs
    means = (trans @ ms[:, :, None])[:, :, 0]
    covs = trans @ vs @ trans.T + noise
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    _require_pd(covs, "predicted")
    return means, covs


def batch_kalman_update(ms, vs, ys, model: LinearGaussianModel):
    """Kalman update of k Gaussian terms against n observations at once.

    Returns (likelihoods (k, n), posterior means (k, n, d), posterior covs
    (k, d, d), innovation covs (k, p, p)), for the observation matrix H and
    noise R of ``model``.  Neither covariance depends on the observation
    value.  Raises NumericalError if any innovation covariance is not
    finite and positive-definite or any posterior covariance is not
    positive-definite.

    When H is one row that selects coordinate i (``model._selected``, decided
    once, when the model is built), H is read as that index: S = V[:, i, i] +
    R, checked by its sign and finiteness, S^-1 = 1 / S and the gain
    V[:, :, i] S^-1.
    For finite V these are the bits of the matrix products, of the Cholesky
    check and of the LAPACK inverse of a 1 x 1 S, so both ways give the same
    four outputs.
    """
    ms = np.asarray(ms, dtype=float)
    vs = np.asarray(vs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    obs, obs_noise, selected = model.obs, model.obs_noise, model._selected
    d = ms.shape[1]
    if selected is None or len(selected) != 1:
        s = obs @ vs @ obs.T + obs_noise  # (k, p, p)
        s = 0.5 * (s + np.swapaxes(s, 1, 2))
        _require_pd(s, "innovation")
        s_inv = _inverse(s)
        gain = vs @ obs.T @ s_inv  # (k, d, p)
    else:
        i = selected[0]
        s = vs[:, i, i, None, None] + obs_noise
        # the symmetrization above doubles S, which overflows past half the float range
        if not ((s > 0.0) & (s <= 0.5 * sys.float_info.max)).all():
            raise NumericalError("innovation covariance is not finite and positive-definite")
        s_inv = 1.0 / s
        gain = vs[:, :, i, None] * s_inv
    innov = ys[None, :, :] - (obs @ ms[:, :, None])[:, None, :, 0]  # (k, n, p)
    quad = np.einsum("knp,kpq,knq->kn", innov, s_inv, innov)
    liks = _floored_exp(-0.5 * quad)
    m_post = ms[:, None, :] + np.einsum("kdp,knp->knd", gain, innov)
    eye = np.eye(d)
    v_post = (eye[None, :, :] - gain @ obs) @ vs
    v_post = 0.5 * (v_post + np.swapaxes(v_post, 1, 2))
    _require_pd(v_post, "posterior")
    return liks, m_post, v_post, s


# ---------------------------------------------------------------------------
# mixture reduction
# ---------------------------------------------------------------------------


def prune(mix: MaxMixture, tau_p: float) -> MaxMixture:
    """Remove components below tau_p; the max-weight component is always kept.

    Pruning changes the mixture value by at most tau_p at any point.
    """
    tau_p = _in_range("tau_p", tau_p, 0, 1, "[)")
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

# relative margin below which a 2x2 principal minor's smallest eigenvalue
# rules a dominance certificate out without eigvalsh (_dominance_certificates);
# 1e5 times _DOMINANCE_TOL, far above the rounding it has to cover
_SCREEN_MARGIN = 1e-9

# relative widening of a candidate window's radius.  The Cauchy-Schwarz bound
# behind the window is exact, the quadratic computed for a pair is not; this
# slack keeps every pair whose computed quadratic can pass (for covariances
# with condition number below about 1e12).  A wider window only adds pairs
# that the exact test then rejects.
_WINDOW_SLACK = 1.001


def _window_pairs(x: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (a, b) with ``|x_b - x_a| <= radius_a``, grouped by a.

    One sort of x and two binary searches per a: O(k log k) time plus the
    number of pairs returned.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    lo = np.searchsorted(xs, x - radius, side="left")
    counts = np.searchsorted(xs, x + radius, side="right") - lo
    rows = np.repeat(np.arange(x.size), counts)
    first = np.cumsum(counts) - counts  # where each row's pairs start
    cols = order[np.arange(rows.size) - np.repeat(first - lo, counts)]
    return rows, cols


def _gate_rows(ms, vs, ps, tau, rank=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms within tau of each mean in the metric of its own covariance.

    ``ps`` are the precisions ``inv(vs)``.  Returns ``(start, nbrs, quads)``:
    ``nbrs[start[a]:start[a + 1]]`` are the b with
    ``(m_b - m_a)' V_a^-1 (m_b - m_a) <= tau**2``, a itself included, or
    only those with ``rank[b] > rank[a]`` when ``rank`` is given, and
    ``quads`` holds that quadratic beside each pair.  By Cauchy-Schwarz the
    quadratic is at least ``d0**2 / V_a[0, 0]``, d0 being the difference in
    coordinate 0, so only the terms within ``tau * sqrt(V_a[0, 0])`` of m_a
    in coordinate 0 are tested.  The result is exactly that of testing every
    pair; time and memory grow with the number of pairs in those windows,
    quadratic only when all means share coordinate 0.
    """
    rows, cols = _window_pairs(ms[:, 0], tau * _WINDOW_SLACK * np.sqrt(vs[:, 0, 0]))
    if rank is not None:
        later = rank.take(cols) > rank.take(rows)
        rows, cols = rows.compress(later), cols.compress(later)
    dd = ms.take(cols, axis=0) - ms.take(rows, axis=0)
    quads = _quadratic(dd, ps.take(rows, axis=0))
    gated = quads <= tau * tau
    start = np.searchsorted(rows.compress(gated), np.arange(ms.shape[0] + 1))
    return start, cols.compress(gated), quads.compress(gated)


def _greedy_clusters(order, start, nbrs) -> tuple[np.ndarray, np.ndarray]:
    """The heaviest-first rule shared by dominance reduction, IPDA's merge and extraction.

    ``order`` ranks the terms, heaviest first, and ``nbrs[start[a]:start[a + 1]]``
    are the terms paired with a, each ranked after a (the form that
    :func:`_gate_rows` returns).  The terms are visited in ``order``;
    a term that no head has claimed becomes a head and claims the unclaimed
    terms paired with it.  This is GM-PHD's extraction and merge rule (Vo &
    Ma, IEEE TSP 2006).  Returns each term's cluster, numbered in the order
    of the heads, and the heads in that order.
    """
    start, nbrs = start.tolist(), nbrs.tolist()
    label = [-1] * order.size
    heads: list[int] = []
    for h in order.tolist():
        if label[h] < 0:
            label[h] = len(heads)
            for j in nbrs[start[h]:start[h + 1]]:
                if label[j] < 0:
                    label[j] = len(heads)
            heads.append(h)
    return np.asarray(label), np.asarray(heads, dtype=np.intp)


@functools.cache
def _minor_positions(n: int) -> np.ndarray:
    """Flat positions in an n x n matrix of the entries a, c, b of each of its
    2x2 principal submatrices ``[[a, b], [b, c]]``, as a read-only (3, n(n-1)/2) array."""
    p, q = np.triu_indices(n, 1)
    pos = np.stack([p * (n + 1), q * (n + 1), p * n + q])
    pos.setflags(write=False)
    return pos


def _dominance_certificates(
    ws: np.ndarray, ms: np.ndarray, ps: np.ndarray, js: np.ndarray, iis: np.ndarray
) -> np.ndarray:
    """Certify ``w_i N(.; m_i, V_i) <= w_j N(.; m_j, V_j)`` everywhere, for each pair (j, i).

    In log space the difference of the two terms is a quadratic; it is
    nonnegative on all of R^d iff its homogenized (d+1)x(d+1) symmetric
    matrix A is positive semi-definite.  ps are the precision matrices V^-1
    and w_j >= w_i for every pair.  A pair is certified when the smallest
    eigenvalue of A, from ``eigvalsh``, is at least
    ``-_DOMINANCE_TOL * max(1, max|A|)``.

    Most pairs fail, and a cheap screen rejects them first.  By Cauchy
    interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28) the smallest
    eigenvalue of A is at most that of each of its 2x2 principal submatrices
    ``[[a, b], [b, c]]``, which is ``(a + c)/2 - sqrt(((a - c)/2)**2 + b**2)``.
    A pair for which one of these lies below
    ``-_SCREEN_MARGIN * max(1, max|A|)`` is not certified.  The margin is far
    wider than the rounding of that closed form, eigvalsh's backward error (a
    few eps times the norm of A) and the few ulps by which the screen's
    ``np.log`` can differ from the ``math.log`` of the exact check, so the
    screen rejects only pairs that eigvalsh would reject too.  The pairs it
    leaves get the exact matrices and one batched eigvalsh call, and the
    certified set is bit for bit that of running eigvalsh on every pair.  A
    NaN or -inf screen value (non-finite entries, such as the log of a w_j /
    w_i past the float range, or squares past it) leaves its pair to eigvalsh.
    """
    d = ms.shape[1]
    pm = (ps @ ms[:, :, None])[:, :, 0]  # P m
    mpm = ((ms[:, None, :] @ ps) @ ms[:, :, None])[:, 0, 0]  # m' P m
    half_b = 0.5 * (pm.take(js, axis=0) - pm.take(iis, axis=0))
    corner = 0.5 * (mpm.take(iis) - mpm.take(js))
    mats = np.empty((js.size, d + 1, d + 1))
    mats[:, :d, :d] = 0.5 * (ps.take(iis, axis=0) - ps.take(js, axis=0))
    mats[:, :d, d] = half_b
    mats[:, d, :d] = half_b
    w_j, w_i = ws.take(js), ws.take(iis)
    with np.errstate(over="ignore", invalid="ignore"):  # left to eigvalsh below
        mats[:, d, d] = np.log(w_j / w_i) + corner
        a, c, b = mats.reshape(js.size, (d + 1) ** 2).T[_minor_positions(d + 1)]
        minor_min = (0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b * b)).min(axis=0)
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    ruled_out = (-np.inf < minor_min) & (minor_min < -_SCREEN_MARGIN * scale)
    undecided = np.flatnonzero(~ruled_out)
    certified = np.zeros(js.size, dtype=bool)
    if undecided.size:
        mats = mats.take(undecided, axis=0)
        # math.log, not np.log: the two differ in the last bit on some inputs.
        # A subnormal w_i makes w_j / w_i inf; only there are the logs subtracted
        log_ratio = [math.log(r) if (r := wj / wi) < math.inf else math.log(wj) - math.log(wi)
                     for wj, wi in zip(w_j.take(undecided).tolist(), w_i.take(undecided).tolist())]
        mats[:, d, d] = np.asarray(log_ratio) + corner.take(undecided)
        tol = _DOMINANCE_TOL * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        certified[undecided] = np.linalg.eigvalsh(mats)[:, 0] >= -tol
    return certified


def dominance_reduce(mix: MaxMixture) -> MaxMixture:
    """Remove components that provably never attain the mixture max.

    A component is removed when it is certified pointwise-dominated by the
    flat term or by a single heavier-ranked component that is kept, taking
    the components from the heaviest down, so the mixture value is unchanged
    everywhere: the kept components are the heads of :func:`_greedy_clusters`
    over the certified pairs.  Pairwise certificates only: a component
    dominated jointly by several others but by none alone is kept.  The
    mixture itself is returned when nothing is removed.

    Component j can dominate i only if j's term at m_i reaches w_i, which
    needs ``(m_i - m_j)' V_j^-1 (m_i - m_j) <= 2 log(w_j / w_i)``.  By
    Cauchy-Schwarz that quadratic is at least ``d0**2 / V_j[0, 0]``, d0 being
    the difference in coordinate 0, so j is compared only with the terms
    within ``sqrt(2 log(w_j / w_min) V_j[0, 0])`` of m_j in coordinate 0.  The
    window skips only pairs that cannot pass, so the result is exactly that
    of comparing every pair.  The certificates of the pairs left are computed
    in one batch by :func:`_dominance_certificates`, which rules most of them
    out with the 2x2 principal minors of their matrices and runs eigvalsh only
    on the rest.

    The work stops as soon as nothing is left to decide: at most one term
    above the flat term, no window pair with the heavier-ranked term first,
    no pair past the test at m_i, or no certified pair.  Each exit skips the
    steps after it (the precisions, the certificates, the greedy
    rule), so a call that removes only terms at or below the flat term costs
    a comparison and a gather, and one that removes nothing costs the
    windows.  Time and memory grow with the number of pairs in the windows:
    quadratic in the worst case, when all means share coordinate 0.
    """
    survivors = np.flatnonzero(mix.weights > mix.flat_weight)
    if survivors.size < mix.weights.size:
        mix = mix.take(survivors)
    if survivors.size > 1:
        heads = _dominance_heads(mix)
        if heads is not None:
            mix = mix.take(heads)
    return mix


def _dominance_heads(mix: MaxMixture) -> np.ndarray | None:
    """The terms that :func:`dominance_reduce` keeps of a mixture of at least
    two terms, all above the flat term, in index order, or None when it
    keeps them all."""
    ws, ms, vs = mix.weights, mix.means, mix.covs
    order = np.argsort(-ws, kind="stable")
    rank = np.empty(ws.size, dtype=np.intp)
    rank[order] = np.arange(ws.size)
    # the largest quadratic at which j can pass the cheap test below, for
    # the lightest i; past the exponent floor it passes at any distance
    reach = 2.0 * (np.log(ws) - np.log(ws.min()) - math.log1p(-1e-9)) * _WINDOW_SLACK
    reach[reach >= -2.0 * EXP_FLOOR] = np.inf
    js, iis = _window_pairs(ms[:, 0], np.sqrt(reach * vs[:, 0, 0]))
    ahead = rank.take(js) < rank.take(iis)
    if not ahead.any():
        return None
    js, iis = js.compress(ahead), iis.compress(ahead)
    ps = mix._precisions()
    # cheap necessary condition: j can only dominate i if j's term at i's mean
    # reaches i's weight
    dd = ms.take(iis, axis=0) - ms.take(js, axis=0)
    # an ill-conditioned precision can round the quadratic below 0 and the
    # exp past the float range; inf passes the test and leaves the pair to
    # the exact certificates
    with np.errstate(over="ignore"):
        vals = ws.take(js) * _floored_exp(-0.5 * _quadratic(dd, ps.take(js, axis=0)))
    reaches = vals >= ws.take(iis) * (1.0 - 1e-9)
    if not reaches.any():
        return None
    js, iis = js.compress(reaches), iis.compress(reaches)
    certified = _dominance_certificates(ws, ms, ps, js, iis)
    if not certified.any():
        return None
    # js is still grouped by row, so the certified pairs are in the form of _gate_rows
    js, iis = js.compress(certified), iis.compress(certified)
    _, heads = _greedy_clusters(order, np.searchsorted(js, np.arange(ws.size + 1)), iis)
    return np.sort(heads)


# absorption is declined when covering the absorbed peak would more than
# double the variance along the separation direction (s > 2 * beta)
_MERGE_COVER_LIMIT = 2.0

# relative margin around beta and 2 beta inside which a screened separation
# decides no member (_decide_cluster); it doubles with each inflation in the
# cluster.  The gate quadratic d' inv(V) d and the solved d' V^-1 d each
# differ from the exact value by at most about d u kappa**2 relative (u =
# 2**-53, kappa the condition number of V; Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 13-14), below 4.5e-8 for d <= 4 under
# the conditioning guard below.  An inflation can at most halve a separation
# (1 + gamma s = s / beta <= 2), so a Sherman-Morrison update at most doubles
# the relative error of the quadratics it updates, whence the doubling.  On
# the calls of the default study, runs 0-5 at rates 1, 5 and 10, runs 0-7
# at rate 30 and run 0 at rate 100 (2.43M gate pairs), the two differ by at
# most 6.6e-15 relative.
_MERGE_MARGIN = 1e-6

# conditioning guard of the screen: a head's cluster is screened only while
# trace(V) trace(V^-1), at least the condition number of V, stays at most
# this for its running covariance V.  An inflation adds gamma |d|**2 to
# trace(V) and can only shrink trace(V^-1), so the head's own trace(V^-1)
# keeps the product an upper bound.  The calls above reach a condition
# number of 990.
_MERGE_COND_LIMIT = 1e4

# a screened separation at or below this can be 0 or not through underflow,
# so with beta = 0 (s > 0 declines, s = 0 absorbs) it decides no member
_MERGE_FLOOR = 1e-200


def _absorb_cluster(w_h: float, m_h: np.ndarray, v_h: np.ndarray, weights, means, cluster):
    """Absorb the terms ``cluster``, in order, into the head term (w_h, m_h, v_h).

    ``weights`` (a list) and ``means`` (a (k, d) array) are indexed by the
    entries of ``cluster``.  The merged term keeps the head's weight and mean.  Each absorption of a
    term j inflates the running covariance to ``V + gamma * dd'`` with
    ``d = m_j - m_h`` and ``gamma = max(0, 1/beta - 1/s)``, where
    ``s = d' V^-1 d`` and ``beta = 2 log(w_h / w_j)``.  That gamma is the
    smallest scale for which the merged term at m_j reaches w_j (gamma = 0
    when the running term already covers it).  Absorption is declined when
    coverage would require inflating the variance along d by more than
    ``_MERGE_COVER_LIMIT``; such components are genuinely distinct hypotheses
    and keeping them costs less than destabilizing the covariance.

    Each s is solved on its own, with the running covariance.  Returns the
    merged covariance and the absorbed and declined indices, in order.
    """
    v_cur = v_h
    absorbed: list[int] = []
    declined: list[int] = []
    for j in cluster:
        w_j = weights[j]
        beta = 2.0 * math.log(w_h / w_j) if w_j < w_h else 0.0
        d = means[j] - m_h
        s = d @ np.linalg.solve(v_cur, d)
        if s > 0.0:
            if s > _MERGE_COVER_LIMIT * beta:
                declined.append(j)
                continue
            gamma = max(0.0, 1.0 / beta - 1.0 / s)
            if gamma > 0.0:
                v_new = v_cur + gamma * np.outer(d, d)
                v_cur = 0.5 * (v_new + v_new.T)
        absorbed.append(j)
    return v_cur, absorbed, declined


class _MergeTerms(NamedTuple):
    """A mixture's terms in the forms that merge's loop reads."""

    weights: list[float]
    means: np.ndarray  # (k, d)
    mean_rows: list[list[float]]  # the same, as lists
    covs: np.ndarray  # (k, d, d)
    precs: np.ndarray  # their inverses
    trace_v: list[float]  # traces of covs
    trace_p: list[float]  # traces of precs


def _decide_cluster(w_h: float, h: int, cluster, terms: _MergeTerms, screen: bool):
    """Absorb or decline each member of a cluster for the head term h, of weight w_h.

    ``cluster`` lists the members in order, each with its gate quadratic
    ``d' P_h d``, P_h being the head's precision.  Returns the absorbed and
    declined members, the inflated members with their beta, and the merged
    covariance.

    With ``screen`` true, the decisions of :func:`_absorb_cluster` are made
    from screened separations, and the covariance is None, left to
    :func:`_replay_inflations`.  The gate quadratic stands in for s until
    the first inflation.  Each inflation ``V + gamma d d'``, gamma taken from
    the screened s, turns the running precision P into ``P - c x x'``
    (Sherman-Morrison), with ``x = P d`` and ``c = gamma / (1 + gamma s)``;
    a later member's screened s is its gate quadratic less ``c (x' d_j)**2``
    per inflation.  With tol the margin ``_MERGE_MARGIN`` doubled per
    inflation so far, a member is absorbed as is when its value is at most
    ``beta (1 - tol)``, inflated when it lies in
    ``(beta (1 + tol), 2 beta (1 - tol)]`` and declined above
    ``2 beta (1 + tol)`` (and above ``_MERGE_FLOOR``, for beta = 0).  An
    inflation only shrinks s, so a member whose gate quadratic is at most
    ``beta (1 - _MERGE_MARGIN)`` is absorbed as is without an update.

    When a value lies in none of these ranges, or the running covariance
    fails the guard ``_MERGE_COND_LIMIT``, or ``screen`` is false,
    _absorb_cluster decides the whole cluster and gives its covariance, and
    no member is listed as inflated.
    """
    trace_v, trace_p = terms.trace_v[h], terms.trace_p[h]
    if screen and trace_v * trace_p <= _MERGE_COND_LIMIT:
        weights, rows, m_h = terms.weights, terms.mean_rows, terms.mean_rows[h]
        log, settled, tol = math.log, 1.0 - _MERGE_MARGIN, _MERGE_MARGIN
        absorbed, declined, inflated = [], [], []
        # (c, x) per inflation, in plain lists: d is small, and numpy's per-call cost is not
        steps: list[tuple[float, list[float]]] = []
        for j, q in cluster:
            w_j = weights[j]
            beta = 2.0 * log(w_h / w_j) if w_j < w_h else 0.0
            if beta > 0.0 and q <= beta * settled:
                absorbed.append(j)
                continue
            if steps:
                d = [a - b for a, b in zip(rows[j], m_h)]
                us = [sum(map(operator.mul, x, d)) for _, x in steps]
                for (c, _), u in zip(steps, us):
                    q -= c * u * u
            cover = _MERGE_COVER_LIMIT * beta
            if beta > 0.0 and q <= beta * (1.0 - tol):
                absorbed.append(j)
            elif q > cover * (1.0 + tol) and q > _MERGE_FLOOR:
                declined.append(j)
            elif beta * (1.0 + tol) < q <= cover * (1.0 - tol):
                gamma = 1.0 / beta - 1.0 / q
                if not steps:
                    d, us, p_h = [a - b for a, b in zip(rows[j], m_h)], [], terms.precs[h].tolist()
                trace_v += gamma * sum(map(operator.mul, d, d))
                if trace_v * trace_p > _MERGE_COND_LIMIT:
                    break
                x = [sum(map(operator.mul, row, d)) for row in p_h]
                for (c, x_k), u in zip(steps, us):
                    x = [a - c * u * b for a, b in zip(x, x_k)]
                steps.append((gamma / (1.0 + gamma * q), x))
                tol *= 2.0
                absorbed.append(j)
                inflated.append((j, beta))
            else:
                break
        else:
            return absorbed, declined, inflated, None
    v_cur, absorbed, declined = _absorb_cluster(
        w_h, terms.means[h], terms.covs[h], terms.weights, terms.means, [j for j, _ in cluster]
    )
    return absorbed, declined, [], v_cur


def _replay_inflations(m_arr: np.ndarray, v_arr: np.ndarray, chains) -> dict[int, np.ndarray] | None:
    """The covariances that :func:`_absorb_cluster` gives the screened heads.

    ``chains`` lists ``(key, h, inflated)`` for each screened head h with at
    least one inflation, ``inflated`` being its inflated members with their
    beta, in order.  Round r solves the r-th separation of every chain that
    has one, in one ``np.linalg.solve`` on the stack of their running
    covariances, and inflates them elementwise as _absorb_cluster does, so
    each covariance has the bits of absorbing its chain alone.  Returns the
    covariances by key, or None when a solved separation does not call for
    the inflation that its screen decided.
    """
    chains = sorted(chains, key=lambda chain: -len(chain[2]))
    heads = [h for _, h, _ in chains]
    # round r takes the r-th step of the first counts[r] chains in this order
    steps, counts = [], []
    for r in range(len(chains[0][2])):
        steps += [(h, *inflated[r]) for _, h, inflated in chains if len(inflated) > r]
        counts.append(len(steps) - sum(counts))
    hs, js, betas = zip(*steps)
    deltas = m_arr.take(js, axis=0) - m_arr.take(hs, axis=0)
    rows, cols = deltas[:, None, :], deltas[:, :, None]
    outers = cols * rows
    covs = v_arr.take(heads, axis=0)
    at = 0
    for n in counts:
        seps = (rows[at:at + n] @ np.linalg.solve(covs[:n], cols[at:at + n]))[:, 0, 0].tolist()
        gammas = []
        for beta, s in zip(betas[at:at + n], seps):
            gamma = 1.0 / beta - 1.0 / s
            if not (0.0 < s <= _MERGE_COVER_LIMIT * beta and gamma > 0.0):
                return None
            gammas.append(gamma)
        v_new = covs[:n] + np.array(gammas).reshape(n, 1, 1) * outers[at:at + n]
        covs[:n] = 0.5 * (v_new + v_new.transpose(0, 2, 1))
        at += n
    return {key: cov for (key, _, _), cov in zip(chains, covs)}


def _overshoot_bound(w_i: float, v_orig: np.ndarray, v_new: np.ndarray) -> float:
    """Sup of (merged - original dominant term): exact for shared means."""
    lam = np.linalg.eigvals(np.linalg.solve(v_orig, v_new)).real.max()
    if lam <= 1.0 + 1e-12:
        return 0.0
    rho = 1.0 / lam
    return float(w_i * (rho ** (rho / (1.0 - rho)) - rho ** (1.0 / (1.0 - rho))))


# the grid on which _deficit_bound maximizes its envelope, and the envelope's
# first term without its weight; built once, read-only.  Past the first
# _DEFICIT_HEAD points that term is at most _DEFICIT_TAIL_MAX (about exp(-32)).
_DEFICIT_U = np.linspace(0.0, 42.0, 21001)
_DEFICIT_PEAK = _floored_exp(-0.5 * _DEFICIT_U**2)
_DEFICIT_U.setflags(write=False)
_DEFICIT_PEAK.setflags(write=False)
_DEFICIT_HEAD = 4001
_DEFICIT_TAIL_MAX = float(_DEFICIT_PEAK[_DEFICIT_HEAD:].max())


def _deficit_bound(
    w_i: float, m_i: np.ndarray, v_new: np.ndarray, w_js: np.ndarray, m_js: np.ndarray, v_js: np.ndarray
) -> float:
    """Upper bound on sup of (absorbed term - merged term), the largest over
    the terms (w_js, m_js, v_js) absorbed into the term at m_i of weight w_i.

    Uses the norm inequality |x - m_i|_{V_new} <= sqrt(kappa) |x - m_j|_{V_j} + delta
    and maximizes the resulting one-dimensional envelope
    ``w_j exp(-u**2 / 2) - w_i exp(-(sqrt(kappa) u + delta)**2 / 2)``
    numerically on a grid of 21001 points, all absorbed terms at once.  The
    envelope is at most its first term, so when its maximum over the first
    _DEFICIT_HEAD points is positive and w_j * _DEFICIT_TAIL_MAX does not
    exceed it, no later point can, and the rest of the grid is skipped with
    the maximum of evaluating it.
    """
    deltas, sks = [], []
    for m_j, v_j in zip(m_js, v_js):
        dm = m_j - m_i
        deltas.append(math.sqrt(max(float(dm @ np.linalg.solve(v_new, dm)), 0.0)))
        sks.append(math.sqrt(max(float(np.linalg.eigvals(np.linalg.solve(v_new, v_j)).real.max()), 0.0)))
    deltas, sks = np.array(deltas)[:, None], np.array(sks)[:, None]

    def envelope_max(rows, cols: slice) -> np.ndarray:
        return (w_js[rows, None] * _DEFICIT_PEAK[cols] - w_i * _floored_exp(
            -0.5 * (sks[rows] * _DEFICIT_U[cols] + deltas[rows]) ** 2
        )).max(axis=1)

    top = envelope_max(slice(None), slice(_DEFICIT_HEAD))
    open_rows = np.flatnonzero(~((top > 0.0) & (w_js * _DEFICIT_TAIL_MAX <= top)))
    if open_rows.size:
        tail = envelope_max(open_rows, slice(_DEFICIT_HEAD, None))
        top[open_rows] = np.maximum(top.take(open_rows), tail)
    slack = 1.5 * np.maximum(w_js, w_i) * (_DEFICIT_U[1] - _DEFICIT_U[0])
    return float((np.maximum(0.0, top) + slack).max())


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
    :func:`_absorb_cluster`).  The merged component keeps i's weight and
    mean; its covariance is inflated just enough to cover each absorbed
    peak.  This is a deliberate approximation: the result can differ
    pointwise from the input (see :func:`merge_with_report` for bounds).
    The gate tests only the pairs of a coordinate-0 window
    (:func:`_gate_rows`), with the result of testing every pair.

    This is not the rule of :func:`_greedy_clusters`: a declined component
    goes back into the queue after the ungated ones, and only an absorption
    re-sorts the queue by weight, so a declined component can head a later
    cluster ahead of heavier ones.  The dense reference in the tests pins
    this order.

    The queue is a heap keyed by (-w, seq) followed by a tail in seq order,
    where seq is a counter issued in append order: first to the terms in
    stable order of decreasing weight, then to each declined term as it
    joins the tail.  Every seq in the tail is larger than every seq in the
    heap, so a stable sort by -w of the whole queue is the order by
    (-w, seq), and an absorption re-sorts it by pushing the tail into the
    heap.  A head's cluster is the queued members of its gate row, in queue
    order.

    Each member is decided from the gate's own quadratic, updated by
    Sherman-Morrison after an inflation; close calls and ill-conditioned
    heads go through the exact :func:`_absorb_cluster`
    (:func:`_decide_cluster`).  The inflations alone are solved, after the
    loop, with the bits of _absorb_cluster (:func:`_replay_inflations`).  A
    call costs O(log k) per head and per queue move, the head's gate row, a
    few float operations per member and O(d**2) per inflation, plus one
    batched solve per round of inflations.
    """
    out, _ = _merge_impl(mix, tau_m, report=False)
    return out


def _merge_impl(mix: MaxMixture, tau_m: float, report: bool):
    tau_m = _in_range("tau_m", tau_m, 0, math.inf, "[]")
    if mix.weights.size <= 1:
        return mix, []
    w_arr, m_arr, v_arr = mix.weights, mix.means, mix.covs
    ps = mix._precisions()
    gate = _gate_rows(m_arr, v_arr, ps, tau_m)
    if gate[1].size == w_arr.size:  # each term gates only itself: each heads its own cluster
        return mix.take(np.argsort(-w_arr, kind="stable")), []
    # a replayed separation that contradicts its screen reruns the call on the exact path
    heads, absorbs, merged = (
        _merge_heads(mix, ps, *gate, screen=True) or _merge_heads(mix, ps, *gate, screen=False)
    )
    bounds: list[float] = []
    if report:
        ws = w_arr.tolist()
        for i, (h, absorbed) in enumerate(zip(heads, absorbs)):
            if absorbed:
                v_cur = merged.get(i, v_arr[h])
                over = _overshoot_bound(ws[h], v_arr[h], v_cur)
                deficit = _deficit_bound(
                    ws[h], m_arr[h], v_cur, w_arr.take(absorbed), m_arr.take(absorbed, axis=0),
                    v_arr.take(absorbed, axis=0),
                )
                bounds.append(max(over, deficit))
    if bounds:
        logger.debug("merge: %d events, worst pointwise error bound %.3g", len(bounds), max(bounds))
    heads = np.asarray(heads)
    order = np.argsort(-w_arr.take(heads), kind="stable")
    idx = heads.take(order)
    covs = v_arr.take(idx, axis=0)
    if merged:
        place = np.empty_like(order)  # place[i]: where heads[i] goes
        place[order] = np.arange(order.size)
        covs[place.take(list(merged))] = np.stack(list(merged.values()))
    return mix._trusted(w_arr.take(idx), m_arr.take(idx, axis=0), covs, mix.flat_weight), bounds


def _merge_heads(mix: MaxMixture, ps: np.ndarray, start, gate, quads, screen: bool):
    """The queue loop of :func:`merge` over the gate rows ``(start, gate, quads)`` of :func:`_gate_rows`.

    Returns the heads in the order taken, the members each absorbed, and
    the merged covariance of each head whose cluster may have changed it,
    keyed by the head's place in that order; or None when ``screen`` is true
    and a replayed separation contradicts its screened decision.
    """
    w_arr, m_arr, v_arr = mix.weights, mix.means, mix.covs
    start = start.tolist()
    neg = -w_arr
    ws, neg_w, order = w_arr.tolist(), neg.tolist(), neg.argsort(kind="stable").tolist()
    terms = _MergeTerms(ws, m_arr, m_arr.tolist(), v_arr, ps, v_arr.trace(axis1=1, axis2=2).tolist(),
                        ps.trace(axis1=1, axis2=2).tolist())
    # seq[j]: term j's queue seq, -1 once it heads or joins a cluster.  An
    # entry (.., s, j) of the heap or the tail is live while seq[j] == s.
    seq = [0] * len(order)
    for s, j in enumerate(order):
        seq[j] = s
    heap = [(neg_w[j], s, j) for s, j in enumerate(order)]  # sorted, so a heap
    tail: list[tuple[int, int]] = []  # (seq, j), declined since the last absorption
    # the tail holds exactly the live terms with seq >= tail_from
    next_seq = tail_from = left = len(order)
    tail_at = 0
    heads: list[int] = []
    absorbs: list[list[int]] = []
    merged: dict[int, np.ndarray] = {}
    chains: list[tuple[int, int, list]] = []  # (place in heads, h, inflated) of the screened heads
    while left:
        h = -1
        while heap and h < 0:
            _, s, j = heapq.heappop(heap)
            h = j if seq[j] == s else -1
        while h < 0:
            s, j = tail[tail_at]
            tail_at += 1
            h = j if seq[j] == s else -1
        seq[h] = -1
        left -= 1
        a, b = start[h], start[h + 1]
        absorbed, cluster = [], []
        if b - a > 1:  # the row holds more than h itself
            cluster = [(j, q) for j, q in zip(gate[a:b].tolist(), quads[a:b].tolist()) if seq[j] >= 0]
        if cluster:
            if len(cluster) > 1:
                cluster.sort(key=lambda jq: (1.0 if seq[jq[0]] >= tail_from else neg_w[jq[0]], seq[jq[0]]))
            absorbed, declined, inflated, v_cur = _decide_cluster(ws[h], h, cluster, terms, screen)
            if inflated:
                chains.append((len(heads), h, inflated))
            elif v_cur is not None:
                merged[len(heads)] = v_cur
            for j in absorbed:
                seq[j] = -1
            left -= len(absorbed)
            for j in declined:
                seq[j] = next_seq
                tail.append((next_seq, j))
                next_seq += 1
        if absorbed:
            for s, j in tail[tail_at:]:
                if seq[j] == s:
                    heapq.heappush(heap, (neg_w[j], s, j))
            tail, tail_at, tail_from = [], 0, next_seq
        heads.append(h)
        absorbs.append(absorbed)
    if chains:
        replayed = _replay_inflations(m_arr, v_arr, chains)
        if replayed is None:
            return None
        merged.update(replayed)
    return heads, absorbs, merged
