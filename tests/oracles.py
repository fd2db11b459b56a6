"""Brute-force references for the closed-form computations under test."""

import math
from typing import Callable

import numpy as np

from possitrack.mixtures import _quadratic


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


def batch_quadratic(ms: np.ndarray, vs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(x - m_k)' V_k^-1 (x - m_k) for every component k and point x: (k, n).

    The dense reference of the gates: every pair, with the covariances
    inverted on each call.  Summed in the fixed order of the filters'
    ``_quadratic``, so a value has the bits of theirs and does not depend on
    how many points are evaluated with it.
    """
    return _quadratic(xs[None, :, :] - ms[:, None, :], np.linalg.inv(vs)[:, None])
