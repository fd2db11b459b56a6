"""Timing helpers: the span recorder, latency statistics and speed normalization.

A span is ``(name, tag, start, end)`` with ``perf_counter`` times and
``tag = (workload, lambda, run, t)``; every span of one scan shares its tag.
Spans are recorded around calls into the program's public functions, from
the benchmark's side, kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []

    def call(self, name: str, tag: tuple, fn, *args):
        """Call ``fn(*args)`` and record its span under ``name``."""
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append((name, tag, t0, perf_counter()))
        return out

    def busy_ms(self, name: str) -> float:
        """Total time spent in spans called ``name``, in ms."""
        return 1e3 * sum(end - start for n, _, start, end in self.spans if n == name)

    def per_scan_ms(self, names) -> np.ndarray:
        """Summed time of the spans in ``names`` for each scan tag, in ms."""
        names = set(names)
        by_tag: dict = defaultdict(float)
        for n, tag, start, end in self.spans:
            if n in names:
                by_tag[tag] += end - start
        return 1e3 * np.array(list(by_tag.values()))

    def dump(self, path) -> None:
        """Write one JSON line per span; times are relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "workload": tag[0], "lambda": tag[1], "run": tag[2], "t": tag[3],
                    "start_s": start - t0, "dur_ms": 1e3 * (end - start),
                }) + "\n")


def tail_percentile(n_samples: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n_samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def latency_stats(samples_ms) -> tuple[float, float, float]:
    """(median, tail value, tail percentile) of per-scan latencies in ms."""
    a = np.asarray(samples_ms, dtype=float)
    if a.size == 0:
        return 0.0, 0.0, 50.0
    p = tail_percentile(a.size)
    return float(np.percentile(a, 50.0)), float(np.percentile(a, p)), p


# ---------------------------------------------------------------------------
# machine-speed normalization
# ---------------------------------------------------------------------------

# The same work can take twice as long from one second to the next on a shared
# machine.  A fixed kernel that does not use possitrack runs between units of
# work; each timing is scaled by CAL_REF_S over the kernel's time around it,
# which turns wall time into time at a reference speed.
CAL_REF_S = 5e-3
_CAL_WINDOW = 5
_CAL_RNG = np.random.default_rng(20260816)
_CAL_SMALL = _CAL_RNG.standard_normal((32, 3, 3))
_CAL_SMALL = _CAL_SMALL @ _CAL_SMALL.transpose(0, 2, 1) + 3.0 * np.eye(3)
_CAL_MEANS = _CAL_RNG.standard_normal((300, 2))


def calibrate() -> float:
    """Run the reference kernel once; returns its wall time in s.

    It mixes what the filters spend time on: interpreter loops that build
    small objects, stacks of tiny linear-algebra calls and a medium
    pairwise quadratic form.
    """
    t0 = perf_counter()
    acc = {}
    for i in range(800):
        acc[(i, i % 7)] = (float(i) * 0.5, i % 3)
    for _ in range(6):
        np.linalg.eigvalsh(_CAL_SMALL)
        np.linalg.inv(_CAL_SMALL)
        np.linalg.cholesky(_CAL_SMALL)
    d = _CAL_MEANS[:, None, :] - _CAL_MEANS[None, :, :]
    np.einsum("knd,de,kne->kn", d, _CAL_SMALL[0, :2, :2], d)
    return perf_counter() - t0


def speed_factors(cal_s) -> np.ndarray:
    """CAL_REF_S over a centred moving mean of the calibration times."""
    c = np.asarray(cal_s, dtype=float)
    k = min(_CAL_WINDOW, c.size)
    padded = np.pad(c, (k // 2, k - 1 - k // 2), mode="edge")
    return CAL_REF_S / np.convolve(padded, np.ones(k) / k, mode="valid")
