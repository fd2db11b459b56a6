"""Smoke test of the benchmark in perfbench/ against the current library.

Each workload runs traced, on one unit of work: that exercises every public
call the benchmark makes and its own checks (staged calls equal the whole
step, the traced study reproduces run_benchmark's rows and CSV bytes, the
filter invariants hold).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from timing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", ["study", "clutter", "multi"])
def test_traced_workload_is_correct(workload, tmp_path):
    tracer = Tracer()
    inputs = workloads.prepare(workload, 1, 1, True, tracer)
    out = workloads.run(inputs, tmp_path, tracer)
    assert out.correct
    assert out.failed == 0
