"""Smoke test of tools/state_hash.py: a rerun gives the same digests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "state_hash.py"
_SPEC = importlib.util.spec_from_file_location("state_hash", _PATH)
state_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(state_hash)


def test_reruns_give_equal_digests():
    cases, scenes = ((1.0, 0), (10.0, 1)), (2,)
    first = state_hash.digests(cases, scenes)
    assert list(first) == ["pf", "ipda", "intensity"]
    assert state_hash.digests(cases, scenes) == first
    # the digests see the states: another run gives other ones
    other = state_hash.digests(((1.0, 1),), ())
    assert other["pf"] != first["pf"] and other["ipda"] != first["ipda"]


def test_compare_marks_each_section_and_any_difference():
    theirs = {"pf": "aa", "ipda": "bb", "intensity": "cc"}
    lines, same = state_hash.compare(dict(theirs), theirs)
    assert same and lines == ["pf aa aa equal", "ipda bb bb equal", "intensity cc cc equal"]
    lines, same = state_hash.compare({"pf": "aa", "ipda": "bx", "intensity": "cc"}, theirs)
    assert not same and lines[1] == "ipda bb bx DIFFERENT"
    lines, same = state_hash.compare({"pf": "aa", "ipda": "bb"}, theirs)
    assert not same and lines[2] == "intensity cc - DIFFERENT"


def test_a_merge_that_differs_from_merge_with_report_exits_2(monkeypatch, capsys):
    # merge reaches its result without the bounds: every scan checks it against
    # merge_with_report's mixture; here merge is made to return its input
    small = state_hash.digests
    monkeypatch.setattr(state_hash, "merge", lambda mix, tau_m: mix)
    with pytest.raises(state_hash.MergeMismatch):
        small(((10.0, 0),), ())
    monkeypatch.setattr(state_hash, "digests", lambda: small(((10.0, 0),), ()))
    assert state_hash.main([]) == 2
    assert "merge and merge_with_report differ at lambda 10.0, run 0, t " in capsys.readouterr().err


def test_an_intensity_that_dominance_reduce_reduces_exits_2(monkeypatch, capsys):
    # extract_targets reads the filter's intensities as reduced: every scan
    # checks that dominance_reduce returns them as themselves; here it
    # returns a copy
    small = state_hash.digests
    monkeypatch.setattr(state_hash, "dominance_reduce", lambda mix: mix.take(np.arange(mix.weights.size)))
    with pytest.raises(state_hash.NotReduced):
        small((), (2,))
    monkeypatch.setattr(state_hash, "digests", lambda: small((), (2,)))
    assert state_hash.main([]) == 2
    assert "dominance_reduce reduces propagate_intensity's output in scene 2, t 0" in capsys.readouterr().err
