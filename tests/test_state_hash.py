"""Tests of tools/state_hash.py: a rerun gives the same digests, and a small set keeps its pinned values."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "state_hash.py"
_SPEC = importlib.util.spec_from_file_location("state_hash", _PATH)
state_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(state_hash)


def test_reruns_give_equal_digests():
    cases, scenes, edges, cells = ((1.0, 0), (10.0, 1)), (2,), ("survival",), ((0, 0), (2, 1))
    first = state_hash.digests(cases, scenes, edges, cells)
    assert list(first) == ["pf", "ipda", "intensity", "intensity_edge", "study"]
    assert state_hash.digests(cases, scenes, edges, cells) == first
    # the digests see the states: another run gives other ones
    other = state_hash.digests(((1.0, 1),), (), ("singular_trans",), ((2, 2),))
    assert other["pf"] != first["pf"] and other["ipda"] != first["ipda"]
    assert other["intensity_edge"] != first["intensity_edge"] and other["study"] != first["study"]


def test_digests_keep_their_pinned_values():
    # a change of any value here is a change of output: it lands in its own
    # commit, with the before and after values in CHANGES.md
    got = state_hash.digests(((1.0, 0), (10.0, 1), (30.0, 0)), (2,), state_hash.EDGE_CASES, ((0, 0), (2, 1)))
    assert got == {
        "pf": "0d54b6f18ad5e3265756db8c43799f7a82a88c9a66cd0e44fc1dc1c11287ec1b",
        "ipda": "aa5f3b97297204c808e24f061037396801fcc228a8ebe382308afd7db51ce3e8",
        "intensity": "75cf6a45bb5a83e8bf2b45c8a7a253886e74e197e7b26542574cfc2e0244ede4",
        "intensity_edge": "fb1fa4d249ee29ce8420966b7819cb33b9cec5fe9017472ecdfc5cdeff359ea0",
        "study": "93866a421bf893602b84419d4fac9f856e5964a30e173e63c1231af8360b94ee",
    }


def test_the_study_section_covers_the_default_rates_three_runs_each():
    assert state_hash.STUDY_CELLS == tuple((li, run) for li in range(3) for run in range(3))
    assert state_hash.default_config().lambda_list == (1.0, 5.0, 10.0)


def test_each_edge_scene_changes_the_parameters_of_one_path():
    scenes = state_hash._scenes()
    base = scenes.params()
    assert state_hash.EDGE_CASES == ("gaussian_birth", "singular_trans", "survival", "large_noise")
    birth, singular, survival, noise = (state_hash._edge_params(scenes, c) for c in state_hash.EDGE_CASES)
    assert birth.birth.weights.size == 1 and base.birth.weights.size == 0
    assert np.linalg.matrix_rank(singular.trans) == 1
    assert survival.survival == 0.9 and base.survival == 1.0
    assert noise.trans_noise.tobytes() == (1e4 * base.trans_noise).tobytes()


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
    # propagate_intensity and extract_targets read the filter's intensities
    # as reduced: every scan checks that dominance_reduce returns them as
    # themselves; here it returns a copy
    small = state_hash.digests
    monkeypatch.setattr(state_hash, "dominance_reduce", lambda mix: mix.take(np.arange(mix.weights.size)))
    with pytest.raises(state_hash.NotReduced):
        small((), (2,))
    monkeypatch.setattr(state_hash, "digests", lambda: small((), (2,)))
    assert state_hash.main([]) == 2
    assert "dominance_reduce reduces propagate_intensity's output in scene 2, t 0" in capsys.readouterr().err
    with pytest.raises(state_hash.NotReduced, match=r"output in scene 1 \(large_noise\), t 0"):
        small((), (), ("large_noise",))
