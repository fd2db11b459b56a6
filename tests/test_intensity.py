"""Tests for the multi-system intensity filter.

tests/data/intensity_scene_targets.txt was generated once from the pinned
three-system scene below and frozen: one line per step, the step index and
the extracted means as exact float reprs.
"""

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from possitrack.intensity import (
    IntensityMixture,
    MultiTargetParams,
    extract_targets,
    propagate_intensity,
    recover_cardinality_spatial,
    sum_intensities,
    update_intensity,
)
from possitrack.mixtures import batch_kalman_update, concat_terms, dominance_reduce
from possitrack.scenario import (
    ScenarioConfig,
    generate_observations,
    observation_matrix,
    observation_noise,
    process_noise,
    simulate_truth,
    transition_matrix,
)
from possitrack.single_target import _born_terms, canonicalize_observations

DATA = Path(__file__).parent / "data"


def g2(w, px, vx=0.0, cov=None):
    """A 2-d term (weight, mean, cov)."""
    return w, [px, vx], np.eye(2) if cov is None else cov


def intensity(floor, *terms):
    """The intensity of a floor and (weight, mean, cov) terms."""
    return IntensityMixture(*zip(*terms), flat_weight=floor)


def params(**kw) -> MultiTargetParams:
    cfg = ScenarioConfig()
    base = dict(
        trans=transition_matrix(cfg),
        trans_noise=process_noise(cfg),
        obs=observation_matrix(),
        obs_noise=observation_noise(cfg),
    )
    base.update(kw)
    return MultiTargetParams(**base)


# 1e200 squares to inf, 1e-200 to 0 and 1e-160 to a subnormal
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), 1e200, 1e-200, 1e-160])
def test_params_reject_bad_birth_velocity_std(value):
    with pytest.raises(ValueError, match="birth_velocity_std"):
        params(birth_velocity_std=value)


@pytest.mark.parametrize("value", [1e154, 1e-150])
def test_params_accept_birth_velocity_std_whose_square_is_normal(value):
    assert params(birth_velocity_std=value).birth_velocity_std == value


@pytest.mark.parametrize("value", [1, np.int64(5)])
def test_params_accept_integer_max_components(value):
    p = params(max_components=value)
    assert p.max_components == value and type(p.max_components) is int


# ----------------------------------------------------------------- intensity


def test_intensity_is_max_of_floor_and_components():
    fm = intensity(0.3, g2(0.8, 0.0))
    assert fm(np.array([0.0, 0.0])) == 0.8
    assert fm(np.array([50.0, 0.0])) == 0.3
    assert fm.sup() == 0.8


def test_intensity_rejects_floor_above_one():
    with pytest.raises(ValueError):
        IntensityMixture(flat_weight=1.2)


def test_sum_is_pointwise_max():
    a = intensity(0.2, g2(0.9, 0.0))
    b = intensity(0.4, g2(0.7, 5.0))
    out = sum_intensities(a, b)
    assert out.floor == 0.4
    xs = np.array([[0.0, 0.0], [5.0, 0.0], [20.0, 0.0]])
    np.testing.assert_allclose(
        out.eval_many(xs), np.maximum(a.eval_many(xs), b.eval_many(xs)), atol=1e-12
    )


# --------------------------------------------------------------- propagation


def test_propagate_floor_is_max_of_survival_and_birth():
    p = params(birth=IntensityMixture(flat_weight=0.5))
    low = propagate_intensity(IntensityMixture(flat_weight=0.3), p)
    assert low.floor == 0.5
    high = propagate_intensity(IntensityMixture(flat_weight=0.8), p)
    assert high.floor == 0.8


def test_propagate_moves_components():
    cfg = ScenarioConfig()
    F, Q = transition_matrix(cfg), process_noise(cfg)
    fm = IntensityMixture([1.0], [[0.0, 1.0]], [np.eye(2)])
    out = propagate_intensity(fm, params(birth=IntensityMixture(flat_weight=0.0)))
    c = out.components[0]
    np.testing.assert_allclose(c.mean, [0.1, 1.0], atol=1e-15)
    np.testing.assert_allclose(c.cov, F @ np.eye(2) @ F.T + Q, atol=1e-15)


# -------------------------------------------------------------------- update


def test_update_birth_from_floor_only():
    # D_y = max(floor, 0, clutter) = 0.5, so the newborn has weight 1
    fm = IntensityMixture(flat_weight=0.5)
    out = update_intensity(fm, params(), [[2.0]])
    assert out.floor == pytest.approx(0.1, rel=1e-15)
    assert len(out.components) == 1
    c = out.components[0]
    assert c.weight == 1.0
    np.testing.assert_array_equal(c.mean, [2.0, 0.0])
    np.testing.assert_array_equal(c.cov, [[0.0625, 0.0], [0.0, 1.0]])


def test_update_detection_and_misdetection_branches():
    fm = intensity(0.5, g2(1.0, 0.0))
    out = update_intensity(fm, params(), [[0.0]])
    ws = sorted(c.weight for c in out.components)
    # misdetection 0.2; newborn floor/D_y = 0.5; detection 1.0*lik(0)/D_y = 1
    assert ws == pytest.approx([0.2, 0.5, 1.0], rel=1e-12)
    det = max(out.components, key=lambda c: c.weight)
    np.testing.assert_allclose(det.mean, [0.0, 0.0], atol=1e-15)
    # posterior x-variance R/S with V=1: 0.0625 / 1.0625
    np.testing.assert_allclose(
        det.cov, [[0.0625 / 1.0625, 0.0], [0.0, 1.0]], rtol=1e-12
    )


def test_update_never_exceeds_one():
    rng = np.random.default_rng(17)
    p = params()
    fm = IntensityMixture(flat_weight=0.5)
    for _ in range(30):
        ys = rng.uniform(-10, 10, size=(rng.integers(0, 5), 1))
        fm = update_intensity(propagate_intensity(fm, p), p, ys)
        pts = np.column_stack([rng.uniform(-12, 12, 300), rng.uniform(-3, 3, 300)])
        assert float(fm.eval_many(pts).max()) <= 1.0 + 1e-12


def test_update_duplicate_observation_is_single():
    fm = intensity(0.5, g2(1.0, 0.0))
    p = params()
    once = update_intensity(fm, p, [[1.0]])
    twice = update_intensity(fm, p, [[1.0], [1.0]])
    assert once.floor == twice.floor
    assert len(once.components) == len(twice.components)
    for a, b in zip(once.components, twice.components):
        assert a.weight == b.weight
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)


def test_update_component_cap():
    p = params(max_components=5)
    fm = intensity(0.5, g2(1.0, 0.0))
    ys = [[float(k)] for k in range(-6, 7)]
    out = update_intensity(fm, p, ys)
    assert len(out.components) <= 5
    assert max(c.weight for c in out.components) == 1.0  # cap keeps the heaviest


# The update builds its branch weights in one pass and gathers only the terms
# above the new floor.  The loop below is the plain form it must reproduce bit
# for bit: one branch stack per observation, every term built, then the
# dominance reduction drops those at or below the floor.


def _ref_update_intensity(fm, params, observations):
    ys = canonicalize_observations(observations, params.obs_dim)
    n_obs = ys.shape[0]
    ws, ms, vs = fm.weights, fm.means, fm.covs
    floor = fm.floor
    branches = [(ws * params.missed_detection, ms, vs)]
    if n_obs and ws.size:
        liks, m_post, v_post, _ = batch_kalman_update(ms, vs, ys, params.obs, params.obs_noise)
        w_lik = ws[:, None] * liks  # (k, n)
    if n_obs and floor > 0.0:
        born_m, born_v = _born_terms(params, params.birth_velocity_std, ys)
    for j, clutter in enumerate(params.clutter.eval_many(ys)):
        d_y = max(floor, float(w_lik[:, j].max()) if ws.size else 0.0, clutter)
        if d_y <= 0.0:
            continue
        if ws.size:
            branches.append((w_lik[:, j] / d_y, m_post[:, j, :], v_post))
        if floor > 0.0:
            branches.append((np.array([floor / d_y]), born_m[j : j + 1], born_v[None]))
    new_w, new_m, new_v = concat_terms(branches)
    keep = new_w > 0.0
    out = dominance_reduce(IntensityMixture._trusted(
        new_w[keep], new_m[keep], new_v[keep], floor * params.missed_detection
    ))
    if out.weights.size > params.max_components:
        out = out.take(np.argsort(-out.weights, kind="stable")[: params.max_components])
    return out


def _assert_same_intensity(out, ref):
    assert repr(out.floor) == repr(ref.floor)
    for a, b in ((out.weights, ref.weights), (out.means, ref.means), (out.covs, ref.covs)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _update_matches_reference(fm, p, ys):
    # no branch weight may be divided by a zero D_y
    with np.errstate(divide="raise", invalid="raise"):
        out = update_intensity(fm, p, ys)
    _assert_same_intensity(out, _ref_update_intensity(fm, p, ys))
    return out


def _random_intensity(rng, floor, k, light):
    ws = rng.uniform(0.05, 0.45 if light else 1.0, k).round(2)  # ties
    ms = np.column_stack([rng.uniform(-10.0, 10.0, k), rng.normal(size=k)])
    a = rng.normal(size=(k, 2, 2)) * rng.uniform(0.1, 1.5)
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(2)
    if k > 2:  # a repeated term, and one on the same position as another
        ms[1], vs[1] = ms[0], vs[0]
        ms[2, 0] = ms[0, 0]
    return IntensityMixture(ws, ms, 0.5 * (vs + np.swapaxes(vs, 1, 2)), floor)


CLUTTER = {
    "flat": IntensityMixture(flat_weight=0.5),
    "zero": IntensityMixture(flat_weight=0.0),
    "gaussian": IntensityMixture([0.45, 0.3], [[-3.0], [6.0]], [[[2.0]], [[0.5]]], 0.0),
    "gaussian_floor": IntensityMixture([0.9], [[2.0]], [[[1.0]]], 0.1),
}


@pytest.mark.parametrize("floor, k, clutter", product([0.0, 0.5, 1.0], [0, 1, 9], sorted(CLUTTER)))
def test_update_matches_per_observation_reference(floor, k, clutter):
    # each case also has duplicate observations, one far from every term
    # (D_y = 0 when the floor, the clutter there and every likelihood are 0)
    # and a cap that binds
    for seed in range(6):
        rng = np.random.default_rng(seed)
        fm = _random_intensity(rng, floor, k, light=seed % 2 == 0)
        ys = rng.uniform(-12.0, 12.0, rng.integers(0, 7)).round(1).tolist()
        ys = ys + ys[:2] + [1e3]
        for md, cap in product([0.2, 1.0], [200, 3, 1]):
            p = params(missed_detection=md, clutter=CLUTTER[clutter], max_components=cap)
            _update_matches_reference(fm, p, ys)
            _update_matches_reference(fm, p, [])


def test_update_skips_an_observation_whose_normalizer_is_zero():
    # far from every term and with no floor or clutter, D_y is 0: the
    # observation adds nothing, and no weight is divided by it
    fm = intensity(0.0, g2(0.4, 0.0), g2(0.3, 2.0))
    p = params(clutter=IntensityMixture(flat_weight=0.0))
    out = _update_matches_reference(fm, p, [[0.5], [1e3]])
    alone = _update_matches_reference(fm, p, [[0.5]])
    _assert_same_intensity(out, alone)
    assert out.floor == 0.0 and out.weights.size == 4  # 2 misdetections, 2 detections


def test_update_of_an_empty_intensity_matches_reference():
    for floor, ys in product([0.0, 0.5], [[], [[1.0], [1.0], [-2.0]]]):
        out = _update_matches_reference(IntensityMixture(flat_weight=floor), params(), ys)
        assert out.weights.size == (2 if floor and ys else 0)


def test_clutter_intensity_lookup():
    p = params(clutter=intensity(0.25, (0.9, [3.0], [[1.0]])))
    assert p.clutter(np.array([3.0])) == 0.9
    assert p.clutter(np.array([30.0])) == 0.25


def test_params_accept_default_and_floor_only_birth_and_clutter():
    p = params()
    assert (p.birth.floor, p.birth.dim, p.clutter.floor, p.clutter.dim) == (0.5, None, 0.5, None)
    p = params(birth=intensity(0.1, g2(0.9, 1.0)), clutter=IntensityMixture(flat_weight=0.0))
    assert p.birth.dim == p.state_dim and p.clutter.dim is None


def test_params_reject_birth_off_the_state_space():
    with pytest.raises(ValueError, match="birth terms must have the state dimension 2, got 1"):
        params(birth=IntensityMixture([0.9], [[0.0]], [[[1.0]]], 0.5))
    with pytest.raises(ValueError, match="birth must be an IntensityMixture"):
        params(birth=0.5)


def test_params_reject_clutter_off_the_observation_space():
    with pytest.raises(ValueError, match="clutter terms must have the observation dimension 1, got 2"):
        params(clutter=intensity(0.25, g2(0.9, 3.0)))
    with pytest.raises(ValueError, match="clutter must be a MaxMixture"):
        params(clutter=0.5)


# ----------------------------------------------------- cardinality / spatial


def test_recover_cardinality_powers_of_sup():
    fm = intensity(0.1, g2(0.5, 0.0))
    card, spatial = recover_cardinality_spatial(fm)
    assert card(0) == 1.0
    assert card(2) == pytest.approx(0.25, rel=1e-15)
    assert spatial.sup() == 1.0
    assert spatial.floor == pytest.approx(0.2, rel=1e-15)


def test_recover_zero_intensity_has_flat_spatial():
    card, spatial = recover_cardinality_spatial(IntensityMixture())
    assert card(0) == 1.0 and card(3) == 0.0
    assert spatial.floor == 1.0 and not spatial.components


def test_recover_card_takes_only_integer_counts():
    # card(nan) was nan, card(2.5) 0.177 and card(True) 0.5 at sup 0.5
    card, _ = recover_cardinality_spatial(IntensityMixture(flat_weight=0.5))
    for n in (2.5, float("nan"), True, -1):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            card(n)
    assert card(0) == 1.0 and card(np.int64(3)) == 0.125


# ---------------------------------------------------------------- extraction


def test_extract_separated_peaks():
    fm = intensity(0.1, g2(0.95, 0.0), g2(0.92, 8.0))
    out = extract_targets(fm, tau_x=0.9)
    assert len(out) == 2
    np.testing.assert_array_equal(out[0], [0.0, 0.0])
    np.testing.assert_array_equal(out[1], [8.0, 0.0])


def test_extract_one_per_cluster():
    fm = intensity(0.1, g2(0.95, 0.0), g2(0.92, 0.5))
    out = extract_targets(fm, tau_x=0.9)
    assert len(out) == 1
    np.testing.assert_array_equal(out[0], [0.0, 0.0])  # heaviest wins


def test_extract_requires_beating_threshold_and_floor():
    fm = intensity(0.1, g2(0.85, 0.0))
    assert extract_targets(fm, tau_x=0.9) == []
    high_floor = intensity(0.97, g2(0.95, 0.0))
    assert extract_targets(high_floor, tau_x=0.9) == []


def test_extract_reads_its_input_as_reduced():
    # the 0.1 term at 3 is dominated by the wide 0.95 term and lies 1.5
    # Mahalanobis from it: extract_targets does not reduce, so an unreduced
    # intensity yields it as a second target and its reduction does not
    fm = IntensityMixture([0.95, 0.1], [[0.0], [3.0]], [[[4.0]], [[1.0]]], flat_weight=0.05)
    reduced = dominance_reduce(fm)
    assert reduced.weights.tolist() == [0.95]
    assert [x.tolist() for x in extract_targets(fm, 0.0, 1.0)] == [[0.0], [3.0]]
    assert [x.tolist() for x in extract_targets(reduced, 0.0, 1.0)] == [[0.0]]


def test_extract_rejects_nan_thresholds():
    # three candidates 0.5 apart form one cluster; a NaN radius extracted all
    # three and a NaN tau_x none
    fm = intensity(0.1, g2(0.95, 0.0), g2(0.94, 0.5), g2(0.93, 1.0))
    assert len(extract_targets(fm, tau_x=0.9)) == 1
    for name in ("merge_radius", "tau_x"):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            extract_targets(fm, **{name: float("nan")})


# ------------------------------------------------------------- golden scene

# three systems (position offset, birth step) plus lambda = 10 clutter; seed 2
# fills the component cap on several steps, so the truncation order is pinned
SCENE_SYSTEMS = ((-4.0, 2), (0.0, 5), (4.0, 8))
SCENE_SEED = 2


def three_system_scene(seed):
    sc = ScenarioConfig()
    rng = np.random.default_rng(seed)
    steps = [[] for _ in range(sc.t_end + 1)]
    for offset, t_birth in SCENE_SYSTEMS:
        cfg = replace(sc, t_birth=t_birth, lambda_fp=0.0)
        obs = generate_observations(simulate_truth(cfg, rng), cfg, rng)
        for t, ys in enumerate(obs.steps):
            steps[t].extend(y + offset for y in ys)
    for ys in steps:
        ys.extend(rng.uniform(sc.fp_lo, sc.fp_hi, rng.poisson(10.0)).tolist())
    return steps


def test_intensity_filter_matches_golden_targets():
    p = params()
    fm = IntensityMixture()
    capped = 0
    lines = []
    for t, ys in enumerate(three_system_scene(SCENE_SEED)):
        fm = update_intensity(propagate_intensity(fm, p), p, ys)
        capped += len(fm.components) >= p.max_components
        found = extract_targets(fm)
        lines.append(" ".join([str(t)] + [",".join(repr(float(v)) for v in x) for x in found]))
    assert capped >= 1
    assert "\n".join(lines) + "\n" == (DATA / "intensity_scene_targets.txt").read_text()
