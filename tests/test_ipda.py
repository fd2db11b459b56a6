"""Tests for the probabilistic baseline filter."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from possitrack.bench import default_config, make_run
from possitrack.ipda import (
    IpdaParams,
    IpdaState,
    _prune_and_merge,
    ipda_estimate,
    ipda_predict,
    ipda_step,
    ipda_update,
)
from possitrack.scenario import (
    ScenarioConfig,
    observation_matrix,
    observation_noise,
    process_noise,
    transition_matrix,
)

from oracles import batch_quadratic


def params(**kw) -> IpdaParams:
    cfg = ScenarioConfig()
    base = dict(
        trans=transition_matrix(cfg),
        trans_noise=process_noise(cfg),
        obs=observation_matrix(),
        obs_noise=observation_noise(cfg),
    )
    base.update(kw)
    return IpdaParams(**base)


def one_comp_state(existence, mean, cov, time_index=0) -> IpdaState:
    return IpdaState(existence, [1.0], [mean], [cov], 0.0, time_index)


# --------------------------------------------------------------------- state


def test_initial_state_is_pure_birth_mass():
    st = IpdaState.initial()
    assert st.existence == 0.0
    assert st.n_components == 0
    assert st.diffuse_weight == 1.0


def test_state_rejects_unnormalized_weights():
    with pytest.raises(ValueError):
        IpdaState(0.5, [0.4], [[0.0, 0.0]], [np.eye(2)], 0.3)


@pytest.mark.parametrize(
    "weights, means, covs, message",
    [
        ([1.0], [[math.nan, 0.0]], [np.eye(2)], "means must be finite"),
        ([1.0], [[0.0, math.inf]], [np.eye(2)], "means must be finite"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 0.0], [0.0, math.nan]]], "covs must be finite"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 0.0], [0.0, math.inf]]], "covs must be finite"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.0, 1.0]]], "must be symmetric"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 0.0], [0.0, -3.0]]], "must be positive-definite"),
        ([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], [np.eye(2), np.zeros((2, 2))], "must be positive-definite"),
        ([1.5, -0.5], [[0.0, 0.0], [1.0, 0.0]], [np.eye(2)] * 2, r"weights must be in \(0, 1\]"),
        ([math.nan], [[0.0, 0.0]], [np.eye(2)], r"weights must be in \(0, 1\]"),
        # the mixture rule; the state's own copy of the check accepted these three
        ([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], [np.eye(2)] * 2, r"weights must be in \(0, 1\], got 0.0$"),
        ([1.0 + 5e-10], [[0.0, 0.0]], [np.eye(2)], r"weights must be in \(0, 1\], got 1.0000000005$"),
        ([1.0], [0.0, 0.0], [np.eye(2)], "stack shapes "),
    ],
    ids=["nan_mean", "inf_mean", "nan_cov", "inf_cov", "asymmetric_cov", "indefinite_cov",
         "singular_cov", "negative_weight", "nan_weight", "zero_weight", "weight_above_1_within_sum_rule",
         "flat_means"],
)
def test_state_rejects_bad_terms(weights, means, covs, message):
    with pytest.raises(ValueError, match=message):
        IpdaState(0.5, weights, means, covs, 0.0)


def test_empty_state_is_stored_as_an_empty_stack_and_updates():
    # it was stored with covs of shape (0,), and every update raised
    # NumericalError on that stack
    state = IpdaState(0.5, [], [], [], 1.0)
    assert (state.weights.shape, state.means.shape, state.covs.shape) == ((0,), (0, 0), (0, 0, 0))
    out = ipda_update(state, params(), [[1.0]])
    # the diffuse mass spawns one candidate at the observation: weight
    # (0.8 / 0.05) / 20 = 0.8 against the miss branch 0.2
    assert out.weights.tolist() == pytest.approx([0.8], rel=1e-12)
    assert out.diffuse_weight == pytest.approx(0.2, rel=1e-12)
    assert out.means.tolist() == [[1.0, 0.0]]
    assert ipda_step(state, params(), [[1.0]]).n_components == 1


def test_state_diffuse_weight_is_bounded_by_the_sum_rule_alone():
    assert IpdaState(0.5, [], [], [], 1 + 5e-10).diffuse_weight == 1 + 5e-10
    for delta in (1 + 1e-9, 1 + 2e-9):
        with pytest.raises(ValueError, match="weights plus diffuse mass must sum to 1"):
            IpdaState(0.5, [], [], [], delta)


def test_clutter_density_is_rate_over_volume_with_floor():
    assert params().clutter_density == pytest.approx(0.05, rel=1e-15)
    assert params(clutter_rate=0.0).clutter_density > 0.0  # floored, not zero


def test_a_float32_clutter_rate_steps_as_its_python_float():
    # the rate used to be stored as given, so a float32 rate made the clutter
    # density, and the existence it divides, float32
    cfg = default_config()
    base = cfg.baseline_params(3.0)
    as_float32 = replace(base, clutter_rate=np.float32(3.0))
    _, obs = make_run(cfg.scenario, 3.0, cfg.base_seed, 0, 0)
    a = b = IpdaState.initial()
    for ys in obs.steps:
        a, b = ipda_step(a, base, ys), ipda_step(b, as_float32, ys)
        assert repr((a.existence, a.diffuse_weight)) == repr((b.existence, b.diffuse_weight))
        for x, y in ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ------------------------------------------------------------------- predict


def test_predict_existence_from_nothing():
    out = ipda_predict(IpdaState.initial(), params())
    # p_survive * 0 + p_birth * 1
    assert out.existence == 0.5
    assert out.diffuse_weight == 1.0
    assert out.time_index == 1


def test_predict_existence_from_certainty():
    st = one_comp_state(1.0, [0.0, 0.0], np.eye(2))
    out = ipda_predict(st, params())
    assert out.existence == pytest.approx(0.99, rel=1e-15)
    # no rebirth pathway when existence is 1: mixture stays pure
    assert out.diffuse_weight == 0.0
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_mixes_survival_and_birth_mass():
    st = one_comp_state(0.5, [0.0, 0.0], np.eye(2))
    out = ipda_predict(st, params())
    # survival path 0.495, birth path 0.25; fresh mass is diffuse
    assert out.existence == pytest.approx(0.745, rel=1e-15)
    assert out.diffuse_weight == pytest.approx(0.25 / 0.745, rel=1e-12)
    assert out.weights.sum() + out.diffuse_weight == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- update


def test_update_empty_set_shrinks_existence():
    st = ipda_predict(IpdaState.initial(), params())
    out = ipda_update(st, params(), [])
    # likelihood ratio (1 - p_detect): 0.5*0.2 / (0.5 + 0.5*0.2)
    assert out.existence == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert out.diffuse_weight == pytest.approx(1.0, rel=1e-12)
    assert out.n_components == 0


@pytest.mark.parametrize("existence", [0.0, 0.7, 1.0])
def test_update_with_no_possible_branch_leaves_only_the_diffuse_prior(existence):
    # p_detect = 1 and no observation: every branch has likelihood 0
    st = one_comp_state(existence, [1.0, 0.0], np.eye(2), time_index=4)
    out = ipda_update(st, params(p_detect=1.0), [])
    assert (out.existence, out.diffuse_weight, out.time_index, out.n_components) == (0.0, 1.0, 4, 0)
    assert type(out.existence) is float and math.copysign(1.0, out.existence) == 1.0
    assert out.means.shape == (0, 0) and out.covs.shape == (0, 0, 0)
    assert not (out.weights.flags.writeable or out.means.flags.writeable or out.covs.flags.writeable)


def test_update_that_prunes_every_term_stores_the_empty_stack_the_constructor_accepts():
    # two miss branches of weight 0.4 fall below the threshold 0.5 and only
    # the diffuse mass is left; the covs were kept as (0, 2, 2), which the
    # constructor's stack rule rejects
    st = IpdaState(0.5, [0.4, 0.4], [[0.0, 0.0], [5.0, 0.0]], [np.eye(2), np.eye(2)], 0.2)
    out = ipda_update(st, params(prune_threshold=0.5), [])
    assert (out.n_components, out.diffuse_weight) == (0, 1.0)
    assert out.means.shape == (0, 0) and out.covs.shape == (0, 0, 0)
    again = IpdaState(out.existence, out.weights, out.means, out.covs, out.diffuse_weight, out.time_index)
    assert again.covs.shape == (0, 0, 0)


def test_update_locates_birth_mass_on_observation():
    st = ipda_predict(IpdaState.initial(), params())
    out = ipda_update(st, params(), [[2.0]])
    # birth branch (p_d / rho) * delta * (1/volume) = 0.8; miss branch 0.2
    assert out.existence == pytest.approx(0.5, rel=1e-12)
    assert out.n_components == 1
    assert out.weights[0] == pytest.approx(0.8, rel=1e-12)
    assert out.diffuse_weight == pytest.approx(0.2, rel=1e-12)
    np.testing.assert_array_equal(out.means[0], [2.0, 0.0])
    np.testing.assert_array_equal(out.covs[0], [[0.0625, 0.0], [0.0, 1.0]])


def _normal_density(e, s):
    """N(e; 0, S) for a 1x1 or 2x2 S, with the inverse and determinant written out."""
    if len(e) == 1:
        det, quad = s[0, 0], e[0] ** 2 / s[0, 0]
    else:
        (a, b), (_, c) = s
        det = a * c - b * b
        quad = (c * e[0] ** 2 - 2.0 * b * e[0] * e[1] + a * e[1] ** 2) / det
    return math.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** len(e) * det)


def _plane_params():
    """A 2-d position and velocity model, observed in both positions."""
    dt = 0.1
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    g = np.array([[dt**2 / 2, 0.0], [0.0, dt**2 / 2], [dt, 0.0], [0.0, dt]])
    return IpdaParams(trans=f, trans_noise=g @ g.T, obs=np.eye(2, 4), obs_noise=[[0.09, 0.02], [0.02, 0.04]],
                      clutter_rate=3.0, surveillance_volume=400.0)


@pytest.mark.parametrize(
    "model, mean, cov, y",
    [
        (params, [0.3, 1.0], [[0.5, 0.1], [0.1, 0.4]], [0.8]),
        (_plane_params, [0.3, -0.2, 1.0, 0.5],
         [[0.5, 0.1, 0.05, 0.0], [0.1, 0.3, 0.0, 0.02], [0.05, 0.0, 1.0, 0.1], [0.0, 0.02, 0.1, 0.8]],
         [0.1, 0.4]),
    ],
    ids=["obs_dim_1", "obs_dim_2"],
)
def test_update_existence_with_a_detection_matches_closed_form(model, mean, cov, y):
    # r' = r L / (1 - r + r L), L = (1 - p_D) + p_D N(y; H m, S) / rho, S = H V H' + R
    p = model()
    r = 0.6
    h, m, v = p.obs, np.asarray(mean), np.asarray(cov)
    s = h @ v @ h.T + p.obs_noise
    lik = (1.0 - p.p_detect) + p.p_detect * _normal_density(np.asarray(y) - h @ m, s) / p.clutter_density
    out = ipda_update(one_comp_state(r, mean, cov), p, [y])
    assert out.existence == pytest.approx(r * lik / (1.0 - r + r * lik), rel=1e-12)
    assert lik > 1.0  # the detection raises existence


def test_update_mass_always_sums_to_one():
    rng = np.random.default_rng(23)
    p = params()
    st = IpdaState.initial()
    for _ in range(30):
        ys = rng.uniform(-10, 10, size=(rng.integers(0, 5), 1))
        st = ipda_step(st, p, ys)
        assert st.weights.sum() + st.diffuse_weight == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= st.existence <= 1.0


def test_step_is_predict_then_update():
    p = params()
    st = one_comp_state(0.6, [1.0, 0.0], np.eye(2))
    ys = [[1.1]]
    via_step = ipda_step(st, p, ys)
    manual = ipda_update(ipda_predict(st, p), p, ys)
    assert via_step.existence == manual.existence
    np.testing.assert_array_equal(via_step.weights, manual.weights)
    np.testing.assert_array_equal(via_step.means, manual.means)


def test_prune_and_merge_matches_moment_matching_reference():
    # two terms inside the gate of the heaviest, one far outside it, and one
    # below the prune threshold; the kept mass 0.8 plus diffuse 0.1 is
    # renormalized to 1
    ws = np.array([0.5, 0.2, 0.1, 1e-6])
    ms = np.array([[0.0, 0.0], [0.6, -0.3], [20.0, 1.0], [0.1, 0.0]])
    vs = np.array([[[1.0, 0.2], [0.2, 2.0]], [[0.5, 0.0], [0.0, 1.5]], np.eye(2), np.eye(2)])
    out_w, out_m, out_v, diffuse = _prune_and_merge(ws, ms, vs, np.linalg.inv(vs), 0.1, params())

    total = 0.8 + 0.1
    w_ref = ws[0] + ws[1]
    m_ref = (ws[0] * ms[0] + ws[1] * ms[1]) / w_ref
    v_ref = sum(
        w * (v + np.outer(m - m_ref, m - m_ref)) for w, m, v in zip(ws[:2], ms[:2], vs[:2])
    ) / w_ref
    np.testing.assert_allclose(out_w, [w_ref / total, ws[2] / total], rtol=1e-14)
    np.testing.assert_allclose(out_m[0], m_ref, rtol=1e-14)
    np.testing.assert_allclose(out_v[0], v_ref, rtol=1e-14)
    np.testing.assert_array_equal(out_m[1], ms[2])
    np.testing.assert_array_equal(out_v[1], vs[2])
    assert diffuse == pytest.approx(0.1 / total, rel=1e-14)
    assert out_w.sum() + diffuse == pytest.approx(1.0, abs=1e-15)


# The merge loop as it was before the windowed gate and the batched moment
# matching: one dense k x k gate and one moment match per cluster.


def _ref_prune_and_merge(ws, ms, vs, diffuse, params):
    keep = ws >= params.prune_threshold
    ws, ms, vs = ws[keep], ms[keep], vs[keep]
    if ws.size:
        in_gate = batch_quadratic(ms, vs, ms) <= params.merge_threshold**2
        out_w, out_m, out_v = [], [], []
        idx = np.argsort(-ws)
        while idx.size:
            gated = in_gate[idx[0], idx]
            cluster = idx[gated]
            w_tot = ws[cluster].sum()
            m_bar = (ws[cluster, None] * ms[cluster]).sum(axis=0) / w_tot
            dif = ms[cluster] - m_bar
            v_bar = (
                ws[cluster, None, None] * (vs[cluster] + dif[:, :, None] * dif[:, None, :])
            ).sum(axis=0) / w_tot
            out_w.append(w_tot)
            out_m.append(m_bar)
            out_v.append(0.5 * (v_bar + v_bar.T))
            idx = idx[~gated]
        ws = np.asarray(out_w)
        ms = np.stack(out_m)
        vs = np.stack(out_v)
    total = float(ws.sum()) + diffuse
    if total <= 0.0:
        return np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)), 1.0
    return ws / total, ms, vs, diffuse / total


def _model(d, tau):
    return IpdaParams(trans=np.eye(d), trans_noise=np.eye(d), obs=np.eye(1, d),
                      obs_noise=np.eye(1), merge_threshold=tau)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 4]),
    # blob sizes: 1-7 members, exactly 8 and more than 8
    sizes=st.lists(st.sampled_from([1, 2, 3, 5, 7, 8, 8, 9, 13, 30]), min_size=1, max_size=6),
    spread=st.sampled_from([0.0, 1e-3, 0.3, 2.0]),
    layout=st.sampled_from(["spread", "shared_x0", "negative_zero"]),
    weights=st.sampled_from(["random", "tied", "some_pruned", "all_pruned"]),
    tau=st.sampled_from([0.0, 3.22]),
    diffuse=st.sampled_from([0.0, 0.2]),
)
# numpy sums a 1-d slice pairwise from 8 terms on; for d = 1 the means and
# covariances of a cluster are such slices too, for d >= 2 only its weights
@example(seed=0, d=1, sizes=[8, 30], spread=1e-3, layout="spread", weights="random", tau=3.22, diffuse=0.0)
@example(seed=0, d=2, sizes=[7, 9], spread=1e-3, layout="spread", weights="random", tau=3.22, diffuse=0.0)
def test_prune_and_merge_matches_dense_reference(seed, d, sizes, spread, layout, weights, tau, diffuse):
    rng = np.random.default_rng(seed)
    k = sum(sizes)
    centres = rng.normal(size=(len(sizes), d)) * 20.0
    ms = np.repeat(centres, sizes, axis=0) + spread * rng.normal(size=(k, d))
    if layout == "shared_x0":  # every pair falls in the window
        ms[:, 0] = ms[0, 0]
    elif layout == "negative_zero":  # signed zeros in every sum
        ms[rng.random((k, d)) < 0.5] = -0.0
    a = rng.normal(size=(k, d, d)) * rng.uniform(0.2, 2.0)
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    vs = 0.5 * (vs + np.swapaxes(vs, 1, 2))
    ws = rng.uniform(0.0, 1.0, k)
    if weights == "tied":
        ws = np.maximum(np.round(ws, 1), 0.1)
    ws = ws / ws.sum() * (1.0 - diffuse)
    if weights == "some_pruned":
        ws[rng.random(k) < 0.3] = 1e-6
    elif weights == "all_pruned":
        ws[:] = 1e-6
    p = _model(d, tau)

    out = _prune_and_merge(ws, ms, vs, np.linalg.inv(vs), diffuse, p)
    ref = _ref_prune_and_merge(ws, ms, vs, diffuse, p)
    for x, y in zip(out[:3], ref[:3]):
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert out[3] == ref[3]


@pytest.mark.parametrize("lam, lambda_index", [(1.0, 0), (10.0, 2)])
def test_prune_threshold_zero_keeps_the_state_finite(lam, lambda_index):
    # the interval [0, 1) admits 0, which kept branches of zero weight (a
    # moment match of 0 / 0 gave NaN means at t = 1) and of subnormal weight
    # (at lambda 10 a matched covariance lost definiteness at t = 5)
    cfg = default_config()
    p = replace(cfg.baseline_params(lam), prune_threshold=0.0)
    _, obs = make_run(cfg.scenario, lam, cfg.base_seed, lambda_index, 0)
    state = IpdaState.initial()
    for ys in obs.steps:
        state = ipda_step(state, p, ys)
        assert np.isfinite(state.means).all() and np.isfinite(state.covs).all()
        assert (state.weights > 0.0).all()
    assert len(obs.steps) == 26


def test_prune_and_merge_memory_is_subquadratic():
    # 3000 terms spread along coordinate 0: a dense k x k float64 gate alone
    # would take 72 MB; the windows hold a few neighbours per term
    k = 3000
    rng = np.random.default_rng(5)
    ms = np.column_stack([np.arange(k, dtype=float), rng.normal(size=k)])
    vs = np.tile(np.diag([0.5, 2.0]), (k, 1, 1))
    ws = rng.uniform(0.1, 1.0, k)
    ps = np.linalg.inv(vs)
    tracemalloc.start()
    try:
        out_w, _, _, _ = _prune_and_merge(ws / ws.sum(), ms, vs, ps, 0.0, _model(2, 3.22))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < out_w.size < k
    assert peak < k * k * 8 / 10


# ------------------------------------------------------- clean-data behavior


def test_clean_data_matches_reference_kalman():
    # one detection per step, no clutter, no rebirth: the single component
    # must follow a textbook Kalman filter exactly
    cfg = ScenarioConfig()
    F, Q = transition_matrix(cfg), process_noise(cfg)
    H, R = observation_matrix(), observation_noise(cfg)
    p = params(p_detect=1.0, clutter_rate=0.0, p_birth=0.0)

    rng = np.random.default_rng(4)
    m0 = np.array([0.0, 0.0])
    v0 = np.diag([0.0625, 1.0])
    st = one_comp_state(0.5, m0, v0)
    m, v = m0.copy(), v0.copy()
    prev_r = st.existence
    for t in range(25):
        y = 0.05 * t + rng.normal(scale=0.3)
        st = ipda_step(st, p, [[y]])
        # reference: predict then update
        m = F @ m
        v = F @ v @ F.T + Q
        s = H @ v @ H.T + R
        k = v @ H.T @ np.linalg.inv(s)
        m = m + (k @ (np.array([y]) - H @ m)).ravel()
        v = (np.eye(2) - k @ H) @ v
        assert st.n_components == 1
        np.testing.assert_allclose(st.means[0], m, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(st.covs[0], v, rtol=1e-9, atol=1e-12)
        # perfect detection with no false positives: existence only grows
        assert st.existence >= prev_r - 1e-12
        prev_r = st.existence
    assert st.existence > 0.999


def test_clean_data_existence_converges_with_default_birth():
    p = params(p_detect=1.0, clutter_rate=0.0)
    st = IpdaState.initial()
    for t in range(5):
        st = ipda_step(st, p, [[0.1 * t]])
        if t >= 1:
            assert st.existence > 0.99


# ------------------------------------------------------------------ estimate


def test_estimate_gates_on_existence():
    st = IpdaState(0.7, [0.6, 0.4], [[1.0, 0.0], [5.0, 0.0]], [np.eye(2)] * 2, 0.0)
    np.testing.assert_array_equal(ipda_estimate(st, 0.5), [1.0, 0.0])
    assert ipda_estimate(st, 0.7) is None  # strict threshold
    assert ipda_estimate(IpdaState.initial(), 0.0) is None  # no components
