"""Tests for the single-system filter on the extended state space.

Branch weights in the update tests are hand-computed from the recursion:
misdetection branch w * a_df * f_all, detection branch w * lik * f_loo,
births flat * f_loo, absence psi * f_all, all divided by the global max.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from possitrack.bench import BenchConfig, make_run
from possitrack.intensity import IntensityMixture, MultiTargetParams, propagate_intensity, update_intensity
from possitrack.ipda import IpdaState, ipda_step
from possitrack.mixtures import MaxMixture, NumericalError
from possitrack.scenario import (
    ScenarioConfig,
    observation_matrix,
    observation_noise,
    process_noise,
    transition_matrix,
)
from possitrack.single_target import (
    ClutterModel,
    ExplicitBirth,
    ExtendedPossibility,
    ObservationDrivenBirth,
    SingleTargetParams,
    canonicalize_observations,
    clutter_possibility,
    estimate,
    predict,
    step,
    update,
)
from possitrack.mixtures import dominance_reduce, merge, prune

EXP_M1 = 0.36787944117144233  # frozen exp(-1)


def g1(w, m, v):
    """A 1-d term (weight, mean, cov)."""
    return w, [m], [[v]]


def mixture(*terms, flat_weight=0.0):
    """The mixture of (weight, mean, cov) terms."""
    return MaxMixture(*zip(*terms), flat_weight=flat_weight)


def params_1d(**kw) -> SingleTargetParams:
    base = dict(
        trans=np.eye(1),
        trans_noise=np.zeros((1, 1)),
        obs=np.eye(1),
        obs_noise=np.eye(1),
    )
    base.update(kw)
    return SingleTargetParams(**base)


def params_ncv(**kw) -> SingleTargetParams:
    cfg = ScenarioConfig()
    base = dict(
        trans=transition_matrix(cfg),
        trans_noise=process_noise(cfg),
        obs=observation_matrix(),
        obs_noise=observation_noise(cfg),
    )
    base.update(kw)
    return SingleTargetParams(**base)


# -------------------------------------------------------------------- params


def test_params_require_survival_or_disappearance_at_one():
    with pytest.raises(ValueError):
        params_1d(survival=0.9, disappearance=0.5)
    # either side may carry the 1
    params_1d(survival=0.5, disappearance=1.0)
    params_1d(survival=1.0, disappearance=0.2)



# 0.0, 1e200, 1e-200 and 1e-160 are probed by the _STD row of BOUNDARIES (tests/test_mixtures.py)
@pytest.mark.parametrize("std", [-1.0, float("nan"), float("inf")])
def test_observation_driven_birth_rejects_bad_velocity_std(std):
    # an infinite std used to pass here and fail later as a NumericalError
    # on the birth covariance
    with pytest.raises(ValueError, match="velocity_std"):
        ObservationDrivenBirth(velocity_std=std)


def test_initial_state_is_fully_absent():
    st = ExtendedPossibility.absent()
    assert st.psi_mass == 1.0
    assert st.on_s.sup() == 0.0
    assert st.time_index == 0


def test_state_rejects_an_on_s_that_is_not_a_mixture():
    # it used to be accepted and break the next step with an AttributeError
    with pytest.raises(ValueError, match="on_s must be a MaxMixture"):
        ExtendedPossibility(0.5, None)


# -------------------------------------------------------------- observations


def test_canonicalize_sorts_and_dedupes():
    ys = canonicalize_observations([[2.0], [0.5], [2.0]], 1)
    np.testing.assert_array_equal(ys, [[0.5], [2.0]])


def test_canonicalize_empty_set():
    ys = canonicalize_observations([], 2)
    assert ys.shape == (0, 2)


def test_canonicalize_rejects_wrong_dim_and_nan():
    with pytest.raises(ValueError):
        canonicalize_observations([[1.0, 2.0]], 1)
    with pytest.raises(ValueError):
        canonicalize_observations([[float("nan")]], 1)


def test_canonicalize_matches_numpy_unique():
    # np.unique keeps the sign of whichever of 0.0 / -0.0 its sort puts first
    # (arbitrary above 16 rows, where the sort is unstable); canonical rows
    # hold 0.0 only
    rng = np.random.default_rng(11)
    pool = np.array([-1.5, -0.0, 0.0, 0.5, 2.0, 7.25])
    for _ in range(2000):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        arr = rng.choice(pool, size=(n, d))
        ref = np.unique(arr, axis=0) + 0.0
        forms = [arr, arr.tolist(), tuple(map(tuple, arr.tolist()))]
        if d == 1:
            forms += [arr[:, 0], arr[:, 0].tolist(), tuple(arr[:, 0].tolist())]
        for form in forms:
            got = canonicalize_observations(form, d)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_canonicalize_returns_a_canonical_array_as_is():
    ys = canonicalize_observations([[2.0], [0.5], [2.0], [-0.0]], 1)
    again = canonicalize_observations(ys, 1)
    assert again.shape == ys.shape and again.tobytes() == ys.tobytes()
    twice = np.array([[0.5], [0.5]])
    assert canonicalize_observations(twice, 1).shape == (1, 1)
    np.testing.assert_array_equal(canonicalize_observations({2.0, 0.5}, 1), [[0.5], [2.0]])
    with pytest.raises(ValueError):
        canonicalize_observations(np.array([[0.5], [np.inf]]), 1)


def test_signed_zeros_give_the_same_bytes_in_every_filter():
    # 0.0 == -0.0, so a scan holding both holds one observation there; the
    # states must not depend on which of the two was given first
    cfg = BenchConfig()
    p, b = cfg.proposed_params(), cfg.baseline_params(10.0)
    mt = MultiTargetParams(trans=p.trans, trans_noise=p.trans_noise, obs=p.obs, obs_noise=p.obs_noise)
    scans = ([[-0.0], [0.0], [3.0]], [[0.0], [-0.0], [3.0]], np.array([[-0.0], [3.0]]), [0.0, 3.0])
    seen = set()
    for scan in scans:
        st, ip, fm = ExtendedPossibility.absent(), IpdaState.initial(), IntensityMixture()
        for _ in range(2):
            st = step(st, p, scan)
            ip = ipda_step(ip, b, scan)
            fm = update_intensity(propagate_intensity(fm, mt), mt, scan)
        arrays = (st.on_s.weights, st.on_s.means, st.on_s.covs, ip.weights, ip.means, ip.covs,
                  fm.weights, fm.means, fm.covs)
        scalars = (st.psi_mass, st.on_s.flat_weight, ip.existence, ip.diffuse_weight, fm.floor)
        seen.add((tuple(a.tobytes() for a in arrays), repr(scalars)))
    assert len(seen) == 1


def test_clutter_no_knowledge_is_one():
    model = ClutterModel()  # no knowledge: every field left at None
    assert clutter_possibility(model, np.zeros((7, 1))) == 1.0
    assert clutter_possibility(model, []) == 1.0


def test_clutter_cardinality_only():
    model = ClutterModel(card=lambda n: 0.9**n)
    assert clutter_possibility(model, np.zeros((2, 1))) == pytest.approx(0.81, rel=1e-15)
    assert clutter_possibility(model, []) == 1.0


def test_clutter_counts_scalar_observations_one_each():
    # [1.0, 2.0] was read as one 2-d observation (0.5) and a set raised TypeError
    model = ClutterModel(card=lambda n: 0.5**n)
    for ys in ([1.0, 2.0], np.array([1.0, 2.0]), {1.0, 2.0}, (y for y in (1.0, 2.0)), [[1.0], [2.0]]):
        assert clutter_possibility(model, ys) == 0.25
    spatial = ClutterModel(spatial=lambda y: 0.5 if y.shape == (1,) else 0.0)
    assert clutter_possibility(spatial, {1.0, 2.0}) == 0.25
    assert clutter_possibility(model, set()) == 1.0


def test_clutter_spatial_product():
    # frozen: 0.9^2 * N(0;0,1) * N(1;0,1) = 0.81 * exp(-0.5)
    model = ClutterModel(
        card=lambda n: 0.9**n,
        spatial=lambda y: math.exp(-0.5 * float(y[0]) ** 2),
    )
    val = clutter_possibility(model, [[0.0], [1.0]])
    assert val == pytest.approx(0.81 * math.exp(-0.5), rel=1e-15)


def test_clutter_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        clutter_possibility(ClutterModel(card=lambda n: 1.5), [[0.0]])


# --------------------------------------------------------------------- birth


def test_birth_places_observed_coordinates():
    p = params_ncv(obs=np.array([[1.0, 0.0]]), obs_noise=np.array([[0.25]]),
                   birth=ObservationDrivenBirth(velocity_std=2.0))
    out = update(ExtendedPossibility(0.0, MaxMixture(flat_weight=1.0)), p, [[2.0]])
    np.testing.assert_array_equal(out.on_s.means, [[2.0, 0.0]])
    np.testing.assert_array_equal(out.on_s.covs, [[[0.25, 0.0], [0.0, 4.0]]])


def test_birth_needs_selection_matrix():
    p = params_ncv(obs=np.array([[1.0, 0.5]]), obs_noise=np.array([[0.25]]))
    with pytest.raises(ValueError, match="selection"):
        update(ExtendedPossibility(0.0, MaxMixture(flat_weight=1.0)), p, [[1.0]])


# ------------------------------------------------------------------- predict


def test_predict_from_absent_raises_flat_to_psi():
    st = ExtendedPossibility.absent()
    out = predict(st, params_ncv())
    assert out.on_s.flat_weight == 1.0
    assert not out.on_s.components
    # absence: max(remain_absent * 1, disappearance * 0)
    assert out.psi_mass == 0.5
    assert out.time_index == 1


def test_predict_propagates_component_and_feeds_absence():
    cfg = ScenarioConfig()
    F, Q = transition_matrix(cfg), process_noise(cfg)
    st = ExtendedPossibility(
        0.0, MaxMixture([1.0], [[0.0, 1.0]], [np.eye(2)])
    )
    out = predict(st, params_ncv())
    c = out.on_s.components[0]
    assert c.weight == 1.0
    np.testing.assert_allclose(c.mean, [0.1, 1.0], atol=1e-15)
    np.testing.assert_allclose(c.cov, F @ np.eye(2) @ F.T + Q, atol=1e-15)
    # absence now only reachable through disappearance
    assert out.psi_mass == pytest.approx(0.01, abs=1e-18)
    assert out.on_s.flat_weight == 0.0


def test_predict_flat_term_never_decays_with_full_survival():
    # flat -> max(flat * survival, psi): with survival 1 the flat term is
    # invariant under prediction whenever psi is smaller
    st = ExtendedPossibility(0.2, MaxMixture(flat_weight=0.7))
    out = predict(st, params_ncv())
    assert out.on_s.flat_weight == 0.7


def test_predict_survival_scales_weights():
    st = ExtendedPossibility(
        0.0,
        MaxMixture([1.0], [[0.0, 0.0]], [np.eye(2)], flat_weight=0.4),
    )
    out = predict(st, params_ncv(survival=0.5, disappearance=1.0))
    assert out.on_s.components[0].weight == pytest.approx(0.5, abs=0)
    assert out.on_s.flat_weight == pytest.approx(0.2, abs=1e-18)


def test_predict_explicit_birth_scaled_by_psi():
    birth = ExplicitBirth(MaxMixture([0.8], [[1.0, 0.0]], [np.eye(2)]))
    st = ExtendedPossibility(0.5, MaxMixture())
    out = predict(st, params_ncv(birth=birth))
    assert len(out.on_s.components) == 1
    assert out.on_s.components[0].weight == pytest.approx(0.4, abs=1e-18)
    assert out.on_s.flat_weight == 0.0  # explicit mode adds no flat term


def test_explicit_birth_is_checked_once_when_built():
    mix = MaxMixture([0.8, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [np.eye(2)] * 2)
    birth = ExplicitBirth(mix)
    assert birth.mixture is mix
    with pytest.raises(ValueError, match="MaxMixture"):
        ExplicitBirth(mix.components)
    with pytest.raises(ValueError, match="at least one term"):
        ExplicitBirth(MaxMixture())
    with pytest.raises(ValueError, match="no flat term"):
        ExplicitBirth(MaxMixture([0.8], [[1.0, 0.0]], [np.eye(2)], flat_weight=0.3))
    with pytest.raises(ValueError, match="state dimension"):
        params_1d(birth=birth)


# -------------------------------------------------------------------- update


def test_update_branches_centered_observation():
    st = ExtendedPossibility(0.1, mixture(g1(1.0, 0.0, 1.0)))
    out = update(st, params_1d(), [[0.0]])
    # misdetection branch first, then the detection branch; C_t = 1
    ws = [c.weight for c in out.on_s.components]
    assert ws == pytest.approx([0.2, 1.0], abs=1e-18)
    det = out.on_s.components[1]
    np.testing.assert_allclose(det.mean, [0.0], atol=0)
    np.testing.assert_allclose(det.cov, [[0.5]], atol=1e-15)
    assert out.psi_mass == pytest.approx(0.1, abs=1e-18)
    assert out.time_index == st.time_index


def test_update_renormalizes_by_global_max():
    # frozen: lik = exp(-1) at y = 2; it is the max, so it maps to weight 1
    st = ExtendedPossibility(0.1, mixture(g1(1.0, 0.0, 1.0)))
    out = update(st, params_1d(), [[2.0]])
    ws = [c.weight for c in out.on_s.components]
    assert ws[1] == 1.0
    assert ws[0] == pytest.approx(0.2 / EXP_M1, rel=1e-14)
    assert out.psi_mass == pytest.approx(0.1 / EXP_M1, rel=1e-14)


def test_update_empty_set_scales_by_misdetection():
    st = ExtendedPossibility(0.5, mixture(g1(1.0, 0.0, 1.0), flat_weight=0.3))
    out = update(st, params_1d(), [])
    # only misdetection branches: comp 0.2, flat 0.06, psi 0.5 -> C = 0.5
    assert out.psi_mass == 1.0
    assert out.on_s.components[0].weight == pytest.approx(0.4, rel=1e-15)
    assert out.on_s.flat_weight == pytest.approx(0.12, rel=1e-15)


def test_update_spawns_birth_from_flat_term():
    st = ExtendedPossibility(0.2, MaxMixture(flat_weight=1.0))
    out = update(st, params_ncv(), [[1.5]])
    comps = out.on_s.components
    assert len(comps) == 1
    birth = comps[0]
    assert birth.weight == 1.0  # flat * f_loo = 1 is the global max
    np.testing.assert_array_equal(birth.mean, [1.5, 0.0])
    np.testing.assert_array_equal(birth.cov, [[0.0625, 0.0], [0.0, 1.0]])
    assert out.on_s.flat_weight == pytest.approx(0.2, rel=1e-15)
    assert out.psi_mass == pytest.approx(0.2, rel=1e-15)


def test_update_locates_a_flat_terms_births_with_velocity_std_1_under_explicit_birth():
    # an explicit birth adds no flat term, but a state can bring one; its
    # births take the observation noise and velocity std 1.0, whatever the
    # explicit mixture's covariances
    birth = ExplicitBirth(MaxMixture([0.8], [[1.0, 0.0]], [4.0 * np.eye(2)]))
    st = ExtendedPossibility(0.2, MaxMixture(flat_weight=1.0))
    out = update(st, params_ncv(birth=birth), [[1.5]])
    np.testing.assert_array_equal(out.on_s.means, [[1.5, 0.0]])
    np.testing.assert_array_equal(out.on_s.covs, [[[0.0625, 0.0], [0.0, 1.0]]])


def test_update_sup_is_one_after_normalization():
    rng = np.random.default_rng(5)
    st = ExtendedPossibility(1.0, MaxMixture())
    p = params_ncv()
    for t in range(15):
        ys = rng.uniform(-10, 10, size=(rng.integers(0, 4), 1))
        st = update(predict(st, p), p, ys)
        assert max(st.psi_mass, st.on_s.sup()) == 1.0


def test_update_permutation_and_duplicate_invariance():
    st = ExtendedPossibility(
        0.3, MaxMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    )
    p = params_ncv()
    a = update(st, p, [[0.5], [-1.0]])
    b = update(st, p, [[-1.0], [0.5]])
    c = update(st, p, [[0.5], [-1.0], [0.5]])
    for other in (b, c):
        assert other.psi_mass == a.psi_mass
        assert other.on_s.flat_weight == a.on_s.flat_weight
        assert len(other.on_s.components) == len(a.on_s.components)
        for ca, co in zip(a.on_s.components, other.on_s.components):
            assert ca.weight == co.weight
            np.testing.assert_array_equal(ca.mean, co.mean)
            np.testing.assert_array_equal(ca.cov, co.cov)


@settings(max_examples=20, deadline=None)
@given(
    seed=hst.integers(0, 10_000),
    lam=hst.sampled_from([0.0, 1.0, 5.0, 10.0]),
    n_steps=hst.integers(1, 12),
    shuffle=hst.randoms(use_true_random=False),
)
def test_step_invariants_under_clutter(seed, lam, n_steps, shuffle):
    # max(absence, sup) = 1 after every step, IPDA's weights plus diffuse
    # mass = 1, and a permuted observation set with a duplicate gives
    # bit-identical states in both filters
    cfg = BenchConfig()
    p = cfg.proposed_params()
    b = cfg.baseline_params(lam)
    _, obs = make_run(cfg.scenario, lam, seed, 0, 0)
    st = ExtendedPossibility.absent()
    ip = IpdaState.initial()
    for ys in obs.steps[:n_steps]:
        out = step(st, p, ys)
        ip_out = ipda_step(ip, b, ys)
        assert max(out.psi_mass, out.on_s.sup()) == pytest.approx(1.0, abs=1e-12)
        assert ip_out.weights.sum() + ip_out.diffuse_weight == pytest.approx(1.0, abs=1e-9)
        if ys:
            other = list(ys) + [ys[0]]
            shuffle.shuffle(other)
            alt = step(st, p, other)
            ip_alt = ipda_step(ip, b, other)
            assert alt.psi_mass == out.psi_mass
            assert alt.on_s.flat_weight == out.on_s.flat_weight
            assert ip_alt.existence == ip_out.existence
            assert ip_alt.diffuse_weight == ip_out.diffuse_weight
            assert ip_alt.time_index == ip_out.time_index
            for x, y in ((alt.on_s.weights, out.on_s.weights), (alt.on_s.means, out.on_s.means),
                         (alt.on_s.covs, out.on_s.covs), (ip_alt.weights, ip_out.weights),
                         (ip_alt.means, ip_out.means), (ip_alt.covs, ip_out.covs)):
                np.testing.assert_array_equal(x, y)
        st, ip = out, ip_out


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(0, 10_000),
    lam=hst.sampled_from([0.0, 2.0, 10.0, 30.0]),
    survival=hst.floats(0.05, 1.0),
    missed=hst.floats(0.01, 0.99),
    birth_floor=hst.floats(0.0, 1.0),
    clutter_floor=hst.floats(0.0, 1.0),
    q_accel=hst.floats(0.01, 5.0),
    r_obs=hst.floats(0.05, 3.0),
    n_steps=hst.integers(1, 12),
    shuffle=hst.randoms(use_true_random=False),
)
def test_invariants_hold_for_random_model_parameters(
    seed, lam, survival, missed, birth_floor, clutter_floor, q_accel, r_obs, n_steps, shuffle
):
    # every filter's invariant after every step, and bit-identical states for
    # a permuted observation set with a duplicate, under random models
    sc = ScenarioConfig(q_accel=q_accel, r_obs=r_obs)
    cfg = BenchConfig(scenario=sc, a_pi=survival, a_omega=1.0 if survival < 1.0 else 0.01, a_df=missed,
                      p_d=1.0 - missed, p_s=survival, p_b=birth_floor)
    p, b = cfg.proposed_params(), cfg.baseline_params(lam)
    mt = MultiTargetParams(trans=p.trans, trans_noise=p.trans_noise, obs=p.obs, obs_noise=p.obs_noise,
                           survival=survival, missed_detection=missed,
                           birth=IntensityMixture(flat_weight=birth_floor),
                           clutter=IntensityMixture(flat_weight=clutter_floor))
    _, obs = make_run(sc, lam, seed, 0, 0)
    st, ip, fm = ExtendedPossibility.absent(), IpdaState.initial(), IntensityMixture()

    def run(state, scan):
        st, ip, fm = state
        return step(st, p, scan), ipda_step(ip, b, scan), update_intensity(propagate_intensity(fm, mt), mt, scan)

    def bits(state):
        st, ip, fm = state
        arrays = (st.on_s.weights, st.on_s.means, st.on_s.covs, ip.weights, ip.means, ip.covs,
                  fm.weights, fm.means, fm.covs)
        scalars = (st.psi_mass, st.on_s.flat_weight, st.time_index, ip.existence, ip.diffuse_weight,
                   ip.time_index, fm.floor)
        return [a.tobytes() for a in arrays], [a.shape for a in arrays], repr(scalars)

    state = (st, ip, fm)
    for ys in obs.steps[:n_steps]:
        out = run(state, ys)
        st, ip, fm = out
        assert max(st.psi_mass, st.on_s.sup()) == pytest.approx(1.0, abs=1e-12)
        assert ip.weights.sum() + ip.diffuse_weight == pytest.approx(1.0, abs=1e-9)
        assert fm.sup() <= 1.0
        if ys:
            other = list(ys) + [ys[0]]
            shuffle.shuffle(other)
            assert bits(run(state, other)) == bits(out)
        state = out


def test_update_far_observation_changes_nothing_locally():
    st = ExtendedPossibility(
        0.3, MaxMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    )
    p = params_ncv()
    near = update(st, p, [[0.5]])
    far = update(st, p, [[0.5], [40.0]])  # ~36 sigma in the innovation metric
    assert far.psi_mass == near.psi_mass
    # the two shared branches are bit-identical; the extra branch is dust
    for ca, cf in zip(near.on_s.components, far.on_s.components[: len(near.on_s.components)]):
        assert ca.weight == cf.weight
        np.testing.assert_array_equal(ca.mean, cf.mean)
    extra = [c.weight for c in far.on_s.components[len(near.on_s.components):]]
    assert all(w < 1e-200 for w in extra)


def test_update_all_zero_possibility_raises():
    st = ExtendedPossibility(0.0, MaxMixture(flat_weight=0.5))
    p = params_1d(clutter=ClutterModel(card=lambda n: 0.0))
    with pytest.raises(NumericalError):
        update(st, p, [[1.0]])


# ------------------------------------------------------------------ estimate


def test_estimate_confirms_clear_leader():
    st = ExtendedPossibility(
        0.1, mixture(g1(1.0, 2.0, 1.0), g1(0.2, -1.0, 1.0))
    )
    np.testing.assert_array_equal(estimate(st, tau_c=0.5), [2.0])


def test_estimate_ambiguous_pair_stays_silent():
    st = ExtendedPossibility(
        0.1, mixture(g1(1.0, 2.0, 1.0), g1(0.9, -1.0, 1.0))
    )
    assert estimate(st, tau_c=0.5) is None


def test_estimate_requires_beating_absence():
    st = ExtendedPossibility(1.0, mixture(g1(1.0, 2.0, 1.0)))
    assert estimate(st, tau_c=0.0) is None  # tie with absence stays absent


def test_estimate_flat_term_plays_runner_up():
    st = ExtendedPossibility(0.1, mixture(g1(1.0, 2.0, 1.0), flat_weight=0.6))
    assert estimate(st, tau_c=0.5) is None
    st2 = ExtendedPossibility(0.1, mixture(g1(1.0, 2.0, 1.0), flat_weight=0.4))
    np.testing.assert_array_equal(estimate(st2, tau_c=0.5), [2.0])


def test_estimate_empty_mixture_is_absent():
    assert estimate(ExtendedPossibility.absent(), tau_c=0.1) is None


def test_estimate_threshold_is_strict():
    st = ExtendedPossibility(0.1, mixture(g1(1.0, 2.0, 1.0), g1(0.5, 0.0, 1.0)))
    assert estimate(st, tau_c=0.5) is None  # gap exactly 0.5 is not enough
    assert estimate(st, tau_c=0.499) is not None


# ---------------------------------------------------------------------- step


def test_step_is_predict_update_reduce_composition():
    p = params_ncv()
    st = ExtendedPossibility(
        0.4, MaxMixture([1.0], [[0.0, 0.5]], [np.eye(2)])
    )
    ys = [[0.3], [5.0]]
    via_step = step(st, p, ys)
    manual = update(predict(st, p), p, ys)
    mix = prune(manual.on_s, p.prune_threshold)
    mix = dominance_reduce(mix)
    mix = merge(mix, p.merge_threshold)
    assert via_step.psi_mass == manual.psi_mass
    assert via_step.time_index == manual.time_index
    assert len(via_step.on_s.components) == len(mix.components)
    for a, b in zip(via_step.on_s.components, mix.components):
        assert a.weight == b.weight
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)


def test_step_sequence_locks_onto_clean_track():
    # noiseless-ish data starting from total ignorance: after a few steps the
    # filter must confirm the system at the true position
    p = params_ncv()
    st = ExtendedPossibility.absent()
    pos = 0.0
    for t in range(8):
        st = step(st, p, [[pos]])
        pos += 0.1  # matches unit velocity under dt = 0.1... kept simple
    est = estimate(st, tau_c=0.5)
    assert est is not None
    assert abs(est[0] - (pos - 0.1)) < 0.5
