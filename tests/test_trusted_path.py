"""The recursions build their stacks and states without the full boundary check.

The property test runs that check, ``_checked_stack`` or the
``ExtendedPossibility`` or ``IpdaState`` constructor, on the output of every
stage over random scans and model parameters, so a recursion that produced a
stack or a state a caller could not build would fail here.  Another test
pins what the shared ``_trusted`` stores.  The other tests force a numerical
breakdown in each recursion and expect NumericalError, never a ValueError or
a LinAlgError.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from possitrack.bench import BenchConfig, make_run
from possitrack import ipda
from possitrack.bench import default_config
from possitrack.intensity import (
    IntensityMixture,
    MultiTargetParams,
    extract_targets,
    propagate_intensity,
    update_intensity,
)
from possitrack.ipda import IpdaParams, IpdaState, ipda_predict, ipda_step, ipda_update
from possitrack.mixtures import (
    LinearGaussianModel,
    MaxMixture,
    NumericalError,
    _checked_stack,
    dominance_reduce,
    merge,
    prune,
)
from possitrack.scenario import ScenarioConfig
from possitrack.single_target import (
    ExplicitBirth,
    ExtendedPossibility,
    SingleTargetParams,
    predict,
    step,
    update,
)


def assert_checked(mix: MaxMixture) -> None:
    """The stack passes the boundary check and is read-only, and kept
    precisions are the inverses of its covariances, bit for bit."""
    w, m, v = _checked_stack(mix.weights, mix.means, mix.covs)
    for a, b in ((w, mix.weights), (m, mix.means), (v, mix.covs)):
        assert np.array_equal(a, b)
        assert not b.flags.writeable
    assert 0.0 <= mix.flat_weight <= 1.0
    assert type(mix.flat_weight) is float
    if "_precs" in mix.__dict__:
        precs = mix._precisions()
        assert not precs.flags.writeable
        assert precs.shape == mix.covs.shape and precs.tobytes() == np.linalg.inv(mix.covs).tobytes()


def assert_checked_state(state: ExtendedPossibility) -> None:
    """The state passes the constructor's full check, and its mixture the stack's."""
    again = ExtendedPossibility(state.psi_mass, state.on_s, state.time_index)
    assert again.psi_mass == state.psi_mass and again.time_index == state.time_index
    assert type(state.psi_mass) is float and type(state.time_index) is int
    assert_checked(state.on_s)


def assert_checked_ipda(state: IpdaState) -> None:
    """The state passes the constructor's full check and is read-only."""
    again = IpdaState(state.existence, state.weights, state.means, state.covs,
                      state.diffuse_weight, state.time_index)
    for a, b in ((again.weights, state.weights), (again.means, state.means), (again.covs, state.covs)):
        assert a.shape == b.shape and np.array_equal(a, b)
        assert not b.flags.writeable
    assert again.existence == state.existence and again.diffuse_weight == state.diffuse_weight
    assert type(state.existence) is float and type(state.diffuse_weight) is float


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    lam=st.sampled_from([0.0, 2.0, 10.0]),
    dt=st.floats(0.01, 1.0),
    q_accel=st.floats(0.0, 5.0),
    r_obs=st.floats(0.01, 3.0),
    survival=st.floats(0.05, 1.0),
    missed=st.floats(0.01, 1.0),
    explicit_birth=st.booleans(),
    n_steps=st.integers(1, 10),
)
def test_trusted_path_admits_no_bad_stack(
    seed, lam, dt, q_accel, r_obs, survival, missed, explicit_birth, n_steps
):
    sc = ScenarioConfig(dt=dt, q_accel=q_accel, r_obs=r_obs)
    cfg = BenchConfig(scenario=sc, a_pi=survival, a_omega=1.0 if survival < 1.0 else 0.01,
                      a_df=missed, p_d=1.0 - missed, p_s=survival)
    p = cfg.proposed_params()
    b = cfg.baseline_params(lam)
    if explicit_birth:
        p = replace(p, birth=ExplicitBirth(MaxMixture([0.9], [[0.0, 0.0]], [np.diag([4.0, 1.0])])))
    mt = MultiTargetParams(trans=p.trans, trans_noise=p.trans_noise, obs=p.obs,
                           obs_noise=p.obs_noise, survival=survival, missed_detection=missed)
    _, obs = make_run(sc, lam, seed, 0, 0)
    state, fm, ip = ExtendedPossibility.absent(), IntensityMixture(), IpdaState.initial()
    for ys in obs.steps[:n_steps]:
        ip = ipda_predict(ip, b)
        assert_checked_ipda(ip)
        ip = ipda_update(ip, b, ys)
        assert_checked_ipda(ip)
        pred = predict(state, p)
        assert_checked_state(pred)
        post = update(pred, p, ys)
        assert_checked_state(post)
        mix = prune(post.on_s, p.prune_threshold)
        assert_checked(mix)
        mix = dominance_reduce(mix)
        assert_checked(mix)
        mix = merge(mix, p.merge_threshold)
        assert_checked(mix)
        stepped = step(state, p, ys)
        assert_checked_state(stepped)
        assert stepped.psi_mass == post.psi_mass and stepped.time_index == post.time_index
        for got, want in ((stepped.on_s.weights, mix.weights), (stepped.on_s.means, mix.means),
                          (stepped.on_s.covs, mix.covs)):
            assert got.tobytes() == want.tobytes()
        state = stepped
        fm = propagate_intensity(fm, mt)
        assert_checked(fm)
        fm = update_intensity(fm, mt, ys)
        assert_checked(fm)


def _field_values(cls):
    """Arguments of one instance of cls, in field order, with new writable arrays."""
    w, m, v = np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None].copy()
    return {
        MaxMixture: (w, m, v, 0.5),
        IntensityMixture: (w, m, v, 0.5),
        IpdaState: (0.5, w, m, v, 0.0, 3),
        ExtendedPossibility: (0.5, MaxMixture(), 3),
        LinearGaussianModel: (np.eye(2), np.eye(2), np.array([[1.0, 0.0]]), np.eye(1)),
    }[cls]


@pytest.mark.parametrize("cls", [MaxMixture, IntensityMixture, IpdaState, ExtendedPossibility, LinearGaussianModel],
                         ids=lambda cls: cls.__name__)
def test_trusted_stores_the_values_in_field_order_and_freezes_the_arrays(cls):
    values = _field_values(cls)
    arrays = [value for value in values if isinstance(value, np.ndarray)]
    assert all(a.flags.writeable for a in arrays)
    rec = cls._trusted(*values)
    assert type(rec) is cls
    names = [f.name for f in fields(cls)]
    assert len(names) == len(values)
    for name, value in zip(names, values):
        assert getattr(rec, name) is value  # kept, not copied
    assert not any(a.flags.writeable for a in arrays)


def model(**kw):
    mats = dict(trans=np.eye(2), trans_noise=np.eye(2), obs=np.array([[1.0, 0.0]]), obs_noise=np.eye(1))
    mats.update(kw)
    return mats


def test_singular_predicted_covariance_raises_numerical_error():
    # F = 0 and Q = 0 collapse every predicted covariance to 0
    mats = model(trans=np.zeros((2, 2)), trans_noise=np.zeros((2, 2)))
    state = ExtendedPossibility(0.5, MaxMixture([1.0], [[0.0, 0.0]], [np.eye(2)]))
    with pytest.raises(NumericalError, match="predicted covariance"):
        predict(state, SingleTargetParams(**mats))
    fm = IntensityMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    with pytest.raises(NumericalError, match="predicted covariance"):
        propagate_intensity(fm, MultiTargetParams(**mats))
    with pytest.raises(NumericalError, match="predicted covariance"):
        ipda_predict(IpdaState(0.5, [1.0], [[0.0, 0.0]], [np.eye(2)]), IpdaParams(**mats))
    # F V F' overflows to inf, which a Cholesky factorization does not reject
    big = ExtendedPossibility(0.5, MaxMixture([1.0], [[0.0, 0.0]], [1e200 * np.eye(2)]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="predicted covariance"):
        predict(big, SingleTargetParams(**model(trans=1e200 * np.eye(2))))


def test_predict_drops_a_weight_that_underflows():
    state = ExtendedPossibility(0.5, MaxMixture([1.0, 5e-324], [[0.0, 0.0], [1.0, 0.0]], [np.eye(2)] * 2))
    out = predict(state, SingleTargetParams(**model(), survival=0.5, disappearance=1.0))
    assert_checked(out.on_s)
    np.testing.assert_array_equal(out.on_s.weights, [0.5])


def test_singular_posterior_covariance_raises_numerical_error():
    # a noiseless observation of the whole state leaves no posterior spread
    mats = model(obs=np.eye(2), obs_noise=np.zeros((2, 2)))
    term = [1.0], [[0.0, 0.0]], [np.eye(2)]
    with pytest.raises(NumericalError, match="posterior covariance"):
        update(ExtendedPossibility(0.5, MaxMixture(*term)), SingleTargetParams(**mats), [[0.1, 0.2]])
    with pytest.raises(NumericalError, match="posterior covariance"):
        update_intensity(IntensityMixture(*term), MultiTargetParams(**mats), [[0.1, 0.2]])
    state = IpdaState(0.5, [1.0], [[0.0, 0.0]], [np.eye(2)])
    with pytest.raises(NumericalError, match="posterior covariance"):
        ipda_update(state, IpdaParams(**mats), [[0.1, 0.2]])


def test_singular_birth_covariance_raises_numerical_error():
    # zero observation noise gives a term born from an observation no spread
    mats = model(obs_noise=np.zeros((1, 1)))
    with pytest.raises(NumericalError, match="birth covariance"):
        update(ExtendedPossibility(0.5, MaxMixture(flat_weight=1.0)), SingleTargetParams(**mats), [0.5])
    with pytest.raises(NumericalError, match="birth covariance"):
        update_intensity(IntensityMixture(flat_weight=0.5), MultiTargetParams(**mats), [0.5])
    with pytest.raises(NumericalError, match="birth covariance"):
        ipda_update(IpdaState.initial(), IpdaParams(**mats), [0.5])


def test_birth_covariance_is_factorized_once_per_parameter_object(monkeypatch):
    import possitrack.single_target as single_target

    checked = []
    real = single_target._require_pd

    def counting(covs, what):
        checked.append(what)
        real(covs, what)

    monkeypatch.setattr(single_target, "_require_pd", counting)
    mats = model()
    filters = (
        (SingleTargetParams(**mats), lambda p: update(ExtendedPossibility(0.5, MaxMixture(flat_weight=1.0)), p, [0.5, 2.0])),
        (IpdaParams(**mats), lambda p: ipda_update(IpdaState.initial(), p, [0.5, 2.0])),
        (MultiTargetParams(**mats), lambda p: update_intensity(IntensityMixture(flat_weight=0.5), p, [0.5, 2.0])),
    )
    for params, run in filters:
        for _ in range(4):
            run(params)
        assert checked.count("birth") == 1
        run(replace(params))  # a new parameter object builds its own
        assert checked.count("birth") == 2
        checked.clear()
    params = IpdaParams(**mats)
    _, cov, prec = single_target._born_terms(params, 1.0, np.array([[0.5]]))
    assert not cov.flags.writeable and not prec.flags.writeable
    again = single_target._born_terms(params, 1.0, np.array([[2.0]]))
    assert again[1] is cov and again[2] is prec
    np.testing.assert_array_equal(cov, single_target._birth_layout(params, 1.0)[1])
    assert prec.tobytes() == np.linalg.inv(cov).tobytes()


def test_singular_birth_covariance_is_reported_on_every_use():
    p = IpdaParams(**model(obs_noise=np.zeros((1, 1))))
    for _ in range(2):
        with pytest.raises(NumericalError, match="birth covariance"):
            ipda_update(IpdaState.initial(), p, [0.5])


# The updates keep each term's precision inv(V) beside the stack, take
# gathers it, and the reductions read it where they would invert V.  Each
# kept precision is one LAPACK inverse of its own covariance, so a reduction
# must give the bytes it gives on the same arrays without them.


def _same_bytes(a: MaxMixture, b: MaxMixture) -> bool:
    return a.flat_weight == b.flat_weight and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    )


def _rebuilt(mix: MaxMixture) -> MaxMixture:
    """The same terms through the public constructor, with no kept precisions."""
    again = type(mix)(mix.weights, mix.means, mix.covs, mix.flat_weight)
    assert "_precs" not in again.__dict__
    return again


def test_reductions_give_the_same_bytes_with_carried_precisions():
    cfg = default_config()
    p = cfg.proposed_params()
    mt = MultiTargetParams(trans=p.trans, trans_noise=p.trans_noise, obs=p.obs, obs_noise=p.obs_noise)
    _, obs = make_run(cfg.scenario, 30.0, 1, 0, 0)
    state, fm = ExtendedPossibility.absent(), IntensityMixture()
    for ys in obs.steps:
        post = update(predict(state, p), p, ys)
        pruned = prune(post.on_s, p.prune_threshold)
        assert "_precs" in pruned.__dict__
        reduced = dominance_reduce(pruned)
        assert _same_bytes(reduced, dominance_reduce(_rebuilt(pruned)))
        assert "_precs" in reduced.__dict__
        merged = merge(reduced, p.merge_threshold)
        assert _same_bytes(merged, merge(_rebuilt(reduced), p.merge_threshold))
        state = replace(post, on_s=merged)

        fm = update_intensity(propagate_intensity(fm, mt), mt, ys)
        assert "_precs" in fm.__dict__
        for tau_x, radius in ((0.9, 3.22), (0.0, 8.0)):
            got, want = extract_targets(fm, tau_x, radius), extract_targets(_rebuilt(fm), tau_x, radius)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_ipda_steps_with_handed_down_precisions_equal_inverting_the_kept_stack(monkeypatch):
    cfg = default_config()
    b = cfg.baseline_params(30.0)
    _, obs = make_run(cfg.scenario, 30.0, 1, 0, 1)
    handed = [IpdaState.initial()]
    for ys in obs.steps:
        handed.append(ipda_step(handed[-1], b, ys))
    gate_rows = ipda._gate_rows
    monkeypatch.setattr(ipda, "_gate_rows", lambda ms, vs, ps, *rest: gate_rows(ms, vs, np.linalg.inv(vs), *rest))
    for before, after, ys in zip(handed, handed[1:], obs.steps):
        again = ipda_step(before, b, ys)
        assert again.existence == after.existence and again.diffuse_weight == after.diffuse_weight
        for x, y in ((again.weights, after.weights), (again.means, after.means), (again.covs, after.covs)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert max(st.n_components for st in handed) > 1


def test_take_keeps_the_precision_stack_aligned_with_its_terms():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 2, 2))
    mix = MaxMixture(rng.uniform(0.1, 1.0, 6), rng.normal(size=(6, 2)), a @ np.swapaxes(a, 1, 2) + np.eye(2))
    assert "_precs" not in mix.__dict__ and "_precs" not in repr(mix)
    precs = mix._precisions()
    assert mix._precisions() is precs  # computed once, then kept
    for idx in ([5, 0, 3], [2, 2], [], np.arange(6)[::-1]):
        part = mix.take(idx)
        assert part._precisions().tobytes() == precs.take(idx, axis=0).tobytes()
        assert_checked(part)
    assert "_precs" not in MaxMixture._trusted(mix.weights, mix.means, mix.covs, 0.0).__dict__


def test_a_gaussian_clutter_mixture_is_inverted_once_per_parameter_object(monkeypatch):
    # eval_many reads the clutter's kept precisions, so the constant clutter
    # mixture of the parameters is inverted on the first scan only
    mt = MultiTargetParams(**model(), clutter=IntensityMixture([0.4], [[0.0]], [[[4.0]]], 0.3))
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    fm = IntensityMixture(flat_weight=0.5)
    for ys in ([0.5], [0.5, 2.0], [], [1.0], [-3.0, 0.2]):
        fm = update_intensity(propagate_intensity(fm, mt), mt, ys)
    assert inverted.count((1, 1, 1)) == 1
