"""Tests for the Gaussian max-mixture algebra.

Expected numbers marked "frozen" were computed beforehand with independent
closed-form or brute-force lattice oracles (see grid_sup_oracle in
oracles.py for the lattice used at runtime).
"""

import dataclasses
import importlib
import math
import pkgutil
import re
import tracemalloc
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import possitrack
from possitrack import mixtures
from possitrack.bench import BenchConfig, config_from_dict, default_config, make_run
from possitrack.intensity import IntensityMixture, MultiTargetParams, extract_targets, propagate_intensity
from possitrack.ipda import IpdaParams, IpdaState, _prune_and_merge, ipda_estimate
from possitrack.mixtures import (
    EXP_FLOOR,
    LinearGaussianModel,
    MaxMixture,
    NumericalError,
    _dominance_certificates,
    _floored_exp,
    _overshoot_bound,
    batch_kalman_update,
    dominance_reduce,
    merge,
    merge_with_report,
    prune,
)
from possitrack.scenario import GroundTruth, ScenarioConfig, error_at, simulate_truth
from possitrack.single_target import (
    ClutterModel,
    ExplicitBirth,
    ExtendedPossibility,
    ObservationDrivenBirth,
    SingleTargetParams,
    _birth_layout,
    estimate,
    predict,
    update,
)

from oracles import batch_quadratic, grid_sup_oracle
from test_intensity import _assert_same_intensity, _ref_propagate_intensity

# frozen oracle values
EXP_M1 = 0.36787944117144233  # exp(-1)
EXP_M9_4 = 0.10539922456186433  # exp(-9/4)


def g1(w, m, v):
    """A 1-d term (weight, mean, cov)."""
    return w, [m], [[v]]


def mixture(*terms, flat_weight=0.0):
    """The mixture of (weight, mean, cov) terms."""
    return MaxMixture(*zip(*terms), flat_weight=flat_weight)


# ---------------------------------------------------------------- components


def test_component_peaks_at_weight():
    g = mixture(g1(0.7, 1.5, 2.0))
    assert g(np.array([1.5])) == pytest.approx(0.7, rel=0, abs=0)


def test_component_value_at_three_sigma():
    g = mixture(g1(1.0, 0.0, 1.0))
    assert g(np.array([3.0])) == pytest.approx(np.exp(-4.5), rel=1e-15)


@pytest.mark.parametrize("w", [0.0, -0.1, 1.0000001, np.nan])
def test_component_rejects_bad_weight(w):
    with pytest.raises(ValueError):
        mixture(g1(w, 0.0, 1.0))


def test_component_rejects_non_pd_cov():
    with pytest.raises(ValueError):
        mixture(g1(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        mixture((1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]))


def test_component_rejects_asymmetric_cov():
    with pytest.raises(ValueError):
        mixture((1.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]))


def test_exp_floor_keeps_far_tail_finite():
    # a 60-sigma quadratic would underflow exp(); the floored exponent keeps
    # the value finite, nonnegative, and effectively zero
    g = mixture(g1(1.0, 0.0, 1.0))
    val = g(np.array([60.0]))
    assert np.isfinite(val)
    assert 0.0 <= val < 1e-300


# ------------------------------------------------------------------ mixtures


def test_mixture_eval_is_pointwise_max():
    mix = mixture(g1(1.0, 0.0, 1.0), flat_weight=0.8)
    # at x=3 the Gaussian term is exp(-4.5) < 0.8, so the flat term wins
    assert mix(np.array([3.0])) == pytest.approx(0.8, abs=0)
    assert mix(np.array([0.0])) == pytest.approx(1.0, abs=0)


def test_mixture_sup_is_max_of_weights():
    mix = mixture(g1(0.4, -1.0, 1.0), g1(0.9, 2.0, 0.5), flat_weight=0.3)
    assert mix.sup() == pytest.approx(0.9, abs=0)
    assert MaxMixture(flat_weight=0.25).sup() == 0.25


def test_mixture_eval_many_matches_scalar_calls():
    mix = mixture(g1(1.0, 0.0, 1.0), g1(0.5, 2.0, 0.7), flat_weight=0.1)
    xs = np.linspace(-4.0, 4.0, 33).reshape(-1, 1)
    batch = mix.eval_many(xs)
    singles = np.array([mix(x) for x in xs])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


def test_eval_many_reads_a_flat_vector_as_1d_points():
    mix = mixture(g1(1.0, 0.0, 1.0), g1(0.5, 2.0, 0.7), flat_weight=0.1)
    xs = np.linspace(-4.0, 4.0, 33)
    assert mix.eval_many(xs).tobytes() == mix.eval_many(xs[:, None]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_many_value_does_not_depend_on_the_batch(d, k):
    rng = np.random.default_rng(10 * k + d)
    a = rng.normal(size=(k, d, d))
    mix = MaxMixture(
        rng.uniform(0.1, 1.0, k), rng.normal(size=(k, d)), a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d)
    )
    xs = rng.normal(size=(50, d)) * 2.0
    batch = mix.eval_many(xs)
    quads = batch_quadratic(mix.means, mix.covs, xs)
    for i, x in enumerate(xs):
        assert mix.eval_many(x[None]).tobytes() == batch[i : i + 1].tobytes()
        assert batch_quadratic(mix.means, mix.covs, x[None]).tobytes() == quads[:, i : i + 1].tobytes()


def test_empty_mixture_without_flat_is_rejected_on_eval():
    mix = MaxMixture()
    assert mix.sup() == 0.0
    assert mix(np.array([0.0])) == 0.0


def test_mixture_rejects_mixed_dims():
    with pytest.raises(ValueError):
        mixture(g1(1.0, 0.0, 1.0), (1.0, [0.0, 0.0], np.eye(2)))


@settings(max_examples=60)
@given(
    w=st.floats(1e-6, 1.0),
    m=st.floats(-5.0, 5.0),
    v=st.floats(0.01, 10.0),
    flat=st.floats(0.0, 1.0),
)
def test_eval_at_mean_dominated_only_by_flat(w, m, v, flat):
    # the value at a component mean is max(weight, flat term)
    mix = mixture(g1(w, m, v), flat_weight=flat)
    assert mix(np.array([m])) == pytest.approx(max(w, flat), rel=1e-12)


# ------------------------------------------------------------ stack boundary


def stack3(d=2):
    """A valid stack of three terms, as writable arrays."""
    return np.array([1.0, 0.5, 0.25]), np.arange(3.0 * d).reshape(3, d), np.tile(np.eye(d), (3, 1, 1))


def _set_weight(value):
    def bad(ws, ms, vs, i):
        ws[i] = value
    return bad


def _asymmetric(ws, ms, vs, i):
    vs[i, 0, 1] = 0.5


def _not_pd(ws, ms, vs, i):
    vs[i] = [[1.0, 2.0], [2.0, 1.0]]


@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize(
    "spoil", [_set_weight(0.0), _set_weight(1.5), _set_weight(np.nan), _asymmetric, _not_pd]
)
def test_stack_rejects_bad_term_at_any_index(spoil, i):
    ws, ms, vs = stack3()
    MaxMixture(ws, ms, vs)
    spoil(ws, ms, vs, i)
    with pytest.raises(ValueError):
        MaxMixture(ws, ms, vs)


@pytest.mark.parametrize(
    "shapes",
    [
        (lambda ws, ms, vs: (ws, ms[:2], vs)),  # fewer means than weights
        (lambda ws, ms, vs: (ws, ms, vs[:2])),  # fewer covs than weights
        (lambda ws, ms, vs: (ws, ms, np.tile(np.eye(3), (3, 1, 1)))),  # cov dim != mean dim
        (lambda ws, ms, vs: (ws[:, None], ms, vs)),  # weights not 1-d
        (lambda ws, ms, vs: (ws, ms[:, 0], vs)),  # means not 2-d
    ],
)
def test_stack_rejects_mismatched_shapes(shapes):
    with pytest.raises(ValueError):
        MaxMixture(*shapes(*stack3()))


def _gaussian_possibility(ws, ms, vs):
    """A single Gaussian possibility: the mixture of the stack's first term."""
    return MaxMixture(ws[:1], ms[:1], vs[:1])


@pytest.mark.parametrize("build", [_gaussian_possibility, MaxMixture])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["means", "covs"])
def test_stack_rejects_non_finite_means_and_covs(build, bad, where):
    # an infinite variance made a term that is flat at its weight everywhere
    ws, ms, vs = stack3()
    build(ws, ms, vs)
    if where == "means":
        ms[0, 1] = bad
    else:
        vs[0, 1, 1] = bad
    with pytest.raises(ValueError, match=f"{where} must be finite"):
        build(ws, ms, vs)


@pytest.mark.parametrize("cls", [SingleTargetParams, MultiTargetParams, IpdaParams])
@pytest.mark.parametrize("name", ["trans", "trans_noise", "obs", "obs_noise"])
def test_params_reject_non_finite_matrices(cls, name):
    mats = dict(trans=np.array([[1.0, 0.1], [0.0, 1.0]]), trans_noise=np.eye(2),
                obs=np.array([[1.0, 0.0]]), obs_noise=np.eye(1))
    mats[name][0, 0] = np.inf
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**mats)


# ------------------------------------------------------------ scalar boundaries
#
# One row per (constructor or function, field, interval) checked where a
# scalar enters from outside.  build(field, value) gives that field the value
# and every other argument a valid default.  The interval is written as
# lo, hi and its brackets; "int" marks an integer field >= lo.  A row may end
# with more (value, accepted) probes.

_MIX = mixture(g1(1.0, 0.0, 1.0), g1(0.9, 0.1, 1.0))
_FM = IntensityMixture(_MIX.weights, _MIX.means, _MIX.covs, 0.1)
_PF = default_config().proposed_params()
_IPDA = default_config().baseline_params(1.0)
_TRUTH = simulate_truth(ScenarioConfig(), seed=0)
# birth velocity stds: from the square root of the smallest normal float to
# the largest float whose square is finite.  Of the probes, 0.0 squares to 0,
# 1e-200 to 0 too, 1e-160 to a subnormal, 1e-150 and 1e154 to normal floats
# and 1e200 to inf.
_STD = (1.4916681462400413e-154, 1.3407807929942596e154, "[]",
        (0.0, False), (1e-200, False), (1e-160, False), (1e-150, True), (1e154, True), (1e200, False))


def _model(field, value):
    return MultiTargetParams(trans=_PF.trans, trans_noise=_PF.trans_noise, obs=_PF.obs, obs_noise=_PF.obs_noise,
                             **{field: value})


def _ipda_state(field, value):
    return IpdaState(**{**dict(existence=0.5, weights=[], means=[], covs=[], diffuse_weight=1.0), field: value})


def _pf_state(field, value):
    return ExtendedPossibility(**{**dict(psi_mass=0.5, on_s=MaxMixture()), field: value})


BOUNDARIES = {
    "MaxMixture.flat_weight": (lambda f, v: MaxMixture(*stack3(), flat_weight=v), "flat_weight", 0, 1, "[]"),
    "prune.tau_p": (lambda f, v: prune(_MIX, v), "tau_p", 0, 1, "[)"),
    "merge.tau_m": (lambda f, v: merge(_MIX, v), "tau_m", 0, math.inf, "[]"),
    "merge_with_report.tau_m": (lambda f, v: merge_with_report(_MIX, v), "tau_m", 0, math.inf, "[]"),
    **{
        f"SingleTargetParams.{name}": (lambda f, v: replace(_PF, **{f: v}), name, 0, 1, "(]")
        for name in ("survival", "disappearance", "remain_absent", "missed_detection")
    },
    "SingleTargetParams.prune_threshold": (lambda f, v: replace(_PF, **{f: v}), "prune_threshold", 0, 1, "[)"),
    "SingleTargetParams.merge_threshold": (
        lambda f, v: replace(_PF, **{f: v}), "merge_threshold", 0, math.inf, "[]"
    ),
    "ObservationDrivenBirth.velocity_std": (lambda f, v: ObservationDrivenBirth(v), "velocity_std", *_STD),
    "ExtendedPossibility.psi_mass": (_pf_state, "psi_mass", 0, 1, "[]"),
    "ExtendedPossibility.time_index": (_pf_state, "time_index", 0, None, "int"),
    **{
        f"IpdaParams.{name}": (lambda f, v: replace(_IPDA, **{f: v}), name, 0, 1, "[]")
        for name in ("p_detect", "p_survive", "p_birth")
    },
    "IpdaParams.clutter_rate": (lambda f, v: replace(_IPDA, **{f: v}), "clutter_rate", 0, math.inf, "[)"),
    "IpdaParams.surveillance_volume": (
        lambda f, v: replace(_IPDA, **{f: v}), "surveillance_volume", 0, math.inf, "()"
    ),
    "IpdaParams.prune_threshold": (lambda f, v: replace(_IPDA, **{f: v}), "prune_threshold", 0, 1, "[)"),
    "IpdaParams.merge_threshold": (lambda f, v: replace(_IPDA, **{f: v}), "merge_threshold", 0, math.inf, "[]"),
    "IpdaParams.birth_velocity_std": (lambda f, v: replace(_IPDA, **{f: v}), "birth_velocity_std", *_STD),
    "IpdaState.existence": (_ipda_state, "existence", 0, 1, "[]"),
    "IpdaState.diffuse_weight": (_ipda_state, "diffuse_weight", 0, math.inf, "[)"),
    "IpdaState.time_index": (_ipda_state, "time_index", 0, None, "int"),
    "IpdaState.initial.time_index": (lambda f, v: IpdaState.initial(v), "time_index", 0, None, "int"),
    "MultiTargetParams.survival": (_model, "survival", 0, 1, "(]"),
    "MultiTargetParams.missed_detection": (_model, "missed_detection", 0, 1, "(]"),
    "MultiTargetParams.max_components": (_model, "max_components", 1, None, "int"),
    "MultiTargetParams.birth_velocity_std": (_model, "birth_velocity_std", *_STD),
    **{
        f"ScenarioConfig.{name}": (lambda f, v: ScenarioConfig(**{f: v}), name, lo, hi, closed)
        for name, lo, hi, closed in (
            ("dt", 0, math.inf, "()"),
            ("r_obs", 0, math.inf, "()"),
            ("q_accel", 0, math.inf, "[)"),
            ("lambda_fp", 0, math.inf, "[)"),
            ("init_vel_std", 0, math.inf, "[)"),
            ("p_detect", 0, 1, "[]"),
            ("fp_lo", -math.inf, math.inf, "()"),
            ("fp_hi", -math.inf, math.inf, "()"),
            ("t_birth", 0, None, "int"),
            ("t_death", 0, None, "int"),
            ("t_end", 0, None, "int"),
        )
    },
    "error_at.c_err": (lambda f, v: error_at(5, None, _TRUTH, c_err=v), "c_err", 0, math.inf, "()"),
    "BenchConfig.n_runs": (lambda f, v: BenchConfig(**{f: v}), "n_runs", 1, None, "int"),
    "BenchConfig.base_seed": (lambda f, v: BenchConfig(**{f: v}), "base_seed", 0, None, "int"),
    "BenchConfig.c_err": (lambda f, v: BenchConfig(**{f: v}), "c_err", 0, math.inf, "()"),
    # the std is checked as the birth model's
    "BenchConfig.birth_velocity_std": (lambda f, v: BenchConfig(birth_velocity_std=v), "velocity_std", *_STD),
    "BenchConfig.threshold_sweep": (lambda f, v: BenchConfig(threshold_sweep=(v,)), "threshold_sweep", 0, 1, "[)"),
    # each rate is checked as the baseline's clutter rate
    "BenchConfig.lambda_list": (lambda f, v: BenchConfig(lambda_list=(v,)), "clutter_rate", 0, math.inf, "[)"),
    "estimate.tau_c": (
        lambda f, v: estimate(ExtendedPossibility(psi_mass=0.5, on_s=_MIX), v), "tau_c", -math.inf, math.inf, "[]"
    ),
    "ipda_estimate.tau_conf": (
        lambda f, v: ipda_estimate(IpdaState(0.5, [0.6, 0.4], _MIX.means, _MIX.covs, 0.0), v),
        "tau_conf", -math.inf, math.inf, "[]",
    ),
    **{
        f"extract_targets.{name}": (lambda f, v: extract_targets(_FM, **{f: v}), name, -math.inf, math.inf, "[]")
        for name in ("tau_x", "merge_radius")
    },
}


def _probes(lo, hi, closed):
    """(value, accepted) pairs: NaN, True, a numeric string, both infinities,
    an int past the float range, and each finite end with the nearest float
    and up to three more values outside it."""
    if closed == "int":
        return [(lo, True), (lo - 1, False), (2.5, False), (True, False), (str(lo), False), (math.nan, False),
                (math.inf, False)]
    probes = [
        (math.nan, False),
        (True, False),  # a bool is no number, though float(True) is 1.0
        ("0.5", False),  # nor is a string, though float("0.5") is 0.5
        (-math.inf, lo == -math.inf and closed[0] == "["),
        (math.inf, hi == math.inf and closed[1] == "]"),
        (10**400, hi == math.inf and closed[1] == "]"),  # float() overflows on it; it counts as inf
    ]
    for end, bracket, outward in ((lo, closed[0], -1.0), (hi, closed[1], 1.0)):
        if math.isfinite(end):
            probes.append((end, bracket in "[]"))
            probes.append((float(np.nextafter(end, outward * math.inf)), False))
            # at 1.34e154, end + 1.0 rounds back to the end
            probes += [(end + outward * d, False) for d in (0.1, 0.5, 1.0) if end + outward * d != end]
    return probes


@pytest.mark.parametrize("row", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_scalar_boundary(row):
    # a value this row accepts may still fail another rule (such as
    # t_birth <= t_death); a value it rejects must fail this rule
    build, field, lo, hi, closed, *extra = row
    for value, accepted in [*_probes(lo, hi, closed), *extra]:
        try:
            build(field, value)
            rejected = False
        except ValueError as err:
            rejected = str(err).startswith(f"{field} must be ")
        assert rejected != accepted, f"{field}={value!r}"


def _declared_rules():
    """("Class.field", rule, default) of every dataclass field in the package that declares a scalar rule."""
    for info in pkgutil.iter_modules(possitrack.__path__):
        module = importlib.import_module(f"possitrack.{info.name}")
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == module.__name__:
                for f in dataclasses.fields(cls):
                    if "rule" in f.metadata:
                        yield f"{cls.__name__}.{f.name}", f.metadata["rule"], f.default


@pytest.mark.parametrize("name, rule, default", [pytest.param(*r, id=r[0]) for r in _declared_rules()])
def test_declared_scalar_is_probed_and_stored_as_a_python_number(name, rule, default):
    # every declared rule has its BOUNDARIES row, and a numpy scalar inside
    # the interval is stored as the float or int that the rule returns
    build, field, *row_rule = BOUNDARIES[name][:5]
    assert tuple(row_rule) == rule
    if rule[2] == "int":
        value, kind = np.int64(rule[0] if default is dataclasses.MISSING else default), int
    else:
        value, kind = np.float32(0.5 if default is dataclasses.MISSING else default), float
    stored = getattr(build(field, value), field)
    assert type(stored) is kind and stored == value


# One row per argument whose type is checked where it enters from outside:
# build(field, value), the field, values it accepts and values it rejects.
# Each rejected value must fail this rule when the object is built, not at
# the first scan.

_BIRTH_MIX = MaxMixture([0.5], [[0.0, 0.0]], [np.eye(2)])
TYPE_ROWS = {
    "SingleTargetParams.birth": (
        lambda f, v: replace(_PF, **{f: v}), "birth",
        (ObservationDrivenBirth(), ExplicitBirth(_BIRTH_MIX)), ("x", None, _BIRTH_MIX, ClutterModel()),
    ),
    "SingleTargetParams.clutter": (
        lambda f, v: replace(_PF, **{f: v}), "clutter", (ClutterModel(),), ("x", None, ObservationDrivenBirth()),
    ),
    **{
        f"ClutterModel.{name}": (
            lambda f, v: ClutterModel(**{f: v}), name, (None, lambda x: 1.0, math.exp), (5, "x", 0.5, [math.exp]),
        )
        for name in ("card", "spatial")
    },
    "MultiTargetParams.birth": (_model, "birth", (IntensityMixture(flat_weight=0.5),), ("x", None, _BIRTH_MIX)),
    "MultiTargetParams.clutter": (_model, "clutter", (IntensityMixture(flat_weight=0.5), MaxMixture()), ("x", None)),
    "ExtendedPossibility.on_s": (_pf_state, "on_s", (MaxMixture(), _MIX), ("x", None, _BIRTH_MIX.weights)),
}


@pytest.mark.parametrize("row", TYPE_ROWS.values(), ids=TYPE_ROWS.keys())
def test_type_boundary(row):
    build, field, accepted, rejected = row
    for value in accepted:
        build(field, value)
    for value in rejected:
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build(field, value)


def _mats(**kw):
    """The possibility filter's model matrices, with ``kw`` in place of some."""
    return LinearGaussianModel(**{"trans": _PF.trans, "trans_noise": _PF.trans_noise, "obs": _PF.obs,
                                  "obs_noise": _PF.obs_noise, **kw})


# One row per shape or structure check of an input: a call that breaks it
# and the start of the message it raises.
SHAPE_ROWS = {
    "MaxMixture.__call__ point": (lambda: _MIX([[0.0]]), "x must be a scalar or 1-d vector"),
    "MaxMixture.eval_many dim": (lambda: _MIX.eval_many(np.zeros((3, 2))), "points have dim 2"),
    "LinearGaussianModel.trans 3-d": (lambda: _mats(trans=np.ones((1, 2, 2))), "trans must be 2-d"),
    "LinearGaussianModel.trans_noise square": (
        lambda: _mats(trans_noise=np.ones((2, 3))), "trans_noise must be square"
    ),
    "LinearGaussianModel.trans_noise symmetric": (
        lambda: _mats(trans_noise=[[1.0, 0.5], [0.0, 1.0]]), "trans_noise must be symmetric"
    ),
    "LinearGaussianModel.obs_noise psd": (
        lambda: _mats(obs_noise=[[-1.0]]), "obs_noise must be positive semi-definite"
    ),
    "LinearGaussianModel.trans sizes": (
        lambda: _mats(trans_noise=np.eye(3)), "trans and trans_noise must be square with equal size"
    ),
    "LinearGaussianModel.obs sizes": (lambda: _mats(obs=[[1.0, 0.0, 0.0]]), "obs/obs_noise shapes inconsistent"),
    "GroundTruth.states": (lambda: GroundTruth(([1.0, 2.0, 3.0],)), "states must be length-2 vectors or None"),
    "BenchConfig.lambda_list empty": (lambda: BenchConfig(lambda_list=()), "lambda_list and threshold_sweep must"),
    "BenchConfig.threshold_sweep empty": (
        lambda: BenchConfig(threshold_sweep=()), "lambda_list and threshold_sweep must"
    ),
    "config_from_dict list": (lambda: config_from_dict([]), "configuration must be a JSON object"),
}


@pytest.mark.parametrize("row", SHAPE_ROWS.values(), ids=SHAPE_ROWS.keys())
def test_shape_boundary(row):
    build, prefix = row
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
        build()


def test_mixture_from_components_gives_back_its_arrays():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 2, 2))
    mix = MaxMixture(
        rng.uniform(0.01, 1.0, 5), rng.normal(size=(5, 2)), a @ np.swapaxes(a, 1, 2) + np.eye(2), 0.2
    )
    for again in (mixture(*mix.components, flat_weight=mix.flat_weight),
                  IntensityMixture(*zip(*mix.components), mix.flat_weight)):
        for x, y in ((again.weights, mix.weights), (again.means, mix.means), (again.covs, mix.covs)):
            assert x.shape == y.shape and np.array_equal(x, y)
        assert again.flat_weight == mix.flat_weight


def test_constructors_copy_the_callers_arrays():
    ws, ms, vs = stack3()
    mix = MaxMixture(ws, ms, vs)
    ipda = IpdaState(0.5, ws / ws.sum(), ms, vs)
    for arr in (ws, ms, vs):
        assert arr.flags.writeable
    for stored, given in ((mix.weights, ws), (mix.means, ms), (mix.covs, vs), (ipda.means, ms), (ipda.covs, vs)):
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given)
    ms[0, 0] = 99.0
    assert mix.means[0, 0] == 0.0 and ipda.means[0, 0] == 0.0


@pytest.mark.parametrize("cls", [SingleTargetParams, MultiTargetParams, IpdaParams])
def test_params_copy_the_callers_matrices(cls):
    mats = dict(trans=np.array([[1.0, 0.1], [0.0, 1.0]]), trans_noise=np.eye(2),
                obs=np.array([[1.0, 0.0]]), obs_noise=np.eye(1))
    params = cls(**mats)
    for name, given in mats.items():
        assert given.flags.writeable
        assert not getattr(params, name).flags.writeable
        given[0, 0] = 99.0
        assert getattr(params, name)[0, 0] != 99.0


# ---------------------------------------------------------------- prediction


def predicted(term, trans, noise, survival=1.0):
    """The filter's prediction of one term, with absence mass 0 and survival as the gain."""
    params = SingleTargetParams(trans=trans, trans_noise=noise, obs=np.eye(1, len(term[1])),
                                obs_noise=np.eye(1), survival=survival, disappearance=1.0)
    return predict(ExtendedPossibility(0.0, mixture(term)), params).on_s


def test_predict_scales_weight_and_propagates_moments():
    dt = 0.1
    F = np.array([[1.0, dt], [0.0, 1.0]])
    G = np.array([0.5 * dt**2, dt])
    Q = 1.5**2 * np.outer(G, G)
    out = predicted((1.0, [0.0, 1.0], np.eye(2)), F, Q)
    np.testing.assert_allclose(out.means, [[0.1, 1.0]], atol=1e-15)
    np.testing.assert_allclose(out.covs, [F @ np.eye(2) @ F.T + Q], atol=1e-15)
    assert out.weights.tolist() == [1.0]
    assert out.flat_weight == 0.0


def test_predict_gain_scales_weight():
    out = predicted(g1(0.8, 0.0, 1.0), np.eye(1), np.zeros((1, 1)), survival=0.5)
    assert out.weights[0] == pytest.approx(0.4, abs=1e-15)


def test_predict_rejects_gain_outside_unit_interval():
    for gain in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            predicted(g1(1.0, 0.0, 1.0), np.eye(1), np.zeros((1, 1)), gain)


def test_predict_accepts_singular_noise():
    # rank-1 process noise on a 2-d state must be accepted
    G = np.array([0.005, 0.1])
    Q = np.outer(G, G)
    out = predicted((1.0, [0.0, 0.0], np.eye(2)), np.eye(2), Q)
    np.testing.assert_allclose(out.covs[0], np.eye(2) + Q, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    m=st.floats(-3.0, 3.0),
    v=st.floats(0.5, 3.0),
    f=st.floats(-1.5, 1.5),
    q=st.floats(0.8, 3.0),
    gain=st.floats(0.1, 1.0),
    x=st.floats(-4.0, 4.0),
)
def test_predict_matches_lattice_sup(m, v, f, q, gain, x):
    # prediction is the sup over x' of gain * N(x; f x', q) * N(x'; m, v);
    # ranges keep curvature low enough for the 1e-3 lattice to resolve 1e-6
    pred = predicted(g1(1.0, m, v), np.array([[f]]), np.array([[q]]), gain)

    def integrand(xp):
        return gain * np.exp(-0.5 * (x - f * xp) ** 2 / q) * np.exp(
            -0.5 * (xp - m) ** 2 / v
        )

    brute = grid_sup_oracle(integrand, -20.0, 20.0, 1e-3)
    assert pred(np.array([x])) == pytest.approx(brute, abs=1e-6)


def test_predict_sup_property_closed_form():
    # frozen: sup_x N(3; x, 1) N(x; 0, 1) = N(3; 0, 2) = exp(-9/4)
    pred = predicted(g1(1.0, 0.0, 1.0), np.eye(1), np.eye(1))
    assert pred(np.array([3.0])) == pytest.approx(EXP_M9_4, rel=1e-14)


# -------------------------------------------------------------------- update


def obs_model(obs, obs_noise) -> LinearGaussianModel:
    """A model with observation matrix obs and noise obs_noise, all that batch_kalman_update reads."""
    obs = np.asarray(obs, dtype=float)
    d = obs.shape[1]
    return LinearGaussianModel(np.eye(d), np.zeros((d, d)), obs, np.asarray(obs_noise, dtype=float))


def updated(term, y, obs, obs_noise):
    """The posterior term (weight kept) and the likelihood of one term and one observation."""
    w, m, v = (np.asarray(a, dtype=float) for a in term)
    liks, m_post, v_post, _ = batch_kalman_update(m[None], v[None], np.asarray([y], dtype=float),
                                                  obs_model(obs, obs_noise))
    return (w, m_post[0, 0], v_post[0]), float(liks[0, 0])


def test_update_example_centered_observation():
    (w, mean, cov), lik = updated(g1(1.0, 0.0, 1.0), [0.0], np.eye(1), np.eye(1))
    assert lik == pytest.approx(1.0, abs=0)
    np.testing.assert_allclose(mean, [0.0], atol=0)
    np.testing.assert_allclose(cov, [[0.5]], atol=1e-15)
    assert w == 1.0


def test_update_example_offset_observation():
    # frozen: N(2; 0, S=2) = exp(-1)
    (_, mean, _), lik = updated(g1(1.0, 0.0, 1.0), [2.0], np.eye(1), np.eye(1))
    assert lik == pytest.approx(EXP_M1, rel=1e-15)
    np.testing.assert_allclose(mean, [1.0], atol=1e-15)


def test_update_pointwise_identity():
    # w N(x; m, V) N(y; H x, R) == lik * w N(x; m_post, V_post) pointwise
    rng = np.random.default_rng(7)
    H = np.array([[1.0, 0.0]])
    R = np.array([[0.25]])
    for _ in range(20):
        m = rng.normal(size=2)
        A = rng.normal(size=(2, 2))
        V = A @ A.T + 0.1 * np.eye(2)
        y = rng.normal(size=1)
        post, lik = updated((1.0, m, V), y, H, R)
        prior, post = mixture((1.0, m, V)), mixture(post)
        for _ in range(10):
            x = rng.normal(scale=2.0, size=2)
            lhs = prior(x) * np.exp(-0.5 * (y - H @ x).T @ np.linalg.solve(R, y - H @ x))
            rhs = lik * post(x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


def test_batch_kalman_update_matches_single():
    rng = np.random.default_rng(3)
    H = np.array([[1.0, 0.0]])
    R = np.array([[0.0625]])
    ms = rng.normal(size=(4, 2))
    vs = np.stack([np.diag([1.0 + i, 0.5]) for i in range(4)])
    ys = rng.normal(size=(3, 1))
    liks, m_post, v_post, s = batch_kalman_update(ms, vs, ys, obs_model(H, R))
    assert liks.shape == (4, 3)
    assert m_post.shape == (4, 3, 2)
    assert v_post.shape == (4, 2, 2)
    np.testing.assert_array_equal(s, vs[:, :1, :1] + R)  # S = H V H' + R for H = [1, 0]
    for k in range(4):
        for n in range(3):
            (_, mean, cov), lik = updated((1.0, ms[k], vs[k]), ys[n], H, R)
            assert liks[k, n] == pytest.approx(lik, rel=1e-12)
            np.testing.assert_allclose(m_post[k, n], mean, rtol=1e-12)
        np.testing.assert_allclose(v_post[k], cov, rtol=1e-12)


# H is read as indices when each of its rows is one 1 among 0s
# (LinearGaussianModel._selected): the Kalman update takes the index path for
# one such row, the observation-driven birth accepts any number of them.  Any
# other H takes the matrix products, the Cholesky check and the LAPACK inverse,
# and has no birth.


def _random_stack(rng, k, d):
    a = rng.normal(size=(k, d, d)) * rng.uniform(0.1, 3.0, (k, 1, 1))
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    return rng.normal(size=(k, d)) * 5.0, 0.5 * (vs + np.swapaxes(vs, 1, 2))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_selection_kalman_update_has_the_bits_of_the_matrix_path(d, monkeypatch):
    rng = np.random.default_rng(d)
    for i in range(d):
        model = obs_model(np.eye(1, d, i), [[rng.uniform(0.01, 2.0)]])
        assert model._selected == (i,)
        for k, n in ((1, 1), (7, 5), (40, 30)):
            ms, vs = _random_stack(rng, k, d)
            ys = rng.normal(size=(n, 1)) * 5.0
            fast = batch_kalman_update(ms, vs, ys, model)
            with monkeypatch.context() as m:
                m.setitem(model.__dict__, "_selected", None)
                general = batch_kalman_update(ms, vs, ys, model)
            for a, b in zip(fast, general):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "obs, index_path, birth",
    [([[1.0, 0.0]], True, True), ([[0.0, 1.0]], True, True), ([[1.0, 0.0], [0.0, 1.0]], False, True),
     ([[2.0, 0.0]], False, False), ([[1.0, 0.5]], False, False), ([[0.0, 0.0]], False, False)],
    ids=["select_0", "select_1", "p2", "scaled_row", "mixed_row", "zero_row"],
)
def test_other_observation_matrices_take_the_matrix_path(obs, index_path, birth, monkeypatch):
    model = obs_model(obs, np.eye(len(obs)))
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    ms, vs = _random_stack(np.random.default_rng(0), 3, 2)
    liks, _, _, s = batch_kalman_update(ms, vs, np.ones((2, len(obs))), model)
    assert inverted == ([] if index_path else [(3, len(obs), len(obs))])
    assert s.shape == (3, len(obs), len(obs)) and liks.shape == (3, 2)
    if birth:  # observed coordinates take R, here I; the others the velocity variance 2.0**2
        idx, cov = _birth_layout(model, 2.0)
        assert idx.tolist() == np.argmax(obs, axis=1).tolist()
        assert cov.tolist() == np.diag([1.0 if j in idx else 4.0 for j in range(2)]).tolist()
    else:
        with pytest.raises(ValueError, match="observation-driven birth needs a 0/1 selection"):
            _birth_layout(model, 2.0)


@pytest.mark.parametrize("s_value", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("selection", [True, False], ids=["index", "matrix"])
def test_bad_innovation_covariance_raises_on_both_paths(s_value, selection, monkeypatch):
    # S = V[0, 0] + R with R = 0.5; past half the float range the matrix
    # path's symmetrization overflows, and the index path rejects it too
    model = obs_model([[1.0, 0.0]], [[0.5]])
    if not selection:
        monkeypatch.setitem(model.__dict__, "_selected", None)
    vs = np.array([np.eye(2), np.eye(2)])
    vs[1, 0, 0] = s_value - 0.5
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="innovation covariance is not finite"):
        batch_kalman_update(np.zeros((2, 2)), vs, np.zeros((1, 1)), model)


def test_update_singular_innovation_raises():
    with pytest.raises(NumericalError):
        updated(g1(1.0, 0.0, 1e-3), [0.0], np.zeros((1, 1)), np.zeros((1, 1)))


def test_a_covariance_that_cannot_be_inverted_raises_numerical_error():
    # the Cholesky check accepts v, but LAPACK's inverse finds it singular;
    # its LinAlgError used to escape every call that inverts it
    v = np.array([[0.533372052494021, 0.4988850630278845], [0.4988850630278845, 0.466627947505979]])
    pair = ([1.0, 0.5], [[0.0, 0.0], [0.1, 0.0]], [v, np.eye(2)])
    for call in (
        lambda: MaxMixture([1.0], [[0.0, 0.0]], [v])([0.0, 0.0]),
        lambda: merge(MaxMixture(*pair), 3.22),
        lambda: dominance_reduce(MaxMixture(*pair)),
        lambda: extract_targets(IntensityMixture([0.95, 0.93], [[0.0, 0.0], [5.0, 0.0]], [v, np.eye(2)], 0.1)),
    ):
        with pytest.raises(NumericalError, match="singular"):
            call()


# ------------------------------------------------------------------- pruning


def test_prune_drops_below_threshold():
    mix = mixture(g1(1.0, 0.0, 1.0), g1(1e-5, 3.0, 1.0), flat_weight=0.0)
    out = prune(mix, 1e-4)
    assert len(out.components) == 1
    assert out.components[0].weight == 1.0


def test_prune_always_keeps_argmax():
    # even with a threshold above every weight, the best component survives
    mix = mixture(g1(0.01, 0.0, 1.0), g1(0.02, 1.0, 1.0), flat_weight=0.0)
    out = prune(mix, 0.5)
    assert len(out.components) == 1
    assert out.components[0].weight == 0.02


def test_prune_keeps_flat_term():
    mix = mixture(g1(1e-6, 0.0, 1.0), flat_weight=0.4)
    out = prune(mix, 1e-4)
    assert out.flat_weight == 0.4


@settings(max_examples=40)
@given(
    ws=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=6),
    tau=st.floats(1e-6, 0.5),
)
def test_prune_never_discards_above_threshold(ws, tau):
    comps = [g1(w, float(i), 1.0) for i, w in enumerate(ws)]
    out = prune(mixture(*comps), tau)
    kept = {c.weight for c in out.components}
    for w in ws:
        if w >= tau:
            assert w in kept
    assert max(ws) in kept


# ----------------------------------------------------------------- dominance


def test_dominated_component_removed():
    # 0.3 exp(-x^2/2) <= exp(-x^2/4) everywhere (lattice-verified)
    wide = g1(1.0, 0.0, 2.0)
    narrow = g1(0.3, 0.0, 1.0)
    out = dominance_reduce(mixture(wide, narrow))
    assert len(out.components) == 1
    assert out.components[0].cov[0, 0] == 2.0


def test_duplicate_components_collapse_to_one():
    a = g1(0.8, 1.0, 1.5)
    out = dominance_reduce(mixture(a, g1(0.8, 1.0, 1.5)))
    assert len(out.components) == 1


def test_non_dominated_pair_survives():
    out = dominance_reduce(mixture(g1(1.0, 0.0, 1.0), g1(1.0, 5.0, 1.0)))
    assert len(out.components) == 2


def test_flat_term_absorbs_weaker_components():
    # a component with weight below the flat term is pointwise redundant
    out = dominance_reduce(mixture(g1(0.2, 0.0, 1.0), flat_weight=0.3))
    assert len(out.components) == 0
    assert out.flat_weight == 0.3


def test_heavier_wider_component_dominates():
    out = dominance_reduce(
        mixture(g1(0.5, 0.0, 1.0), g1(0.6, 0.0, 3.0))
    )
    assert len(out.components) == 1
    assert out.components[0].cov[0, 0] == 3.0


def test_equal_weight_nested_pair_kept():
    # reduction is greedy from the heaviest down, so an equal-weight tie is
    # kept rather than resolved by covariance width; that is safe (the
    # contract is only that removals never change the function)
    out = dominance_reduce(
        mixture(g1(0.5, 0.0, 1.0), g1(0.5, 0.0, 3.0))
    )
    assert len(out.components) == 2


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
)
def test_dominance_reduce_preserves_function(seed, n):
    rng = np.random.default_rng(seed)
    comps = [
        g1(rng.uniform(0.05, 1.0), rng.uniform(-3, 3), rng.uniform(0.2, 3.0))
        for _ in range(n)
    ]
    mix = mixture(*comps, flat_weight=float(rng.uniform(0.0, 0.5)))
    out = dominance_reduce(mix)
    assert len(out.components) <= len(mix.components)
    xs = np.linspace(-8.0, 8.0, 401).reshape(-1, 1)
    np.testing.assert_allclose(out.eval_many(xs), mix.eval_many(xs), atol=1e-12)


# ------------------------------------------------------------------- merging


def test_merge_identical_means_keeps_covariance():
    # absorbed peak 0.9 at distance 0.1 is already covered: no inflation
    out = merge(mixture(g1(1.0, 0.0, 1.0), g1(0.9, 0.1, 1.0)), tau_m=3.22)
    assert len(out.components) == 1
    c = out.components[0]
    assert c.weight == 1.0
    np.testing.assert_allclose(c.mean, [0.0], atol=0)
    np.testing.assert_allclose(c.cov, [[1.0]], atol=0)


def test_merge_inflates_to_cover_absorbed_peak():
    # frozen: beta = 2 ln(1/0.7), gamma = 1/beta - 1, merged var 1.40183663;
    # the merged mixture equals 0.7 exactly at the absorbed mean
    out = merge(mixture(g1(1.0, 0.0, 1.0), g1(0.7, 1.0, 1.0)), tau_m=3.22)
    assert len(out.components) == 1
    c = out.components[0]
    np.testing.assert_allclose(c.cov, [[1.4018366260285644]], rtol=1e-12)
    assert out(np.array([1.0])) == pytest.approx(0.7, rel=1e-12)


def test_merge_declines_equal_weight_distant_pair():
    # equal weights make beta = 0: covering the other peak needs unbounded
    # inflation, so the pair stays separate even inside the gate
    out = merge(mixture(g1(1.0, 0.0, 1.0), g1(1.0, 2.0, 1.0)), tau_m=3.22)
    assert len(out.components) == 2


def test_merge_zero_threshold_is_identity_on_distinct_means():
    mix = mixture(g1(1.0, 0.0, 1.0), g1(0.5, 0.5, 1.0))
    out = merge(mix, tau_m=0.0)
    assert len(out.components) == 2


def test_merge_gate_uses_squared_threshold():
    # separation s = 4.0 in the dominant metric; gate passes iff tau_m^2 >= 4
    # (weight 0.3 keeps the coverage inflation within its doubling limit)
    mix = mixture(g1(1.0, 0.0, 1.0), g1(0.3, 2.0, 1.0))
    assert len(merge(mix, tau_m=1.9).components) == 2
    assert len(merge(mix, tau_m=2.1).components) == 1


def test_merge_report_bounds_dominate_lattice_error():
    mix = mixture(g1(1.0, 0.0, 1.0), g1(0.7, 1.0, 1.0), g1(0.4, -0.8, 0.6))
    out, bounds = merge_with_report(mix, tau_m=3.22)
    assert len(out.components) < len(mix.components)
    assert bounds  # at least one absorption happened
    xs = np.linspace(-10.0, 10.0, 4001).reshape(-1, 1)
    err = float(np.abs(out.eval_many(xs) - mix.eval_many(xs)).max())
    assert err <= max(bounds) + 1e-12


def test_merge_never_loses_sup():
    rng = np.random.default_rng(11)
    for _ in range(25):
        comps = [
            g1(rng.uniform(0.05, 1.0), rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            for _ in range(rng.integers(1, 6))
        ]
        mix = mixture(*comps)
        out = merge(mix, tau_m=3.22)
        assert out.sup() == pytest.approx(mix.sup(), abs=0)
        assert len(out.components) <= len(mix.components)


# ------------------------------------------- reduction against a dense reference
#
# The library finds candidate pairs in a coordinate-0 window and batches the
# dominance certificates and the merge solves.  The functions below are the
# plain loops it must reproduce bit for bit: every pair gated through one
# dense k x k quadratic, one eigvalsh per dominance candidate, one solve per
# absorption.


def _ref_dominates(w_big, m_big, p_big, w_small, m_small, p_small):
    if w_small > w_big:
        return False
    d = m_big.size
    a = p_small - p_big
    b = p_big @ m_big - p_small @ m_small
    c0 = math.log(w_big / w_small) + 0.5 * (m_small @ p_small @ m_small - m_big @ p_big @ m_big)
    mat = np.empty((d + 1, d + 1))
    mat[:d, :d] = 0.5 * a
    mat[:d, d] = 0.5 * b
    mat[d, :d] = 0.5 * b
    mat[d, d] = c0
    eigs = np.linalg.eigvalsh(mat)
    tol = 1e-14 * max(1.0, float(np.abs(mat).max()))
    return bool(eigs[0] >= -tol)


def _ref_dominance_reduce(mix):
    if not mix.weights.size:
        return mix
    survivors = np.flatnonzero(mix.weights > mix.flat_weight)
    ws, ms, vs = mix.weights[survivors], mix.means[survivors], mix.covs[survivors]
    ps = np.linalg.inv(vs)
    vals = ws[:, None] * _floored_exp(-0.5 * batch_quadratic(ms, vs, ms))
    w, ms, ps = ws.tolist(), list(ms), list(ps)
    kept = []
    for i in np.argsort(-ws, kind="stable").tolist():
        dominated = False
        for j in kept:
            if vals[j, i] < w[i] * (1.0 - 1e-9):
                continue
            if _ref_dominates(w[j], ms[j], ps[j], w[i], ms[i], ps[i]):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    if len(kept) == mix.weights.size:
        return mix
    return mix.take(survivors[sorted(kept)])


def _ordered_pairs(ws):
    # every (j, i) with j != i and w_j >= w_i, grouped by j
    return np.nonzero((ws[:, None] >= ws[None, :]) & ~np.eye(ws.size, dtype=bool))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4]),
    k=st.integers(2, 10),
    layout=st.sampled_from(["random", "identical", "offset", "equal_weights"]),
    offset=st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3]),
    origin=st.sampled_from([0.0, 1e3, 1e4, 1e5]),
)
def test_dominance_certificates_match_per_pair_reference(seed, d, k, layout, offset, origin):
    # the 2x2-minor screen must never reject a pair that eigvalsh certifies;
    # the layouts put many pairs near the boundary of the certificate
    rng = np.random.default_rng(seed)
    ws = rng.uniform(0.05, 1.0, k)
    ms = rng.normal(size=(k, d)) * rng.uniform(0.2, 4.0)
    a = rng.normal(size=(k, d, d)) * rng.uniform(0.2, 2.0)
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    if layout == "identical":  # whole repeated terms
        src = rng.integers(0, k, size=k)
        ws, ms, vs = ws[src], ms[src], vs[src]
    elif layout in ("offset", "equal_weights"):
        # means at most `offset` from one point, half of them on it
        steps = rng.normal(size=(k, d))
        steps *= offset * rng.uniform(0.0, 1.0, (k, 1)) / np.linalg.norm(steps, axis=1, keepdims=True)
        ms = ms[0] + steps * (rng.uniform(size=(k, 1)) < 0.5)
        if layout == "offset":  # equal covariances
            vs = np.repeat(vs[:1], k, axis=0)
        else:  # equal weights, nested covariances
            ws = np.full(k, ws[0])
            vs = vs[0] * rng.choice([1.0, 1.0 + offset, 2.0], size=(k, 1, 1))
    direction = rng.normal(size=d)
    ms = ms + origin * direction / np.linalg.norm(direction)
    ps = np.linalg.inv(vs)
    js, iis = _ordered_pairs(ws)
    certified = _dominance_certificates(ws, ms, ps, js, iis)
    ref = [_ref_dominates(ws[j], ms[j], ps[j], ws[i], ms[i], ps[i]) for j, i in zip(js, iis)]
    assert certified.tolist() == ref


def test_eigvalsh_decides_the_pairs_the_screen_cannot(monkeypatch):
    # pair (0, 1): the certificate matrix is [[1, .9, .9], [.9, 1, -.9],
    # [.9, -.9, 1]] up to rounding; each 2x2 principal minor is PSD (smallest
    # eigenvalue 0.1) but the matrix is not (-0.8), so only eigvalsh can
    # reject it.  (0, 2): a term and its copy, certified.  (0, 3): far apart,
    # ruled out by the screen alone.
    ws = np.array([1.0, math.exp(-4.24), 1.0, 0.5])
    ms = np.array([[1.8, -1.8], [0.0, 0.0], [1.8, -1.8], [10.0, 10.0]])
    ps = np.array([np.eye(2), [[3.0, 1.8], [1.8, 3.0]], np.eye(2), np.eye(2)])
    js, iis = np.array([0, 0, 0]), np.array([1, 2, 3])
    rows = []

    def eigvalsh(a, *args, **kwargs):
        rows.append(a.shape[0])
        return np.linalg.eigh(a, *args, **kwargs)[0]

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert _dominance_certificates(ws, ms, ps, js, iis).tolist() == [False, True, False]
    assert rows == [2]
    monkeypatch.undo()
    assert [_ref_dominates(ws[0], ms[0], ps[0], ws[i], ms[i], ps[i]) for i in iis] == [False, True, False]


def test_screen_leaves_overflowing_pairs_to_eigvalsh():
    # a variance of 1e-160 puts 1e160 on the diagonal of the certificate
    # matrix [[1e160, 0], [0, 0]]: its 2x2 closed form overflows to -inf,
    # but the matrix is PSD and the broad term dominates the narrow one
    ws, ms, ps = np.ones(2), np.zeros((2, 1)), np.array([[[1.0]], [[1.0 + 2e160]]])
    js, iis = np.array([0]), np.array([1])
    assert _dominance_certificates(ws, ms, ps, js, iis).tolist() == [True]
    assert _ref_dominates(ws[0], ms[0], ps[0], ws[1], ms[1], ps[1])


def test_certificate_of_a_subnormal_weight_takes_the_log_of_each_weight():
    # w_j / w_i overflows for w_i = 1.2e-309: log(w_j) - log(w_i) stands in
    # for log(w_j / w_i) there, with no overflow warning, and a term is then
    # certified under its own copy of weight 0.5.  The pair (0, 2) has a
    # finite ratio and agrees with the per-pair reference
    ws, ms = np.array([0.5, 1.2e-309, 0.25]), np.array([[0.0], [0.0], [0.5]])
    ps = np.ones((3, 1, 1))
    js, iis = np.array([0, 0, 2]), np.array([1, 2, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _dominance_certificates(ws, ms, ps, js, iis).tolist() == [True, False, False]
    assert not _ref_dominates(ws[0], ms[0], ps[0], ws[2], ms[2], ps[2])


def _ref_absorb(w_i, m_i, v_cur, w_j, m_j):
    delta = m_j - m_i
    s = float(delta @ np.linalg.solve(v_cur, delta))
    if s <= 0.0:
        return v_cur
    beta = 2.0 * math.log(w_i / w_j) if w_j < w_i else 0.0
    if s > 2.0 * beta:
        return None
    gamma = max(0.0, 1.0 / beta - 1.0 / s)
    if gamma == 0.0:
        return v_cur
    v_new = v_cur + gamma * np.outer(delta, delta)
    return 0.5 * (v_new + v_new.T)


def _ref_deficit_bound(w_i, m_i, v_new, w_j, m_j, v_j):
    # one absorbed term at a time, on a grid built per call
    dm = m_j - m_i
    delta = math.sqrt(max(float(dm @ np.linalg.solve(v_new, dm)), 0.0))
    kappa = max(float(np.linalg.eigvals(np.linalg.solve(v_new, v_j)).real.max()), 0.0)
    sk = math.sqrt(kappa)
    u = np.linspace(0.0, 42.0, 21001)
    envelope = w_j * _floored_exp(-0.5 * u**2) - w_i * _floored_exp(-0.5 * (sk * u + delta) ** 2)
    du = u[1] - u[0]
    slack = 1.5 * max(w_j, w_i) * du
    return float(max(0.0, envelope.max()) + slack)


def _ref_merge_with_report(mix, tau_m):
    if mix.weights.size <= 1:
        return mix, []
    in_gate = (batch_quadratic(mix.means, mix.covs, mix.means) <= tau_m * tau_m).tolist()
    ws, ms, vs = mix.weights.tolist(), list(mix.means), list(mix.covs)
    bounds, heads, covs = [], [], []
    remaining = np.argsort(-mix.weights, kind="stable").tolist()
    while remaining:
        h = remaining.pop(0)
        v_cur = vs[h]
        cluster = [j for j in remaining if in_gate[h][j]]
        rest = [j for j in remaining if not in_gate[h][j]]
        absorbed = []
        for j in cluster:
            v_next = _ref_absorb(ws[h], ms[h], v_cur, ws[j], ms[j])
            if v_next is None:
                rest.append(j)
            else:
                v_cur = v_next
                absorbed.append(j)
        if absorbed:
            over = _overshoot_bound(ws[h], vs[h], v_cur)
            deficit = max(_ref_deficit_bound(ws[h], ms[h], v_cur, ws[j], ms[j], vs[j]) for j in absorbed)
            bounds.append(max(over, deficit))
        heads.append(h)
        covs.append(v_cur)
        remaining = sorted(rest, key=lambda j: -ws[j]) if absorbed else rest
    order = np.argsort(-mix.weights[heads], kind="stable")
    idx = np.asarray(heads)[order]
    merged = MaxMixture(
        mix.weights[idx], mix.means[idx], np.stack(covs)[order], mix.flat_weight
    )
    return merged, bounds


def _assert_same_bits(out, ref):
    assert out.flat_weight == ref.flat_weight
    for a, b in ((out.weights, ref.weights), (out.means, ref.means), (out.covs, ref.covs)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def g2(w, m, v):
    """A 2-d term (weight, mean, cov) with a diagonal cov."""
    return w, m, np.diag(v)


# each case of dominance_reduce and the last stage it runs: "" when at most one
# term is above the flat term, "windows" when no window pair has the heavier
# term first, "inv" when no pair passes the test at the lighter mean,
# "certificates" when no pair is certified, "greedy" when one is
DOMINANCE_EXITS = {
    "empty": ((), 0.0, ""),
    "one term": ((g1(0.5, 0.0, 1.0),), 0.0, ""),
    "one above the flat term": ((g1(0.2, 0.0, 1.0), g1(0.5, 0.1, 1.0), g1(0.3, 0.0, 2.0)), 0.3, ""),
    "all at or below the flat term": ((g1(0.5, 0.0, 1.0), g1(0.2, 0.0, 1.0)), 0.5, ""),
    "no window pair": ((g1(0.9, 0.0, 1.0), g1(0.8, 100.0, 1.0), g1(0.7, -50.0, 4.0)), 0.0, "windows"),
    # the light broad term's window holds the heavy narrow one, not the reverse
    "window pairs the wrong way round": ((g1(0.9, 0.0, 1e-4), g1(0.5, 1.0, 1e12)), 0.0, "windows"),
    "window pairs, none near": ((g2(0.9, [0.0, 0.0], [1.0, 1.0]), g2(0.8, [0.0, 9.0], [1.0, 1.0])), 0.0, "inv"),
    # the lighter broad term reaches past the heavier narrow one's tails
    "near pairs, none certified": ((g1(0.9, 0.0, 1.0), g1(0.85, 0.0, 4.0), g1(0.2, 30.0, 1.0)), 0.1, "certificates"),
    "a certified pair": ((g1(0.9, 0.0, 4.0), g1(0.85, 0.0, 1.0), g1(0.2, 30.0, 1.0)), 0.1, "greedy"),
    "a certified pair at the flat term": ((g1(0.9, 0.0, 4.0), g1(0.85, 0.0, 1.0), g1(0.1, 30.0, 1.0)), 0.1, "greedy"),
    # lightest first: 0.9 -> 0.8 and 0.8 -> 0.7 are certified, within the
    # tolerance, but not 0.9 -> 0.7.  The 0.8 term is claimed by the 0.9 term
    # before its own pairs are visited, so it claims nothing and 0.7 stays
    "a chain the certificates do not close": (
        (g1(0.7, 0.0, 1.0 + 2.8e-14), g1(0.8, 0.0, 1.0 + 1.4e-14), g1(0.9, 0.0, 1.0)), 0.0, "greedy"
    ),
}
STAGES = ("windows", "inv", "certificates", "greedy")


@pytest.mark.parametrize("case", sorted(DOMINANCE_EXITS))
def test_dominance_reduce_exits_match_dense_reference(monkeypatch, case):
    terms, flat, last = DOMINANCE_EXITS[case]
    mix = mixture(*terms, flat_weight=flat) if terms else MaxMixture()
    ran = []

    def spy(stage, fn):
        def wrapped(*args, **kwargs):
            ran.append(stage)
            return fn(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(mixtures, "_window_pairs", spy("windows", mixtures._window_pairs))
        m.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
        m.setattr(mixtures, "_dominance_certificates", spy("certificates", mixtures._dominance_certificates))
        m.setattr(mixtures, "_greedy_clusters", spy("greedy", mixtures._greedy_clusters))
        out = dominance_reduce(mix)
    assert ran == list(STAGES[: STAGES.index(last) + 1] if last else ())
    _assert_same_bits(out, _ref_dominance_reduce(mix))
    if out.weights.size == mix.weights.size:
        assert out is mix
    if case == "a chain the certificates do not close":
        assert out.weights.tolist() == [0.7, 0.9]


def test_dominance_on_an_ill_conditioned_pair_warns_nothing():
    # covariances of condition 1e16 and 1.7e13 (random d = 2 six-term
    # mixtures with eigenvalue ratios 1e-17 to 1e-10 gave 4 such mixtures in
    # 2,991): the cheap test's quadratic rounds below 0, and its exp
    # overflowed with a RuntimeWarning
    mix = MaxMixture(
        [0.6772754449245011, 0.27436662191616157],
        [[1.1865844578664617, 1.306474751914063], [1.4730107231180027, 0.45091613522799834]],
        [[[0.23610737841724555, 0.42468892647934814], [0.42468892647934814, 0.7638926215827544]],
         [[0.9120639107692322, -0.283201930504651], [-0.283201930504651, 0.0879360892308286]]],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dominance_reduce(mix)
        except NumericalError:
            pass


def test_deficit_bound_matches_per_term_reference():
    # the absorbed terms of one head at once.  Term 1 sits on the head's mean
    # and is lighter and narrower than the merged term, and the solo case is
    # the head itself: both envelopes are never positive, so they take the
    # whole grid
    rng = np.random.default_rng(5)
    for d, m in product([1, 2, 4], [1, 3, 8]):
        a = rng.normal(size=(m + 1, d, d))
        vs = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d)
        ms = rng.normal(size=(m + 1, d)) * rng.uniform(0.0, 2.0)
        ws = rng.uniform(0.1, 1.0, m + 1)
        ws[0], ms[1], vs[1] = 1.0, ms[0], vs[0]
        v_new = vs[0] * 1.5
        ref = max(_ref_deficit_bound(ws[0], ms[0], v_new, ws[j], ms[j], vs[j]) for j in range(1, m + 1))
        assert mixtures._deficit_bound(ws[0], ms[0], v_new, ws[1:], ms[1:], vs[1:]) == ref
        solo = _ref_deficit_bound(1.0, ms[0], vs[0], 1.0, ms[0], vs[0])
        assert mixtures._deficit_bound(1.0, ms[0], vs[0], np.ones(1), ms[:1], vs[:1]) == solo


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 4]),
    k=st.integers(1, 30),
    layout=st.sampled_from(["spread", "duplicated", "shared_x0"]),
    flat=st.sampled_from([0.0, 0.25, 0.55]),
    tau_m=st.sampled_from([0.0, 1.0, 3.22]),
)
def test_reduction_matches_dense_reference(seed, d, k, layout, flat, tau_m):
    rng = np.random.default_rng(seed)
    ws = np.maximum(np.round(rng.uniform(0.0, 1.0, k), 1), 0.1)  # ties
    ms = rng.normal(size=(k, d)) * rng.uniform(0.2, 4.0)
    a = rng.normal(size=(k, d, d)) * rng.uniform(0.2, 2.0)
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    vs = 0.5 * (vs + np.swapaxes(vs, 1, 2))
    if layout == "duplicated":  # repeated means, some of them whole repeated terms
        src, dst = rng.integers(0, k, size=(2, k // 2))
        ms[dst] = ms[src]
        whole = dst[: k // 4]
        ws[whole], vs[whole] = ws[src[: k // 4]], vs[src[: k // 4]]
    elif layout == "shared_x0":  # every pair falls in the window
        ms[:, 0] = ms[0, 0]
    mix = MaxMixture(ws, ms, vs, flat)

    reduced = dominance_reduce(mix)
    _assert_same_bits(reduced, _ref_dominance_reduce(mix))
    for src_mix in (mix, reduced):
        out, bounds = merge_with_report(src_mix, tau_m)
        ref, ref_bounds = _ref_merge_with_report(src_mix, tau_m)
        _assert_same_bits(out, ref)
        _assert_same_bits(merge(src_mix, tau_m), ref)
        assert bounds == ref_bounds


def _count_declines(monkeypatch):
    """Patch merge's cluster decision to record each call's head weight and declined count."""
    calls = []
    decide = mixtures._decide_cluster

    def counted(w_h, *args):
        absorbed, declined, *rest = decide(w_h, *args)
        calls.append((w_h, len(declined)))
        return absorbed, declined, *rest

    monkeypatch.setattr(mixtures, "_decide_cluster", counted)
    return calls


def test_merge_matches_dense_reference_on_a_clutter_run(monkeypatch):
    # the mixtures that merge meets at false-alarm rate 30: up to 227 terms
    # and about 65 declined terms per call, far past the random cases above
    cfg = default_config()
    params = cfg.proposed_params()
    _, obs = make_run(cfg.scenario, 30.0, cfg.base_seed, 2, 0)
    calls = _count_declines(monkeypatch)
    state, sizes = ExtendedPossibility.absent(), []
    for scan in obs.steps:
        post = update(predict(state, params), params, scan)
        reduced = dominance_reduce(prune(post.on_s, params.prune_threshold))
        out, bounds = merge_with_report(reduced, params.merge_threshold)
        ref, ref_bounds = _ref_merge_with_report(reduced, params.merge_threshold)
        _assert_same_bits(out, ref)
        _assert_same_bits(merge(reduced, params.merge_threshold), ref)
        assert bounds == ref_bounds
        sizes.append(reduced.weights.size)
        state = replace(post, on_s=out)
    assert max(sizes) >= 200
    assert sum(n for _, n in calls) >= 20 * len(obs.steps)


def test_merge_requeues_a_declined_term_until_an_absorption(monkeypatch):
    # A (w 1) declines B (0.9), which goes behind the lighter, ungated C, E,
    # D and F.  C then absorbs D, which re-sorts the queue and puts B ahead
    # of E again: B absorbs F with no inflation, and E keeps its variance.
    # Had B stayed behind E, E would have absorbed F and widened to cover it.
    weights = {"A": 1.0, "B": 0.9, "C": 0.5, "E": 0.3, "D": 0.1, "F": 0.02}
    terms = {"A": (0.0, 1.0), "B": (2.5, 1.0), "C": (100.0, 1.0), "E": (6.5, 0.5),
             "D": (100.5, 1.0), "F": (4.5, 1.0)}
    mix = mixture(*(g1(weights[n], *terms[n]) for n in weights))
    calls = _count_declines(monkeypatch)
    out, _ = merge_with_report(mix, 3.22)
    # the heads that met a cluster, in the order they were taken from the queue
    assert calls == [(1.0, 1), (0.5, 0), (0.9, 0)]
    assert out.weights.tolist() == [1.0, 0.9, 0.5, 0.3]
    assert out.covs[:, 0, 0].tolist() == [1.0, 1.0, 1.0, 0.5]
    _assert_same_bits(out, _ref_merge_with_report(mix, 3.22)[0])


# merge decides most members from the gate quadratic, or its Sherman-Morrison
# update after an inflation, and solves only the inflations, after its loop.
# The cases below sit where that screen must leave a cluster to the exact
# path, or where its replay must refute it; the recorded filter runs reach
# none of them.  Each is compared bit for bit, bounds included, with the
# dense reference.


def _spy(monkeypatch, name):
    """Record the arguments and the result of each call of the mixtures function ``name``."""
    calls = []
    fn = getattr(mixtures, name)

    def spied(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(mixtures, name, spied)
    return calls


def _assert_merge_matches_reference(mix, tau_m=3.22):
    out, bounds = merge_with_report(mix, tau_m)
    ref, ref_bounds = _ref_merge_with_report(mix, tau_m)
    _assert_same_bits(out, ref)
    _assert_same_bits(merge(mix, tau_m), ref)
    assert bounds == ref_bounds


def _offset(v, s, direction):
    """The offset along direction whose separation d' V^-1 d is s, to rounding."""
    u = np.asarray(direction, dtype=float)
    return u * math.sqrt(s / float(u @ np.linalg.solve(v, u)))


_V = np.array([[2.0, 0.3], [0.3, 0.5]])


@pytest.mark.parametrize("edge", [1.0, 2.0], ids=["beta", "2beta"])
@pytest.mark.parametrize("rel", [-1e-12, 1e-12])
def test_merge_leaves_members_at_a_decision_edge_to_the_exact_path(monkeypatch, edge, rel):
    # s = beta (1 +- 1e-12) and 2 beta (1 +- 1e-12): absorb as is or inflate,
    # inflate or decline; far inside the screen's margin
    w_j = 0.6
    beta = 2.0 * math.log(1.0 / w_j)
    m_j = _offset(_V, edge * beta * (1.0 + rel), [1.0, 0.4])
    exact = _spy(monkeypatch, "_absorb_cluster")
    _assert_merge_matches_reference(MaxMixture([1.0, w_j], [[0.0, 0.0], m_j], [_V, 0.8 * np.eye(2)]))
    assert exact


def _straddlers(count):
    """Mixtures of a head and one member whose gate quadratic lies above the
    cover limit 2 beta while its solved separation does not: the screen
    alone would decline a member that the exact path inflates."""
    rng = np.random.default_rng(5)
    found = []
    for _ in range(5000):
        a = rng.normal(size=(2, 2))
        v = a @ a.T + 0.1 * np.eye(2)
        v = 0.5 * (v + v.T)
        w_j = rng.uniform(0.3, 0.9)
        cover = 2.0 * (2.0 * math.log(1.0 / w_j))
        covs = np.stack([v, 0.5 * np.eye(2)])
        base = _offset(v, cover, rng.normal(size=2))
        for k in range(-6, 7):
            m_j = base * (1.0 + k * 2.0**-52)
            q = mixtures._quadratic(m_j[None], np.linalg.inv(covs)[:1])[0]
            s = float(m_j @ np.linalg.solve(v, m_j))
            if s <= cover < q:
                found.append(MaxMixture([1.0, w_j], [[0.0, 0.0], m_j], covs))
                break
        if len(found) == count:
            return found
    raise AssertionError(f"found {len(found)} of {count} straddling members")


def test_merge_leaves_a_member_whose_quadratic_and_solve_straddle_the_cover_limit_to_the_exact_path(monkeypatch):
    exact = _spy(monkeypatch, "_absorb_cluster")
    for mix in _straddlers(3):
        _assert_merge_matches_reference(mix)
        out = merge(mix, 3.22)
        assert out.weights.size == 1  # absorbed, with an inflation
    assert exact


@pytest.mark.parametrize("w_j", [1.0, 0.7], ids=["equal_weights", "lighter"])
@pytest.mark.parametrize("offset", [0.0, 1e-160, 0.5])
def test_merge_matches_reference_at_zero_and_tiny_separations(w_j, offset):
    # equal weights make beta = 0, where only s = 0 is absorbed; a separation
    # of 1e-160 squares to a subnormal or to 0
    mix = MaxMixture([1.0, w_j, w_j], [[0.0, 0.0], [offset, 0.0], [0.0, offset]], [_V, _V, 0.3 * np.eye(2)])
    _assert_merge_matches_reference(mix)


def _ill_conditioned(kappa, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    v = rot @ np.diag([1.0, 1.0 / kappa]) @ rot.T
    return 0.5 * (v + v.T), rot


def test_merge_leaves_an_ill_conditioned_head_to_the_exact_path(monkeypatch):
    # condition number 1e10; members at 0.5, 1.5 and 3 beta along both axes
    v, rot = _ill_conditioned(1e10, 0.3)
    weights, means = [1.0], [[0.0, 0.0]]
    for n, (factor, axis) in enumerate((f, a) for a in (0, 1) for f in (0.5, 1.5, 3.0)):
        w_j = 0.6 - 0.05 * n
        weights.append(w_j)
        means.append(_offset(v, factor * 2.0 * math.log(1.0 / w_j), rot[:, axis]))
    exact = _spy(monkeypatch, "_absorb_cluster")
    _assert_merge_matches_reference(MaxMixture(weights, means, [v] + [0.5 * np.eye(2)] * 6))
    assert [args[0] for args, _ in exact].count(1.0) == 2  # the head's cluster, in both calls


def test_merge_conditioning_guard_covers_a_quadratic_off_by_more_than_the_margin(monkeypatch):
    # condition number 1e12: a member at 2 beta (1 - 1e-5) along the long
    # axis whose gate quadratic lies 1e-5 or more above 2 beta, so the screen
    # alone would decline the member that the exact path absorbs with an
    # inflation
    w_j = 0.6
    cover = 2.0 * (2.0 * math.log(1.0 / w_j))
    for n in range(200):
        v, rot = _ill_conditioned(1e12, 0.1 + 0.01 * n)
        covs = np.stack([v, 0.5 * np.eye(2)])
        m_j = _offset(v, cover * (1.0 - 1e-5), rot[:, 0])
        if mixtures._quadratic(m_j[None], np.linalg.inv(covs)[:1])[0] > cover * (1.0 + 1e-5):
            break
    else:
        raise AssertionError("no such head among the angles tried")
    mix = MaxMixture([1.0, w_j], [[0.0, 0.0], m_j], covs)
    exact = _spy(monkeypatch, "_absorb_cluster")
    _assert_merge_matches_reference(mix)
    assert len(exact) == 2 and merge(mix, 3.22).weights.size == 1


def test_close_calls_and_ill_conditioned_heads_reach_the_plain_exact_rule(monkeypatch):
    # the mixtures of the close-call and ill-conditioned tests above: each
    # reaches _absorb_cluster, each of its calls decides as the reference
    # solves member by member, and some call solves a member against a
    # covariance that an earlier member of its cluster inflated
    w_j = 0.6
    beta = 2.0 * math.log(1.0 / w_j)
    mixes = [MaxMixture([1.0, w_j], [[0.0, 0.0], _offset(_V, edge * beta * (1.0 + rel), [1.0, 0.4])],
                        [_V, 0.8 * np.eye(2)]) for edge in (1.0, 2.0) for rel in (-1e-12, 1e-12)]
    mixes += _straddlers(3)
    mixes += [MaxMixture([1.0, 1.0, 1.0], [[0.0, 0.0], [x, 0.0], [0.0, x]], [_V, _V, 0.3 * np.eye(2)])
              for x in (0.0, 1e-160)]
    v, rot = _ill_conditioned(1e10, 0.3)
    weights, means = [1.0], [[0.0, 0.0]]
    for n, (factor, axis) in enumerate((f, a) for a in (0, 1) for f in (0.5, 1.5, 3.0)):
        weights.append(0.6 - 0.05 * n)
        means.append(_offset(v, factor * 2.0 * math.log(1.0 / weights[-1]), rot[:, axis]))
    mixes.append(MaxMixture(weights, means, [v] + [0.5 * np.eye(2)] * 6))
    inflated_before_a_member, reached = False, []
    for mix in mixes:
        exact = _spy(monkeypatch, "_absorb_cluster")
        merge(mix, 3.22)
        monkeypatch.undo()
        reached.append(bool(exact))
        for (w_h, m_h, v_h, ws, ms, cluster), (v_out, absorbed, declined) in exact:
            v_cur, ref_absorbed, ref_declined = v_h, [], []
            for n, j in enumerate(cluster):
                v_next = _ref_absorb(w_h, m_h, v_cur, ws[j], ms[j])
                (ref_declined if v_next is None else ref_absorbed).append(j)
                if v_next is not None and v_next is not v_cur:
                    inflated_before_a_member |= n + 1 < len(cluster)
                    v_cur = v_next
            assert (absorbed, declined) == (ref_absorbed, ref_declined)
            assert v_out.tobytes() == v_cur.tobytes()
    assert inflated_before_a_member
    assert all(reached)


def test_merge_replays_a_long_inflation_chain(monkeypatch):
    # eight members around the head, each at 1.5 beta from the head's running
    # covariance, so each inflates it: one chain of eight rounds
    v_run, weights, means = np.eye(2), [1.0], [[0.0, 0.0]]
    for n in range(8):
        w_j = 0.6 - 0.02 * n
        beta = 2.0 * math.log(1.0 / w_j)
        u = np.array([math.cos(0.4 * n), math.sin(0.4 * n)])
        d = _offset(v_run, 1.5 * beta, u)
        v_run = v_run + (1.0 / beta - 1.0 / (1.5 * beta)) * np.outer(d, d)
        weights.append(w_j)
        means.append(d)
    replays = _spy(monkeypatch, "_replay_inflations")
    exact = _spy(monkeypatch, "_absorb_cluster")
    mix = MaxMixture(weights, means, [np.eye(2)] * 9)
    _assert_merge_matches_reference(mix)
    assert [len(args[2][0][2]) for args, _ in replays] == [8, 8]  # one chain of 8, in both calls
    assert not exact
    assert merge(mix, 3.22).weights.size == 1


def test_merge_reruns_on_the_exact_path_when_a_replay_refutes_its_screen(monkeypatch):
    # gate quadratics scaled up by 1e-3 screen a member at s = beta (1 - 1e-4)
    # as an inflation; its replayed s calls for none, so the call reruns exactly
    w_j = 0.6
    mix = MaxMixture([1.0, w_j], [[0.0, 0.0], _offset(_V, 2.0 * math.log(1.0 / w_j) * (1.0 - 1e-4), [1.0, -1.0])],
                     [_V, _V])
    gate_rows = mixtures._gate_rows

    def scaled(*args):
        start, nbrs, quads = gate_rows(*args)
        return start, nbrs, quads * (1.0 + 1e-3)

    monkeypatch.setattr(mixtures, "_gate_rows", scaled)
    replays = _spy(monkeypatch, "_replay_inflations")
    exact = _spy(monkeypatch, "_absorb_cluster")
    _assert_merge_matches_reference(mix)
    assert [covs for _, covs in replays] == [None, None] and len(exact) == 2
    assert merge(mix, 3.22).covs.tobytes() == _V.tobytes()  # absorbed as is


def _ref_extract_targets(fm, tau_x, merge_radius):
    # the dense gate that extract_targets read before its windowed gate, on
    # the whole mixture reduced by the dense dominance loop
    reduced = _ref_dominance_reduce(fm)
    ws = reduced.weights
    cands = np.flatnonzero((ws > tau_x) & (ws > fm.floor))
    cands = cands[np.lexsort((np.trace(reduced.covs[cands], axis1=1, axis2=2), -ws[cands]))]
    ms, vs = reduced.means[cands], reduced.covs[cands]
    in_gate = batch_quadratic(ms, vs, ms) <= merge_radius * merge_radius
    accepted = []
    for c in range(cands.size):
        if not in_gate[accepted, c].any():
            accepted.append(c)
    return [ms[a] for a in accepted]


def _dense_reference_intensity(rng, d, k, layout):
    ws = np.maximum(np.round(rng.uniform(0.0, 1.0, k), 1), 0.1)  # ties
    ms = rng.normal(size=(k, d)) * rng.uniform(0.2, 4.0)
    a = rng.normal(size=(k, d, d)) * rng.uniform(0.2, 2.0)
    vs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    vs = 0.5 * (vs + np.swapaxes(vs, 1, 2))
    if layout == "duplicated" and k:
        src, dst = rng.integers(0, k, size=(2, k // 2))
        ms[dst] = ms[src]
    elif layout == "shared_x0" and k:
        ms[:, 0] = ms[0, 0]
    return IntensityMixture._trusted(ws, ms if k else np.empty((0, 0)), vs if k else np.empty((0, 0, 0)), 0.05)


LAYOUTS = st.sampled_from(["spread", "duplicated", "shared_x0"])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 4]),
    k=st.integers(0, 40),
    layout=LAYOUTS,
    tau_x=st.sampled_from([0.0, 0.5, 0.9]),
    merge_radius=st.sampled_from([0.0, 1.0, 3.22, -3.22]),
)
def test_extract_targets_matches_dense_reference(seed, d, k, layout, tau_x, merge_radius):
    # extract_targets takes a dominance-reduced intensity; the reference
    # reduces the raw one with the dense loop
    fm = _dense_reference_intensity(np.random.default_rng(seed), d, k, layout)
    out = extract_targets(dominance_reduce(fm), tau_x, merge_radius)
    ref = _ref_extract_targets(fm, tau_x, merge_radius)
    assert len(out) == len(ref)
    for x, y in zip(out, ref):
        assert x.tobytes() == y.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 4]), k=st.integers(2, 60), layout=LAYOUTS)
def test_dominance_reduce_keeps_order_keeping_subsets_of_its_output(seed, d, k, layout):
    # extract_targets' contract: a subset of a reduced mixture that keeps the
    # terms' relative order is reduced too.  The subsets are those of sorted
    # indices (extract_targets' candidates) and the cap of update_intensity,
    # a stable sort by weight, and subsets of the cap's order
    rng = np.random.default_rng(seed)
    reduced = dominance_reduce(_dense_reference_intensity(rng, d, k, layout))
    n = reduced.weights.size
    capped = [reduced.take(np.argsort(-reduced.weights, kind="stable")[:cap]) for cap in (n, n // 2 + 1, 1)]
    subsets = [mix.take(np.flatnonzero(rng.uniform(size=n) < p)) for mix in (reduced, capped[0]) for p in (0.3, 0.7)]
    for sub in (reduced, *capped, *subsets):
        assert dominance_reduce(sub) is sub


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 4]),
    k=st.integers(0, 40),
    layout=LAYOUTS,
    survival=st.sampled_from([1.0, 0.9, 0.37]),
    floor=st.sampled_from([0.0, 0.05, 0.3]),
    birth_floor=st.sampled_from([0.0, 0.05, 0.3]),
    noise_scale=st.sampled_from([0.0, 0.01, 1.0, 100.0, 1e4]),
)
def test_propagate_gives_the_bytes_of_reducing_the_moved_terms(
    seed, d, k, layout, survival, floor, birth_floor, noise_scale
):
    # propagate_intensity's contract: on a reduced intensity it returns the
    # bytes of the full path, for any invertible F and PSD Q (possibly
    # singular or zero); an ill-conditioned F or a large Q takes that path
    rng = np.random.default_rng(seed)
    raw = _dense_reference_intensity(rng, d, k, layout)
    fm = dominance_reduce(IntensityMixture._trusted(raw.weights, raw.means, raw.covs, floor))
    b = rng.normal(size=(d, int(rng.integers(1, d + 1))))
    p = MultiTargetParams(
        trans=rng.normal(size=(d, d)) * rng.uniform(0.2, 2.0),
        trans_noise=noise_scale * (b @ b.T + (b @ b.T).T) / 2,
        obs=np.eye(d)[:1],
        obs_noise=np.eye(1),
        survival=survival,
        birth=IntensityMixture(flat_weight=birth_floor),
    )
    _assert_same_intensity(propagate_intensity(fm, p), _ref_propagate_intensity(fm, p))


def test_reduction_memory_is_subquadratic():
    # 3000 terms spread along coordinate 0: a dense k x k float64 matrix alone
    # would take 72 MB; the windows hold a few neighbours per term
    k = 3000
    rng = np.random.default_rng(5)
    ms = np.column_stack([np.arange(k, dtype=float), rng.normal(size=k)])
    mix = MaxMixture(
        np.round(rng.uniform(0.1, 1.0, k), 2), ms, np.tile(np.diag([0.5, 2.0]), (k, 1, 1))
    )
    tracemalloc.start()
    try:
        out = merge(dominance_reduce(mix), 3.22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < out.weights.size < k
    assert peak < k * k * 8 / 10


# A heavy broad head and a light narrow neighbour 1.5 apart: the separation
# is 0.75 sigma in the head's covariance (var 4) but 3 sigma in the
# neighbour's (var 0.25), so a gate of 1 joins them only when it is measured
# in the head's covariance, as GM-PHD merging does.


def _merge_term_count():
    return merge(mixture(g1(1.0, 0.0, 4.0), g1(0.3, 1.5, 0.25)), tau_m=1.0).weights.size


def _extract_target_count():
    fm = IntensityMixture([0.98, 0.95], [[0.0, 0.0], [1.5, 0.0]],
                          [np.diag([4.0, 1.0]), np.diag([0.25, 1.0])], 0.1)
    return len(extract_targets(fm, tau_x=0.9, merge_radius=1.0))


def _ipda_term_count():
    p = IpdaParams(trans=np.eye(2), trans_noise=np.eye(2), obs=np.array([[1.0, 0.0]]),
                   obs_noise=np.eye(1), merge_threshold=1.0)
    vs = np.array([np.diag([4.0, 1.0]), np.diag([0.25, 1.0])])
    ws, _, _, _ = _prune_and_merge(
        np.array([0.7, 0.3]), np.array([[0.0, 0.0], [1.5, 0.0]]), vs, np.linalg.inv(vs), 0.0, p,
    )
    return ws.size


@pytest.mark.parametrize(
    "term_count", [_merge_term_count, _extract_target_count, _ipda_term_count],
    ids=["merge", "extract_targets", "ipda_prune_and_merge"],
)
def test_gate_is_measured_in_the_heads_covariance(term_count):
    assert term_count() == 1


# --------------------------------------------------------------- grid oracle


def test_grid_oracle_two_gaussian_product():
    # frozen: closed form exp(-9/4); lattice agrees to float rounding
    def fn(x):
        return np.exp(-0.5 * (3.0 - x) ** 2) * np.exp(-0.5 * x**2)

    val = grid_sup_oracle(fn, -20.0, 20.0, 1e-3)
    assert val == pytest.approx(EXP_M9_4, abs=1e-12)


def test_grid_oracle_includes_endpoints():
    def fn(x):
        return np.where(x >= 19.9995, 1.0, 0.0)

    assert grid_sup_oracle(fn, -20.0, 20.0, 1e-3) == 1.0
