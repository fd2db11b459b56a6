"""The benchmark's three workloads: inputs, the untraced loop and the traced loop.

``study``
    ``run_benchmark`` + ``emit_results`` on the paired default study
    (lambda in {1, 5, 10}, 8 thresholds, both filters) with fewer runs and
    ``base_seed`` = workload seed.  Small mixtures; the threshold sweep and
    per-object overhead weigh most.
``clutter``
    A stream of ``make_run`` scans at lambda = 30, each through ``step`` +
    ``estimate`` and ``ipda_step`` + ``ipda_estimate`` at one threshold.
    Update, dominance reduction and merge do most of the work.
``multi``
    Three systems (offsets -4/0/+4 m, births at t = 2/5/8) plus lambda = 10
    clutter through ``propagate_intensity`` -> ``update_intensity`` ->
    ``extract_targets``.  Hundreds of components under a hard cap, and no
    prune, merge or IPDA: the bypass workload for those layers.

All three are closed loops in one thread.  Every input derives from the
workload seed, and the number of runs or scenes from the time budget, so
``(seed, seconds, trace)`` fixes the inputs.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from possitrack.bench import (
    BASELINE,
    PROPOSED,
    BenchConfig,
    BenchResult,
    default_config,
    emit_results,
    make_run,
    run_benchmark,
)
from possitrack.intensity import (
    IntensityMixture,
    MultiTargetParams,
    extract_targets,
    propagate_intensity,
    update_intensity,
)
from possitrack.ipda import IpdaParams, IpdaState, ipda_estimate, ipda_predict, ipda_step, ipda_update
from possitrack.mixtures import NumericalError, dominance_reduce, merge, prune
from possitrack.scenario import (
    GroundTruth,
    ScenarioConfig,
    error_at,
    generate_observations,
    observation_matrix,
    observation_noise,
    process_noise,
    simulate_truth,
    transition_matrix,
)
from possitrack.single_target import (
    ExtendedPossibility,
    SingleTargetParams,
    estimate,
    predict,
    step,
    update,
)

from timing import Tracer, calibrate, latency_stats, speed_factors

logger = logging.getLogger("perfbench")

# Work units (study runs per rate, clutter runs, multi scenes) per second of
# budget, so that one untraced run takes about --seconds on a 2-core x86-64
# box.  A traced run processes every scan twice (whole and staged), and the
# traced study also runs run_benchmark as the reference, so it gets a share.
UNITS_PER_S = {"study": 0.9, "clutter": 0.25, "multi": 0.5}
TRACED_SHARE = {"study": 1 / 3, "clutter": 1 / 2, "multi": 1 / 2}

CLUTTER_LAMBDA = 30.0
THRESHOLD = 0.3
MULTI_SYSTEMS = ((-4.0, 2), (0.0, 5), (4.0, 8))  # (position offset in m, birth step)
MULTI_LAMBDA = 10.0
# tolerance of the invariant checks: max(absence, sup) = 1 after a possibility
# update, IPDA weights plus diffuse weight = 1
INVARIANT_TOL = 1e-12

PF_STAGES = ("single_target.predict", "single_target.update",
             "mixtures.prune", "mixtures.dominance", "mixtures.merge")
IPDA_STAGES = ("ipda.predict", "ipda.update")
MT_STAGES = ("intensity.propagate", "intensity.update")


@dataclass(frozen=True)
class Scene:
    """One multi-system scene: true positions and observations per step."""

    positions: tuple
    steps: tuple


@dataclass
class Inputs:
    workload: str
    seed: int
    cfg: BenchConfig
    records: list = field(default_factory=list)  # clutter: (truth, obs); multi: Scene
    pf: SingleTargetParams | None = None
    ipda: IpdaParams | None = None
    mt: MultiTargetParams | None = None


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    correct: bool
    info: dict = field(default_factory=dict)


def n_units(workload: str, seconds: int, trace: bool) -> int:
    return max(1, round(seconds * UNITS_PER_S[workload] * (TRACED_SHARE[workload] if trace else 1.0)))


def multi_params(sc: ScenarioConfig) -> MultiTargetParams:
    return MultiTargetParams(
        trans=transition_matrix(sc),
        trans_noise=process_noise(sc),
        obs=observation_matrix(),
        obs_noise=observation_noise(sc),
    )


def multi_scene(sc: ScenarioConfig, seed: int, scene: int) -> Scene:
    """Three systems from simulate_truth/generate_observations plus Poisson clutter."""
    seqs = np.random.SeedSequence((seed, scene)).spawn(len(MULTI_SYSTEMS) + 1)
    rngs = [np.random.default_rng(s) for s in seqs]
    n_t = sc.t_end + 1
    positions: list = [[] for _ in range(n_t)]
    steps: list = [[] for _ in range(n_t)]
    for (offset, t_birth), rng in zip(MULTI_SYSTEMS, rngs):
        cfg = replace(sc, t_birth=t_birth, lambda_fp=0.0)
        truth = simulate_truth(cfg, rng)
        truth = GroundTruth(tuple(None if s is None else s + (offset, 0.0) for s in truth.states))
        obs = generate_observations(truth, cfg, rng)
        for t in range(n_t):
            if truth.present(t):
                positions[t].append(truth.position(t))
            steps[t].extend(obs.steps[t])
    clutter = rngs[-1]
    for t in range(n_t):
        steps[t].extend(clutter.uniform(sc.fp_lo, sc.fp_hi, clutter.poisson(MULTI_LAMBDA)).tolist())
    return Scene(tuple(map(tuple, positions)), tuple(map(tuple, steps)))


def prepare(workload: str, seed: int, seconds: int, trace: bool, tracer: Tracer | None = None) -> Inputs:
    """Build parameters and pre-generate every scan record (the timed set-up).

    With a tracer, each record's generation is recorded as a scenario.gen span.
    """
    n = n_units(workload, seconds, trace)
    cfg = replace(default_config(), n_runs=n, base_seed=seed)
    inp = Inputs(workload, seed, cfg)
    if workload == "study":
        # run_benchmark draws its own scans
        inp.pf = cfg.proposed_params()
        return inp
    gen = tracer.call if tracer is not None else (lambda _name, _tag, fn, *a: fn(*a))
    if workload == "clutter":
        inp.pf = cfg.proposed_params()
        inp.ipda = cfg.baseline_params(CLUTTER_LAMBDA)
        inp.records = [gen("scenario.gen", (workload, CLUTTER_LAMBDA, r, -1), make_run,
                           cfg.scenario, CLUTTER_LAMBDA, seed, 0, r) for r in range(n)]
    else:
        inp.mt = multi_params(cfg.scenario)
        inp.records = [gen("scenario.gen", (workload, MULTI_LAMBDA, s, -1), multi_scene,
                           cfg.scenario, seed, s) for s in range(n)]
    return inp


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def ospa(estimates, truths, c: float) -> float:
    """OSPA distance of order 1 and cut-off c between two sets of positions.

    For at most one system it equals scenario.error_at: min(|x - y|, c) for a
    declared estimate of a present system, c for a miss or a false
    declaration, 0 when both sets are empty.
    """
    m, n = len(truths), len(estimates)
    if m == n == 0:
        return 0.0
    best = {0: 0.0}  # mask of matched truths -> least cost so far
    for x in estimates:
        nxt: dict = {}
        for mask, cost in best.items():
            options = [(mask, cost + c)]
            for i, y in enumerate(truths):
                if not mask >> i & 1:
                    options.append((mask | 1 << i, cost + min(abs(x - y), c)))
            for key, val in options:
                if val < nxt.get(key, np.inf):
                    nxt[key] = val
        best = nxt
    total = min(cost + c * (m - bin(mask).count("1")) for mask, cost in best.items())
    return total / max(m, n)


def pf_ok(state: ExtendedPossibility) -> bool:
    return abs(max(state.psi_mass, state.on_s.sup()) - 1.0) <= INVARIANT_TOL


def ipda_ok(state: IpdaState) -> bool:
    return abs(float(state.weights.sum()) + state.diffuse_weight - 1.0) <= INVARIANT_TOL


def mt_ok(fm: IntensityMixture) -> bool:
    return fm.sup() <= 1.0


def _same_components(a, b) -> bool:
    return len(a) == len(b) and all(
        x.weight == y.weight and np.array_equal(x.mean, y.mean) and np.array_equal(x.cov, y.cov)
        for x, y in zip(a, b)
    )


def same_pf(a: ExtendedPossibility, b: ExtendedPossibility) -> bool:
    return (a.psi_mass == b.psi_mass and a.time_index == b.time_index
            and a.on_s.flat_weight == b.on_s.flat_weight
            and _same_components(a.on_s.components, b.on_s.components))


def same_ipda(a: IpdaState, b: IpdaState) -> bool:
    return (a.existence == b.existence and a.diffuse_weight == b.diffuse_weight
            and np.array_equal(a.weights, b.weights) and np.array_equal(a.means, b.means)
            and np.array_equal(a.covs, b.covs))


def same_mt(a: IntensityMixture, b: IntensityMixture) -> bool:
    return a.floor == b.floor and _same_components(a.components, b.components)


def best_error(summary, name: str) -> float:
    """Error at the threshold with the least error averaged over the rates."""
    by_tau: dict = defaultdict(list)
    for filt, _lam, tau, avg, *_ in summary:
        if filt == name:
            by_tau[tau].append(avg)
    return min(sum(v) / len(v) for v in by_tau.values())


class Failures:
    """Scans that raised NumericalError or broke an invariant, with reproducers."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.scans = 0
        self.log: list[dict] = []

    def add(self, n_scans: int, lam, run, t, reason: str) -> None:
        self.scans += n_scans
        where = {"workload": self.workload, "lambda": lam, "run": run, "t": t, "seed": self.seed}
        self.log.append({**where, "reason": reason, "scans": n_scans})
        logger.error("failure %s: %s (%d scans)", where, reason, n_scans)


# ---------------------------------------------------------------------------
# untraced loops: end-to-end metrics
# ---------------------------------------------------------------------------


def _e2e(lat_s, cal_s, units, filters: int, err_m: float) -> tuple[dict, dict]:
    """End-to-end metrics from per-scan latencies and the calibrations beside them.

    Latencies are scaled to the reference speed (see timing.speed_factors).
    Throughput is filter-scans per busy second of each unit (a study, a
    clutter run or a multi scene), averaged over units so that one scene that
    hits the intensity cap cannot dominate it.  The tail is recorded in the
    info line, not as a metric: in the multi scenes its spread across seeds
    exceeds any allowed bound.  Raw wall-clock figures go there too.
    """
    lat, units = np.asarray(lat_s), np.asarray(units)
    norm = lat * speed_factors(cal_s)
    rates = [filters * np.sum(units == u) / norm[units == u].sum() for u in np.unique(units)]
    p50, tail, p = latency_stats(1e3 * norm)
    metrics = {
        "scans_per_s": (float(np.mean(rates)), "1/s"),
        "scan_ms_p50": (p50, "ms"),
        "err_m": (err_m, "m"),
    }
    info = {
        "latency_samples": int(lat.size), "scan_ms_tail": tail, "tail_percentile": p,
        "raw_scan_ms_p50": float(1e3 * np.median(lat)),
        "raw_scans_per_s": float(filters * lat.size / lat.sum()),
        "calibration_ms": float(1e3 * np.median(cal_s)),
    }
    return metrics, info


def run_study(inp: Inputs, out_dir: Path) -> Outcome:
    cfg = inp.cfg
    n_t = cfg.scenario.t_end + 1
    attempted = 2 * n_t * cfg.n_runs * len(cfg.lambda_list)
    run_s, cal_s, last = [], [], "none"

    def progress(msg):
        # called after every (rate, run): close its interval, calibrate, reopen
        nonlocal start, last
        run_s.append(perf_counter() - start)
        cal_s.append(calibrate())
        last = msg
        start = perf_counter()

    start = perf_counter()
    try:
        result = run_benchmark(cfg, progress=progress)
    except NumericalError as err:
        fails = Failures(inp.workload, inp.seed)
        fails.add(attempted, None, f"after {last}", None, f"run_benchmark raised: {err}")
        return Outcome({}, attempted, attempted, False, {"failures": fails.log})
    t_emit = perf_counter()
    emit_results(result, out_dir)
    emit_s = perf_counter() - t_emit
    # one sample per run: the mean scan latency over the run's scans
    metrics, info = _e2e(np.array(run_s) / n_t, cal_s, np.zeros(len(run_s)), 2,
                         best_error(result.summary, PROPOSED))
    info["emit_s"] = emit_s
    return Outcome(metrics, attempted, 0, True, info)


def run_clutter(inp: Inputs) -> Outcome:
    cfg = inp.cfg
    p, b, c_err = inp.pf, inp.ipda, cfg.c_err
    fails = Failures(inp.workload, inp.seed)
    lat, cal, units, errs, attempted = [], [], [], [], 0
    for r, (truth, obs) in enumerate(inp.records):
        n_t = len(obs.steps)
        attempted += 2 * n_t
        st, ip = ExtendedPossibility.absent(), IpdaState.initial()
        t = 0
        try:
            for t, ys in enumerate(obs.steps):
                c = calibrate()
                t0 = perf_counter()
                st = step(st, p, ys)
                e_pf = estimate(st, THRESHOLD)
                ip = ipda_step(ip, b, ys)
                ipda_estimate(ip, THRESHOLD)
                lat.append(perf_counter() - t0)
                cal.append(c)
                units.append(r)
                errs.append(error_at(t, e_pf, truth, c_err))
                if not pf_ok(st):
                    fails.add(1, CLUTTER_LAMBDA, r, t, "max(absence, sup) != 1")
                if not ipda_ok(ip):
                    fails.add(1, CLUTTER_LAMBDA, r, t, "IPDA weights do not sum to 1")
        except NumericalError as err:
            fails.add(2 * (n_t - t), CLUTTER_LAMBDA, r, t, f"NumericalError: {err}")
    if not lat:
        return Outcome({}, attempted, fails.scans, False, {"failures": fails.log})
    metrics, info = _e2e(lat, cal, units, 2, float(np.mean(errs)))
    info["failures"] = fails.log
    return Outcome(metrics, attempted, fails.scans, True, info)


def run_multi(inp: Inputs) -> Outcome:
    mt, c_err = inp.mt, inp.cfg.c_err
    fails = Failures(inp.workload, inp.seed)
    lat, cal, units, errs, attempted = [], [], [], [], 0
    for s, scene in enumerate(inp.records):
        n_t = len(scene.steps)
        attempted += n_t
        fm = IntensityMixture()
        t = 0
        try:
            for t, ys in enumerate(scene.steps):
                c = calibrate()
                t0 = perf_counter()
                fm = propagate_intensity(fm, mt)
                fm = update_intensity(fm, mt, ys)
                found = extract_targets(fm)
                lat.append(perf_counter() - t0)
                cal.append(c)
                units.append(s)
                errs.append(ospa([float(x[0]) for x in found], scene.positions[t], c_err))
                if not mt_ok(fm):
                    fails.add(1, MULTI_LAMBDA, s, t, "intensity sup > 1")
        except NumericalError as err:
            fails.add(n_t - t, MULTI_LAMBDA, s, t, f"NumericalError: {err}")
    if not lat:
        return Outcome({}, attempted, fails.scans, False, {"failures": fails.log})
    metrics, info = _e2e(lat, cal, units, 1, float(np.mean(errs)))
    info["failures"] = fails.log
    return Outcome(metrics, attempted, fails.scans, True, info)


# ---------------------------------------------------------------------------
# traced loops: per-layer metrics and staged-equals-whole checks
# ---------------------------------------------------------------------------


class Counts:
    """Component counts after each stage, one entry per scan."""

    def __init__(self):
        self.k = defaultdict(list)

    def add(self, name: str, value) -> None:
        self.k[name].append(value)

    def mean(self, name: str) -> float:
        v = self.k[name]
        return float(np.mean(v)) if v else 0.0

    def max(self, name: str) -> float:
        v = self.k[name]
        return float(max(v)) if v else 0.0

    def total(self, name: str) -> float:
        return float(sum(self.k[name]))


def staged_pf(tr: Tracer, tag, state, p, ys, counts: Counts, fails: Failures):
    """predict -> update -> prune -> dominance_reduce -> merge, one span each."""
    pred = tr.call("single_target.predict", tag, predict, state, p)
    post = tr.call("single_target.update", tag, update, pred, p, ys)
    mix = tr.call("mixtures.prune", tag, prune, post.on_s, p.prune_threshold)
    k_prune = len(mix.components)
    mix = tr.call("mixtures.dominance", tag, dominance_reduce, mix)
    k_dom = len(mix.components)
    mix = tr.call("mixtures.merge", tag, merge, mix, p.merge_threshold)
    out = replace(post, on_s=mix)
    counts.add("k_update", len(post.on_s.components))
    counts.add("k_prune", k_prune)
    counts.add("k_dominance", k_dom)
    counts.add("k_merge", len(mix.components))
    if not (pf_ok(post) and pf_ok(out)):
        fails.add(1, tag[1], tag[2], tag[3], "max(absence, sup) != 1")
    return out


def staged_ipda(tr: Tracer, tag, state, b, ys, counts: Counts, fails: Failures):
    pred = tr.call("ipda.predict", tag, ipda_predict, state, b)
    out = tr.call("ipda.update", tag, ipda_update, pred, b, ys)
    counts.add("ipda_k", out.n_components)
    if not ipda_ok(out):
        fails.add(1, tag[1], tag[2], tag[3], "IPDA weights do not sum to 1")
    return out


def _layer_metrics(tr: Tracer, counts: Counts, n_scans: int, untraced_s: float,
                   traced_s: float, ipda_err_m: float = 0.0, card_err: float = 0.0) -> dict:
    """Per-layer metrics; stages and filters a workload does not run read 0."""
    def per_scan(name):
        return (tr.busy_ms(name) / n_scans, "ms")

    def steps(stages):
        return latency_stats(tr.per_scan_ms(stages))[:2]

    pf50, pftail = steps(PF_STAGES)
    ip50, iptail = steps(IPDA_STAGES)
    mt50, mttail = steps(MT_STAGES)
    k_update = counts.total("k_update")
    return {
        "single_target.predict_ms": per_scan("single_target.predict"),
        "single_target.update_ms": per_scan("single_target.update"),
        "single_target.estimate_ms": per_scan("single_target.estimate"),
        "single_target.step_ms_p50": (pf50, "ms"),
        "single_target.step_ms_tail": (pftail, "ms"),
        "single_target.k_update_mean": (counts.mean("k_update"), "count"),
        "single_target.k_update_max": (counts.max("k_update"), "count"),
        "single_target.keep_ratio": (counts.total("k_merge") / k_update if k_update else 0.0, "ratio"),
        "mixtures.prune_ms": per_scan("mixtures.prune"),
        "mixtures.dominance_ms": per_scan("mixtures.dominance"),
        "mixtures.merge_ms": per_scan("mixtures.merge"),
        "mixtures.k_prune_mean": (counts.mean("k_prune"), "count"),
        "mixtures.k_dominance_mean": (counts.mean("k_dominance"), "count"),
        "mixtures.k_merge_mean": (counts.mean("k_merge"), "count"),
        "mixtures.k_merge_max": (counts.max("k_merge"), "count"),
        "ipda.predict_ms": per_scan("ipda.predict"),
        "ipda.update_ms": per_scan("ipda.update"),
        "ipda.estimate_ms": per_scan("ipda.estimate"),
        "ipda.step_ms_p50": (ip50, "ms"),
        "ipda.step_ms_tail": (iptail, "ms"),
        "ipda.k_mean": (counts.mean("ipda_k"), "count"),
        "ipda.err_m": (ipda_err_m, "m"),
        "intensity.propagate_ms": per_scan("intensity.propagate"),
        "intensity.update_ms": per_scan("intensity.update"),
        "intensity.extract_ms": per_scan("intensity.extract"),
        "intensity.step_ms_p50": (mt50, "ms"),
        "intensity.step_ms_tail": (mttail, "ms"),
        "intensity.k_mean": (counts.mean("mt_k"), "count"),
        "intensity.cap_frac": (counts.mean("mt_cap"), "ratio"),
        "intensity.card_err": (card_err, "count"),
        "scenario.gen_ms": per_scan("scenario.gen"),
        "scenario.obs_per_scan": (counts.mean("obs"), "count"),
        "bench.sweep_ms": per_scan("bench.sweep"),
        "bench.emit_ms": per_scan("bench.emit"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }


def _summary_rows(cfg: BenchConfig, err: dict) -> BenchResult:
    """Result rows built exactly as run_benchmark builds them."""
    result = BenchResult(config=cfg)
    n_t = cfg.scenario.t_end + 1
    for lam, per_filter in err.items():
        for name in (PROPOSED, BASELINE):
            mean = per_filter[name] / cfg.n_runs
            for ti, tau in enumerate(cfg.threshold_sweep):
                for t in range(n_t):
                    result.per_time.append(
                        (name, lam, tau, t, float(mean[ti, t]), cfg.n_runs, cfg.base_seed))
                result.summary.append(
                    (name, lam, tau, float(mean[ti].mean()), cfg.n_runs, cfg.base_seed, cfg.c_err))
    return result


def traced_scan(tr: Tracer, tag, st, ip, p, b, ys, truth, thresholds, c_err,
                counts: Counts, fails: Failures):
    """One scan through both filters: whole calls untraced, then staged and traced.

    Returns the staged states, the (pf, ipda) error per threshold, the
    untraced and traced wall times, and whether staged equals whole.
    """
    t = tag[3]
    counts.add("obs", len(ys))
    t0 = perf_counter()
    st_w = step(st, p, ys)
    ip_w = ipda_step(ip, b, ys)
    errs_w = [(error_at(t, estimate(st_w, tau), truth, c_err),
               error_at(t, ipda_estimate(ip_w, tau), truth, c_err)) for tau in thresholds]
    t1 = perf_counter()
    st = staged_pf(tr, tag, st, p, ys, counts, fails)
    ip = staged_ipda(tr, tag, ip, b, ys, counts, fails)
    s0 = perf_counter()
    errs = [(error_at(t, tr.call("single_target.estimate", tag, estimate, st, tau), truth, c_err),
             error_at(t, tr.call("ipda.estimate", tag, ipda_estimate, ip, tau), truth, c_err))
            for tau in thresholds]
    t2 = perf_counter()
    tr.spans.append(("bench.sweep", tag, s0, t2))
    same = same_pf(st, st_w) and same_ipda(ip, ip_w) and errs == errs_w
    if not same:
        logger.error("staged chain differs from step/ipda_step at %s", tag)
    return st, ip, errs, t1 - t0, t2 - t1, same


def trace_study(inp: Inputs, out_dir: Path, tr: Tracer) -> Outcome:
    """A staged study loop on make_run that must reproduce run_benchmark's rows."""
    cfg, name = inp.cfg, inp.workload
    n_t = cfg.scenario.t_end + 1
    n_scans = n_t * cfg.n_runs * len(cfg.lambda_list)
    try:
        whole = run_benchmark(cfg)
    except NumericalError as err:
        fails = Failures(name, inp.seed)
        fails.add(2 * n_scans, None, None, None, f"run_benchmark raised: {err}")
        return Outcome({}, 2 * n_scans, 2 * n_scans, False, {"failures": fails.log})
    whole_paths = emit_results(whole, out_dir / "whole")

    counts, fails = Counts(), Failures(name, inp.seed)
    thresholds = cfg.threshold_sweep
    untraced = traced = 0.0
    same = True
    err: dict = {}
    for li, lam in enumerate(cfg.lambda_list):
        b = cfg.baseline_params(lam)
        err[lam] = {PROPOSED: np.zeros((len(thresholds), n_t)),
                    BASELINE: np.zeros((len(thresholds), n_t))}
        for run in range(cfg.n_runs):
            truth, obs = tr.call("scenario.gen", (name, lam, run, -1), make_run,
                                 cfg.scenario, lam, cfg.base_seed, li, run)
            st, ip = ExtendedPossibility.absent(), IpdaState.initial()
            for t in range(n_t):
                st, ip, errs, dt_whole, dt_staged, ok = traced_scan(
                    tr, (name, lam, run, t), st, ip, inp.pf, b, obs.steps[t], truth,
                    thresholds, cfg.c_err, counts, fails)
                for ti, (e_pf, e_ip) in enumerate(errs):
                    err[lam][PROPOSED][ti, t] += e_pf
                    err[lam][BASELINE][ti, t] += e_ip
                untraced += dt_whole
                traced += dt_staged
                same = same and ok
    staged = _summary_rows(cfg, err)
    staged_paths = tr.call("bench.emit", (name, None, None, -1), emit_results, staged, out_dir / "staged")
    rows_same = (staged.summary == whole.summary and staged.per_time == whole.per_time
                 and all(a.read_bytes() == b.read_bytes() for a, b in zip(staged_paths, whole_paths)))
    if not rows_same:
        logger.error("staged study loop does not reproduce run_benchmark's rows")
    metrics = _layer_metrics(tr, counts, n_scans, untraced, traced,
                             ipda_err_m=best_error(staged.summary, BASELINE))
    return Outcome(metrics, 2 * n_scans, fails.scans, same and rows_same, {"failures": fails.log})


def trace_clutter(inp: Inputs, tr: Tracer) -> Outcome:
    """Per scan: step/ipda_step untraced against the staged chains traced."""
    cfg, name = inp.cfg, inp.workload
    counts, fails = Counts(), Failures(name, inp.seed)
    untraced = traced = 0.0
    same = True
    n_scans, ipda_errs = 0, []
    for r, (truth, obs) in enumerate(inp.records):
        st, ip = ExtendedPossibility.absent(), IpdaState.initial()
        t = 0
        try:
            for t, ys in enumerate(obs.steps):
                st, ip, errs, dt_whole, dt_staged, ok = traced_scan(
                    tr, (name, CLUTTER_LAMBDA, r, t), st, ip, inp.pf, inp.ipda, ys, truth,
                    (THRESHOLD,), cfg.c_err, counts, fails)
                ipda_errs.append(errs[0][1])
                untraced += dt_whole
                traced += dt_staged
                n_scans += 1
                same = same and ok
        except NumericalError as err:
            fails.add(2 * (len(obs.steps) - t), CLUTTER_LAMBDA, r, t, f"NumericalError: {err}")
    attempted = 2 * sum(len(obs.steps) for _, obs in inp.records)
    if not n_scans:
        return Outcome({}, attempted, fails.scans, False, {"failures": fails.log})
    metrics = _layer_metrics(tr, counts, n_scans, untraced, traced,
                             ipda_err_m=float(np.mean(ipda_errs)))
    return Outcome(metrics, attempted, fails.scans, same, {"failures": fails.log})


def trace_multi(inp: Inputs, tr: Tracer) -> Outcome:
    """Per scan: the three calls untraced, then again with one span each."""
    name, mt = inp.workload, inp.mt
    counts, fails = Counts(), Failures(name, inp.seed)
    untraced = traced = 0.0
    same = True
    n_scans, card_errs = 0, []
    for s, scene in enumerate(inp.records):
        fm = IntensityMixture()
        t = 0
        try:
            for t, ys in enumerate(scene.steps):
                tag = (name, MULTI_LAMBDA, s, t)
                counts.add("obs", len(ys))
                t0 = perf_counter()
                fm_w = update_intensity(propagate_intensity(fm, mt), mt, ys)
                found_w = extract_targets(fm_w)
                t1 = perf_counter()
                fm = tr.call("intensity.propagate", tag, propagate_intensity, fm, mt)
                fm = tr.call("intensity.update", tag, update_intensity, fm, mt, ys)
                found = tr.call("intensity.extract", tag, extract_targets, fm)
                t2 = perf_counter()
                untraced += t1 - t0
                traced += t2 - t1
                n_scans += 1
                counts.add("mt_k", len(fm.components))
                counts.add("mt_cap", float(len(fm.components) >= mt.max_components))
                card_errs.append(abs(len(found) - len(scene.positions[t])))
                if not mt_ok(fm):
                    fails.add(1, MULTI_LAMBDA, s, t, "intensity sup > 1")
                if not (same_mt(fm, fm_w) and len(found) == len(found_w)
                        and all(np.array_equal(x, y) for x, y in zip(found, found_w))):
                    logger.error("traced intensity scan differs from the untraced one at %s", tag)
                    same = False
        except NumericalError as err:
            fails.add(len(scene.steps) - t, MULTI_LAMBDA, s, t, f"NumericalError: {err}")
    attempted = sum(len(scene.steps) for scene in inp.records)
    if not n_scans:
        return Outcome({}, attempted, fails.scans, False, {"failures": fails.log})
    metrics = _layer_metrics(tr, counts, n_scans, untraced, traced,
                             card_err=float(np.mean(card_errs)))
    return Outcome(metrics, attempted, fails.scans, same, {"failures": fails.log})


def run(inp: Inputs, out_dir: Path, tracer: Tracer | None) -> Outcome:
    if tracer is None:
        if inp.workload == "study":
            return run_study(inp, out_dir)
        return run_clutter(inp) if inp.workload == "clutter" else run_multi(inp)
    if inp.workload == "study":
        return trace_study(inp, out_dir, tracer)
    return trace_clutter(inp, tracer) if inp.workload == "clutter" else trace_multi(inp, tracer)
