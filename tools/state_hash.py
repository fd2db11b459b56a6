"""SHA-256 digests of every filter's states, to check that a change keeps their bits.

Run from the repository root:

    python3 tools/state_hash.py

It imports ``possitrack`` from the ``src/`` next to it and prints one digest
per section:

- ``pf``: the possibility filter's mixture after update, after dominance
  reduction and after merge, the absence mass, the estimates at the 8
  thresholds of the default study and the ``merge_with_report`` bounds;
- ``ipda``: the IPDA baseline's states and its estimates at those thresholds;
- ``intensity``: the intensity filter's states after propagation and after
  update, and ``extract_targets`` at three settings.

The single-system runs are those of the default study (``make_run``) at
false-alarm rates 1, 10 and 30 (runs 0-2) and 100 (run 0); the intensity
filter runs on four three-system scenes with lambda = 10 clutter, built by
``three_system_scene`` of ``tests/test_intensity.py`` (so pytest must be
installed).  Two checkouts whose digests agree compute the same bytes on all
of these.  Two checks feed no digest, and a failed one exits with status 2.
On every single-system scan, ``merge`` must return the bytes of
``merge_with_report``'s mixture, which it reaches without the bounds.  On
every intensity scan, ``dominance_reduce`` must return the outputs of
``propagate_intensity`` and ``update_intensity`` as themselves, since
``extract_targets`` reads its input as reduced.  The whole run takes about
12 s on a 2-core machine.

    python3 tools/state_hash.py --against HEAD~1

also exports the commit HEAD~1 with ``git archive`` (the export of
``tools/bench_pairs.py``), runs this file there on that commit's ``src/``,
prints the two digest sets side by side and exits with status 1 if any
section differs, or 2 if either side fails (a failed check included).
Both sides run at once, one process each.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from possitrack.bench import default_config, make_run  # noqa: E402
from possitrack.intensity import (  # noqa: E402
    IntensityMixture,
    extract_targets,
    propagate_intensity,
    update_intensity,
)
from possitrack.ipda import IpdaState, ipda_estimate, ipda_step  # noqa: E402
from possitrack.mixtures import dominance_reduce, merge, merge_with_report, prune  # noqa: E402
from possitrack.single_target import (  # noqa: E402
    ExtendedPossibility,
    canonicalize_observations,
    estimate,
    predict,
    update,
)

# (false-alarm rate, run) of the single-system runs; a run's seed also takes
# the index of its rate in RATES
RATES = (1.0, 10.0, 30.0, 100.0)
PF_CASES = tuple((lam, run) for lam in RATES[:3] for run in range(3)) + ((RATES[3], 0),)
SCENE_SEEDS = (1, 2, 3, 4)
# (tau_x, merge_radius) of extract_targets
EXTRACT_SETTINGS = ((0.9, 3.22), (0.5, 1.0), (0.0, 8.0))


class MergeMismatch(Exception):
    """``merge`` and ``merge_with_report`` gave different mixtures on one scan."""


class NotReduced(Exception):
    """``dominance_reduce`` reduced an intensity that the filter returned."""


def _same_mix(a, b) -> bool:
    return a.flat_weight == b.flat_weight and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    )


def _feed(h, *values) -> None:
    """Add each value to the hash: arrays with their shape, None and floats by repr."""
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(repr(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())


def _feed_mix(h, mix) -> None:
    _feed(h, mix.weights, mix.means, mix.covs, mix.flat_weight)


def _single_system(cases, pf, ipda) -> None:
    cfg = default_config()
    params = cfg.proposed_params()
    for lam, run in cases:
        _, obs = make_run(cfg.scenario, lam, cfg.base_seed, RATES.index(lam), run)
        base_params = cfg.baseline_params(lam)
        st, ip = ExtendedPossibility.absent(), IpdaState.initial()
        for t, scan in enumerate(obs.steps):
            ys = canonicalize_observations(scan, params.obs_dim)
            # the stages of ``step``, each hashed
            post = update(predict(st, params), params, ys)
            reduced = dominance_reduce(prune(post.on_s, params.prune_threshold))
            merged, bounds = merge_with_report(reduced, params.merge_threshold)
            if not _same_mix(merge(reduced, params.merge_threshold), merged):
                raise MergeMismatch(f"merge and merge_with_report differ at lambda {lam}, run {run}, t {t}")
            st = replace(post, on_s=merged)
            for mix in (post.on_s, reduced, merged):
                _feed_mix(pf, mix)
            _feed(pf, st.psi_mass, bounds, *(estimate(st, tau) for tau in cfg.threshold_sweep))

            ip = ipda_step(ip, base_params, ys)
            _feed(ipda, ip.existence, ip.weights, ip.means, ip.covs, ip.diffuse_weight)
            _feed(ipda, *(ipda_estimate(ip, tau) for tau in cfg.threshold_sweep))


def _intensity(scene_seeds, h) -> None:
    # the scenes and parameters of the intensity golden test
    spec = importlib.util.spec_from_file_location("test_intensity", ROOT / "tests" / "test_intensity.py")
    scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenes)
    params = scenes.params()
    for seed in scene_seeds:
        fm = IntensityMixture()
        for t, ys in enumerate(scenes.three_system_scene(seed)):
            moved = propagate_intensity(fm, params)
            fm = update_intensity(moved, params, ys)
            for stage, mix in (("propagate_intensity", moved), ("update_intensity", fm)):
                if dominance_reduce(mix) is not mix:
                    raise NotReduced(f"dominance_reduce reduces {stage}'s output in scene {seed}, t {t}")
            _feed_mix(h, moved)
            _feed_mix(h, fm)
            for tau_x, radius in EXTRACT_SETTINGS:
                _feed(h, *extract_targets(fm, tau_x, radius), None)


def digests(pf_cases=PF_CASES, scene_seeds=SCENE_SEEDS) -> dict[str, str]:
    """The hex digest of each section over the given runs and scenes."""
    pf, ipda, intensity = (hashlib.sha256() for _ in range(3))
    _single_system(pf_cases, pf, ipda)
    _intensity(scene_seeds, intensity)
    return {"pf": pf.hexdigest(), "ipda": ipda.hexdigest(), "intensity": intensity.hexdigest()}


def compare(mine: dict[str, str], theirs: dict[str, str]) -> tuple[list[str], bool]:
    """One line per section, ``name theirs mine equal|DIFFERENT``, and whether all are equal.

    A section missing on one side shows as ``-`` and counts as different.
    """
    lines, same = [], True
    for name in dict.fromkeys([*theirs, *mine]):
        a, b = theirs.get(name), mine.get(name)
        equal = a is not None and a == b
        same = same and equal
        lines.append(f"{name} {a or '-'} {b or '-'} {'equal' if equal else 'DIFFERENT'}")
    return lines, same


def _start_at(rev: str, tmp: Path) -> subprocess.Popen:
    """Start this file on the files of ``rev``, exported under tmp."""
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import export_tree

    export_tree(rev, tmp)
    # the same hashing code on both sides: only src/ (and the scenes) come from rev
    (tmp / "tools").mkdir(exist_ok=True)
    shutil.copyfile(Path(__file__), tmp / "tools" / "state_hash.py")
    return subprocess.Popen([sys.executable, "tools/state_hash.py"], cwd=tmp,
                            stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also hash commit REV; print both digest sets and exit 1 if they differ")
    args = parser.parse_args(argv)
    try:
        if args.against is None:
            for name, digest in digests().items():
                print(f"{name} {digest}")
            return 0
        with tempfile.TemporaryDirectory(prefix="state_hash_") as tmp, _start_at(args.against, Path(tmp)) as proc:
            mine = digests()
            out, _ = proc.communicate()
    except (MergeMismatch, NotReduced) as err:
        print(f"state_hash.py: {err}", file=sys.stderr)
        return 2
    if proc.returncode:
        print(f"state_hash.py failed at {args.against} (exit {proc.returncode})", file=sys.stderr)
        return 2
    theirs = dict(line.split(" ", 1) for line in out.splitlines() if line)
    lines, same = compare(mine, theirs)
    print(f"section {args.against} working-tree")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
