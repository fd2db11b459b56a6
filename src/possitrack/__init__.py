"""Possibility-function filtering for detection and tracking.

Filters built on max-mixtures of Gaussian possibility functions: a
single-system filter on a state space extended with an "absent" point, a
multi-system intensity filter on uncertain counting measures, a classical
probabilistic baseline, and a paired Monte Carlo benchmark.
"""

from .mixtures import (
    EXP_FLOOR,
    GaussianPossibility,
    MaxMixture,
    NumericalError,
    dominance_reduce,
    merge,
    merge_with_report,
    prune,
)
from .single_target import (
    ClutterModel,
    ExplicitBirth,
    ExtendedPossibility,
    ObservationDrivenBirth,
    SingleTargetParams,
    clutter_possibility,
    estimate,
    predict,
    step,
    update,
)
from .intensity import (
    IntensityMixture,
    MultiTargetParams,
    extract_targets,
    propagate_intensity,
    recover_cardinality_spatial,
    sum_intensities,
    update_intensity,
)
from .ipda import IpdaParams, IpdaState, ipda_estimate, ipda_predict, ipda_step, ipda_update
from .scenario import (
    GroundTruth,
    ObservationRecord,
    ScenarioConfig,
    error_at,
    generate_observations,
    simulate_truth,
)
from .bench import BenchConfig, BenchResult, demo_config, default_config, emit_results, run_benchmark

__version__ = "0.1.0"
