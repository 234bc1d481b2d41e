"""fdopt: fitness-dependent bee-swarm optimization (FDO and IFDO).

A continuous black-box optimizer, the classical TF1-TF19 and CEC-2019
benchmark suites, antenna sidelobe and evacuation exit applications, and a
reproducible experiment harness.
"""

from .core import (
    FDO,
    IFDO,
    Bounds,
    RunConfig,
    RunRecord,
    SwarmState,
    first_best_iteration,
    init_population,
    run,
    step,
)
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from .objective import ObjectiveSpec
from .registry import all_objectives, get_objective

__all__ = [
    "FDO",
    "IFDO",
    "Bounds",
    "RunConfig",
    "RunRecord",
    "SwarmState",
    "ObjectiveSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "all_objectives",
    "get_objective",
    "first_best_iteration",
    "init_population",
    "run",
    "run_experiment",
    "step",
]

__version__ = "0.1.0"
