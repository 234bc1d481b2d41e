"""Comparing the two optimizer modes on a few benchmark functions.

Runs a handful of the classical test functions with both the base
fitness-dependent optimizer and the improved variant, then prints the
mean/std table produced by the experiment harness.  Scale down ``RUNS``
or ``ITERATIONS`` for a faster look.
"""

from fdopt import ExperimentConfig, run_experiment, get_objective
from fdopt.core import FDO, IFDO
from fdopt.harness import compare, format_comparison

RUNS = 10
POPULATION = 30
ITERATIONS = 500
FUNCTIONS = ["TF1", "TF2", "TF9", "TF10"]

results = []
for fid in FUNCTIONS:
    objective = get_objective(fid)
    for mode in (FDO, IFDO):
        config = ExperimentConfig(
            objective_id=fid,
            mode=mode,
            runs=RUNS,
            population=POPULATION,
            iterations=ITERATIONS,
        )
        result = run_experiment(config, objective)
        results.append(result)
        print(f"{fid} {mode}: mean={result.mean:.6e} std={result.std:.6e}")

print()
print(format_comparison(compare(results)))
