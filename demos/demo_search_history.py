"""Recording the full swarm trajectory of a single run.

Positions of every agent at every iteration can be recorded and exported
to CSV, which is the raw data behind search-history scatter plots and
convergence curves.  This demo runs a small 2-D problem, writes both
files, and prints how the swarm's spread collapses over time.
"""

import numpy as np

from fdopt import ExperimentConfig, run_experiment, get_objective
from fdopt.core import IFDO
from fdopt.harness import export_results, export_search_history
from fdopt.objective import ObjectiveSpec, box
from fdopt.classical import rastrigin

# an objective that draws no noise is a plain function of the shifted
# position, z -> real scalar; a noisy one would take (z, rng) and set noisy=True
objective = ObjectiveSpec(id="rastrigin2", bounds=box(2, -5.12, 5.12), evaluator=rastrigin)
config = ExperimentConfig(
    objective_id="rastrigin2",
    mode=IFDO,
    runs=1,
    population=10,
    iterations=150,
    record_positions=True,
)
result = run_experiment(config, objective)

export_search_history(result, "search_history.csv")
export_results(result, "csv", "convergence.csv", kind="trace")
print("wrote search_history.csv (10 agents x 150 iterations) and convergence.csv")

positions = result.records[0].positions
print()
print("swarm spread (mean distance to centroid) over time:")
for t in (0, 9, 29, 74, 149):
    snapshot = positions[t]
    spread = np.mean(np.linalg.norm(snapshot - snapshot.mean(axis=0), axis=1))
    print(f"  iteration {t + 1:3d}: spread {spread:10.4f}  "
          f"best so far {result.records[0].trace[t]:.6f}")
