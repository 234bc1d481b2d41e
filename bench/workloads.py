"""The benchmark's workloads and the correctness check of their outputs.

Each workload is one user-visible operation on the paper's 30 agents x 500
iterations, repeated over ``runs`` seeded runs (run k uses seed
``base_seed + k``, as in the harness):

- ``sphere-ifdo``: TF1 (shifted sphere, d=10) with ``ifdo`` through
  ``harness.run_experiment``.  The objective is cheap, so the engine
  (neighborhood, bound repair, pace and proposal) dominates.
- ``antenna-fdo``: ANTENNA (peak sidelobe, d=4) with ``fdo`` through
  ``harness.run_experiment``.  The objective dominates and
  ``neighborhood`` never runs.
- ``rastrigin-cli-export``: ``fdopt run`` on TF9 with ``ifdo`` in-process,
  writing the summary, trace and search-history CSVs.  Same engine, plus
  the CLI, ``record_positions`` and the 17-digit write path.
"""

import contextlib
import copy
import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from fdopt import cli, core, harness, registry

# the paper's swarm size
POPULATION = 30


@dataclass(frozen=True)
class Workload:
    name: str
    objective_id: str
    mode: str
    runs: int
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-ifdo", "TF1", core.IFDO, runs=4),
        Workload("antenna-fdo", "ANTENNA", core.FDO, runs=4),
        Workload("rastrigin-cli-export", "TF9", core.IFDO, runs=4, via_cli=True),
    )
}


class Operation:
    """One repetition of a workload: the call a user would make, and its outputs.

    ``perform`` is the timed part.  It returns the ExperimentResult; for the
    CLI workload the result is captured on its way through
    ``harness.run_experiment``, and the exit code is kept in ``exit_code``.
    """

    def __init__(self, workload, base_seed, iterations, workdir):
        self.workload = workload
        self.config = harness.ExperimentConfig(
            objective_id=workload.objective_id,
            mode=workload.mode,
            runs=workload.runs,
            population=POPULATION,
            iterations=iterations,
            base_seed=base_seed,
            record_positions=workload.via_cli,
        )
        self.paths = {
            kind: os.path.join(workdir, f"{kind}.csv") for kind in ("summary", "trace", "history")
        }
        self.exit_code = 0
        self.stdout = ""

    def perform(self):
        if not self.workload.via_cli:
            objective = registry.get_objective(self.config.objective_id)
            return harness.run_experiment(self.config, objective)
        c = self.config
        argv = [
            "run", "--function", c.objective_id, "--algo", c.mode,
            "--runs", str(c.runs), "--seed", str(c.base_seed),
            "--agents", str(c.population), "--iters", str(c.iterations),
            "--out", self.paths["summary"], "--trace", self.paths["trace"],
            "--history", self.paths["history"],
        ]
        captured = []
        run_experiment = harness.run_experiment

        def capture(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            captured.append(result)
            return result

        harness.run_experiment = capture
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                self.exit_code = cli.main(argv)
        finally:
            harness.run_experiment = run_experiment
        self.stdout = buffer.getvalue()
        return captured[0] if captured else None


def _same_run(a, b):
    """Bit-identical records: trace, best position, best value, positions."""
    same = (
        a.trace.tobytes() == b.trace.tobytes()
        and a.best_position.tobytes() == b.best_position.tobytes()
        and a.best_fitness == b.best_fitness
    )
    if a.positions is not None or b.positions is not None:
        same = same and a.positions is not None and b.positions is not None
        same = same and a.positions.tobytes() == b.positions.tobytes()
    return same


def check_record(record, objective):
    """Problems of one run, as short strings (empty when the run is correct)."""
    problems = []
    trace, best = record.trace, record.best_fitness
    if not np.isfinite(best):
        problems.append("best_fitness is not finite")
    if not (best == trace[-1] == np.min(trace)):
        problems.append("best_fitness differs from trace[-1] or min(trace)")
    if np.any(np.diff(trace) > 0):
        problems.append("trace increases")
    lower, upper = objective.bounds.lower, objective.bounds.upper
    if np.any(record.best_position < lower) or np.any(record.best_position > upper):
        problems.append("best_position leaves the box")
    if objective.evaluate(record.best_position) != best:
        problems.append("re-evaluating best_position does not give best_fitness")
    return problems


def check_exports(op, result):
    """Problems of the CLI's outputs: trace round-trip, history rows, summary."""
    problems = []
    c = op.config
    with open(op.paths["trace"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != c.runs * c.iterations:
        problems.append(f"trace CSV has {len(rows)} rows, expected {c.runs * c.iterations}")
    else:
        for k, record in enumerate(result.records):
            block = rows[k * c.iterations:(k + 1) * c.iterations]
            values = np.array([float(row[2]) for row in block])
            if values.tobytes() != record.trace.tobytes():
                problems.append(f"trace CSV does not round-trip run {k}")
    with open(op.paths["history"], "rb") as fh:
        history_rows = sum(1 for _ in fh) - 1
    expected = c.runs * c.iterations * c.population
    if history_rows != expected:
        problems.append(f"history CSV has {history_rows} rows, expected {expected}")
    with open(op.paths["summary"], newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != 1 or float(summary[0]["mean"]) != result.mean:
        problems.append("summary CSV mean does not round-trip")
    if f"mean={result.mean:.10e}" not in op.stdout:
        problems.append("the printed summary line does not show the experiment mean")
    return problems


def check_repetition(op, result, reference=None):
    """Check one repetition; return (failed run indices, problem strings).

    Every run gets the per-run checks and, given a reference repetition,
    must equal it bit for bit.  A CLI failure or a bad export fails every
    run of the repetition.
    """
    c = op.config
    if result is None or op.exit_code != 0 or len(result.records) != c.runs:
        return set(range(c.runs)), [f"operation failed (exit code {op.exit_code})"]
    objective = registry.get_objective(c.objective_id)
    failed, problems = set(), []
    for k, record in enumerate(result.records):
        found = check_record(record, objective)
        if reference is not None and not _same_run(record, reference.records[k]):
            found.append("differs from the first repetition")
        if found:
            failed.add(k)
            problems.extend(f"run {k}: {p}" for p in found)
    if op.workload.via_cli:
        found = check_exports(op, result)
        if found:
            failed.update(range(c.runs))
            problems.extend(found)
    return failed, problems


def check_rebuilt(op, result, k):
    """Rebuild run ``k`` of a repetition alone from its seed with ``core.run``,
    counting its objective evaluations; it must be bit-identical (the
    harness contract).  Returns (failed runs, problems, evaluations)."""
    c = op.config
    objective = copy.copy(registry.get_objective(c.objective_id))
    evaluate, calls = objective.evaluate, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    objective.evaluate = counted
    if _same_run(core.run(c.run_config(k), objective), result.records[k]):
        return set(), [], calls[0]
    return {k}, [f"run {k}: rebuilt alone from seed {c.base_seed + k}, it differs"], calls[0]
