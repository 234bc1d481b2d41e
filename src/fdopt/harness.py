"""Experiment harness: repeated runs, mean/std aggregation and result export.

Run k of an experiment uses seed ``base_seed + k`` so any single run can be
reconstructed in isolation.  Exports use 17-significant-digit decimals so
64-bit floats round-trip exactly.
"""

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .core import RunConfig, _require_choice, _require_int, run, run_many

# ``run`` is only re-exported: no experiment calls it, but bench/spans.py
# still times ``harness.run`` and needs the name
__all__ = [
    "SUMMARY_COLUMNS",
    "ExperimentConfig",
    "ExperimentResult",
    "compare",
    "export_results",
    "export_search_history",
    "format_comparison",
    "run",
    "run_experiment",
    "summary_csv_row",
]

_FMT = "{:.17g}"
SUMMARY_COLUMNS = ("objective", "mode", "runs", "population", "iterations", "mean", "std")


@dataclass
class ExperimentConfig:
    objective_id: str
    mode: str
    runs: int = 30
    population: int = RunConfig.population
    iterations: int = RunConfig.iterations
    base_seed: int = 0
    record_positions: bool = RunConfig.record_positions
    fdo_wf: float = RunConfig.fdo_wf
    wf_scope: str = RunConfig.wf_scope

    def __post_init__(self):
        _require_int("runs", self.runs, 1)
        # RunConfig owns the checks of the shared run settings
        self.run_config(0)

    def run_config(self, k):
        shared = {f.name: getattr(self, f.name) for f in fields(RunConfig) if f.name != "seed"}
        return RunConfig(seed=self.base_seed + k, **shared)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    mean: float = field(init=False)
    std: float = field(init=False)

    def __post_init__(self):
        bests = self.final_bests
        self.mean = float(np.mean(bests))
        # sample standard deviation; zero by convention for a single run
        self.std = float(np.std(bests, ddof=1)) if len(bests) > 1 else 0.0

    @property
    def final_bests(self):
        return np.array([r.best_fitness for r in self.records])


def run_experiment(config, objective):
    """Execute ``config.runs`` independent runs and aggregate them.

    The runs advance together in ``core.run_many``; run k has the bits
    ``core.run`` gives it alone.
    """
    if config.objective_id != objective.id:
        raise ValueError(
            f"config is for objective {config.objective_id!r}, got objective {objective.id!r}"
        )
    records = run_many([config.run_config(k) for k in range(config.runs)], objective)
    return ExperimentResult(config=config, records=records)


def _summary_row(result):
    c = result.config
    # numpy integers are valid counts, but json cannot encode them
    counts = (int(c.runs), int(c.population), int(c.iterations))
    values = (c.objective_id, c.mode, *counts, result.mean, result.std)
    return dict(zip(SUMMARY_COLUMNS, values))


def summary_csv_row(result):
    """One summary CSV row in ``SUMMARY_COLUMNS`` order, floats at 17 significant digits."""
    return [_FMT.format(v) if isinstance(v, float) else v for v in _summary_row(result).values()]


def _write_csv(path, header, rows):
    """The one CSV writer of every export: ``header``, then ``rows`` as they are produced."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def export_results(result, format, path, kind="summary"):
    """Write an experiment to disk.

    ``kind="summary"`` is one aggregate row; ``kind="trace"`` is one row per
    run per iteration with the global best value.
    """
    _require_choice("format", format, ("csv", "json"))
    _require_choice("kind", kind, ("summary", "trace"))
    if kind == "summary":
        header, rows = SUMMARY_COLUMNS, [summary_csv_row(result)]
        payload, indent = _summary_row(result), 2
    else:
        header = ("run", "iteration", "best_fitness")
        rows = (
            (k, t, _FMT.format(value))
            for k, record in enumerate(result.records)
            for t, value in enumerate(record.trace.tolist())
        )
        runs = [
            {"run": k, "best_fitness_trace": r.trace.tolist()} for k, r in enumerate(result.records)
        ]
        payload, indent = {"runs": runs}, None
    if format == "csv":
        _write_csv(path, header, rows)
        return
    # encoded before the file is opened, so an encoding error leaves no partial file
    text = json.dumps(payload, indent=indent) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def export_search_history(result, path):
    """Raw per-agent positions: ``run,iteration,agent,dim0,dim1,...``."""
    for record in result.records:
        if record.positions is None:
            raise ValueError("positions were not recorded; enable record_positions")
    dim = result.records[0].positions.shape[2]
    # one (agents, dim) frame at a time, so no whole run is held as Python floats
    rows = (
        (k, t, a, *map(_FMT.format, agent))
        for k, record in enumerate(result.records)
        for t, frame in enumerate(record.positions)
        for a, agent in enumerate(frame.tolist())
    )
    _write_csv(path, ["run", "iteration", "agent"] + [f"dim{j}" for j in range(dim)], rows)


def compare(results):
    """Rows shaped like the benchmark tables, best mean flagged per objective.

    Returns a list of dicts; render with :func:`format_comparison`.
    """
    if len(results) < 2:
        raise ValueError("compare needs at least two experiment results")
    groups = {}
    for r in results:
        groups.setdefault(r.config.objective_id, []).append(dict(_summary_row(r), best=False))
    for group in groups.values():
        min(group, key=lambda row: row["mean"])["best"] = True
    return [row for group in groups.values() for row in group]


def format_comparison(rows):
    header = f"{'objective':<10} {'mode':<6} {'mean':>24} {'std':>24}  best"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['objective']:<10} {row['mode']:<6} "
            f"{row['mean']:>24.10e} {row['std']:>24.10e}  {'*' if row['best'] else ''}"
        )
    return "\n".join(lines)
