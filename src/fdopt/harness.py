"""Experiment harness: repeated runs, mean/std aggregation and result export.

Run k of an experiment uses seed ``base_seed + k`` so any single run can be
reconstructed in isolation.  Exports use 17-significant-digit decimals so
64-bit floats round-trip exactly.
"""

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import core
from .core import RunConfig, _require_choice, _require_int, run_many

# no experiment calls ``run``; bench/spans.py times ``harness.run`` and needs the name
run = core.run

_FMT = "%.17g"
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

    The runs advance together in ``core.run_many``, one swarm per seed of
    ``base_seed`` .. ``base_seed + runs - 1``; run k has the bits
    ``core.run`` gives ``config.run_config(k)`` alone.
    """
    if config.objective_id != objective.id:
        raise ValueError(
            f"config is for objective {config.objective_id!r}, got objective {objective.id!r}"
        )
    records = run_many(config.run_config(0), config.runs, objective)
    return ExperimentResult(config=config, records=records)


def _summary_row(result):
    c = result.config
    # numpy integers are valid counts, but json cannot encode them
    counts = (int(c.runs), int(c.population), int(c.iterations))
    values = (c.objective_id, c.mode, *counts, result.mean, result.std)
    return dict(zip(SUMMARY_COLUMNS, values))


def summary_csv_row(result):
    """One summary CSV row in ``SUMMARY_COLUMNS`` order, floats at 17 significant digits."""
    return [_FMT % v if isinstance(v, float) else v for v in _summary_row(result).values()]


def _line_template(ints, floats):
    """One numeric CSV row as a ``%`` template: ``ints`` integers, then ``floats`` floats.

    ``csv.writer`` quotes neither an integer nor a 17-digit float and ends a
    row in ``\r\n``, so a filled template has the bytes it would write.
    """
    return ",".join(["%d"] * ints + [_FMT] * floats) + "\r\n"


def _write_csv(path, header, rows=(), lines=()):
    """The one CSV writer of every export and of ``fdopt bench``'s table:
    ``header`` and ``rows`` through ``csv.writer``, which quotes free text,
    then the preformatted ``lines``, each as it is produced.  Each row is
    flushed, so a stream of rows that stops early leaves the finished ones
    on disk."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
                fh.flush()
            fh.writelines(lines)
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
        header, rows, lines = SUMMARY_COLUMNS, [summary_csv_row(result)], ()
        payload, indent = _summary_row(result), 2
    else:
        header, rows, line = ("run", "iteration", "best_fitness"), (), _line_template(2, 1)
        lines = (
            "".join(line % (k, t, value) for t, value in enumerate(record.trace.tolist()))
            for k, record in enumerate(result.records)
        )
        runs = [
            {"run": k, "best_fitness_trace": r.trace.tolist()} for k, r in enumerate(result.records)
        ]
        payload, indent = {"runs": runs}, None
    if format == "csv":
        _write_csv(path, header, rows, lines)
        return
    # encoded before the file is opened, so an encoding error leaves no partial file
    text = json.dumps(payload, indent=indent) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def _history_lines(blocks, dim):
    """One string per run and iteration, its agents' rows ``k,t,a,<coordinates>``.

    An agent's ``a,<coordinates>`` text is formatted again only when the bits
    of its position differ from the iteration before (so ``0.0 -> -0.0`` is
    a change and a NaN that stays NaN is not); other agents reuse theirs.
    """
    tail = _line_template(1, dim)
    for k, block in enumerate(blocks):
        bits = block.view(np.uint64)
        # changed[t, a]: agent a's bits differ from iteration t - 1; all of the first frame is new
        changed = np.ones(block.shape[:2], bool)
        np.any(bits[1:] != bits[:-1], axis=2, out=changed[1:])
        # rows[0] stays "", so joining on "k,t," puts that prefix before every agent's text
        rows = [""] * (block.shape[1] + 1)
        for t, any_moved in enumerate(changed.any(axis=1).tolist()):
            if any_moved:
                moved = np.flatnonzero(changed[t]).tolist()
                # one frame's moved agents as Python floats, never a whole run
                for a, agent in zip(moved, block[t, moved].tolist()):
                    rows[a + 1] = tail % (a, *agent)
            yield f"{k},{t},".join(rows)


def export_search_history(result, path):
    """Raw per-agent positions: ``run,iteration,agent,dim0,dim1,...``.

    Every run's positions are checked before the file is opened, so a bad
    record leaves no partial file.
    """
    blocks = [record.positions for record in result.records]
    if any(block is None for block in blocks):
        raise ValueError("positions were not recorded; enable record_positions")
    for k, block in enumerate(blocks):
        if not isinstance(block, np.ndarray):
            raise ValueError(f"run {k}: positions must be a numpy array, got {type(block).__name__}")
        # float64 also makes the uint64 view of ``_history_lines`` the position bits
        if block.dtype != np.float64 or block.ndim != 3 or block.shape[1:] != blocks[0].shape[1:]:
            raise ValueError(
                f"run {k}: positions must be float64 (iterations, agents, dim) with run 0's "
                f"agents and dim, got {block.dtype} of shape {block.shape}"
            )
    dim = blocks[0].shape[2]
    header = ["run", "iteration", "agent"] + [f"dim{j}" for j in range(dim)]
    _write_csv(path, header, lines=_history_lines(blocks, dim))


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
