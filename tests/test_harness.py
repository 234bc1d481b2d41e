"""Tests for the experiment harness and result export."""

import csv
import io
import json

import numpy as np
import pytest

from fdopt import core, harness
from fdopt.core import FDO, IFDO
from fdopt.harness import (
    ExperimentConfig,
    compare,
    export_results,
    export_search_history,
    format_comparison,
    run_experiment,
)
from fdopt.objective import ObjectiveSpec, box
from fdopt.classical import sphere


def sphere_objective(dim=2):
    return ObjectiveSpec(id="SPH", bounds=box(dim, -1, 1), evaluator=sphere)


def small_config(runs=3, **kw):
    defaults = dict(
        objective_id="SPH", mode=IFDO, runs=runs, population=8, iterations=25, base_seed=0
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_single_run_aggregate():
    result = run_experiment(small_config(runs=1), sphere_objective())
    assert result.mean == result.records[0].best_fitness
    assert result.std == 0.0


def test_mean_and_sample_std():
    result = run_experiment(small_config(runs=5), sphere_objective())
    bests = result.final_bests
    assert result.mean == pytest.approx(np.mean(bests), abs=1e-15)
    assert result.std == pytest.approx(np.std(bests, ddof=1), abs=1e-15)


def test_determinism():
    a = run_experiment(small_config(), sphere_objective())
    b = run_experiment(small_config(), sphere_objective())
    np.testing.assert_array_equal(a.final_bests, b.final_bests)
    assert a.mean == b.mean and a.std == b.std


def test_rejects_a_config_for_another_objective(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_many", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="'TF1'.*'SPH'"):
        run_experiment(small_config(objective_id="TF1"), sphere_objective())
    assert ran == []


@pytest.mark.parametrize("runs", [1, 2, 3, 5])
def test_runs_advance_together_with_the_bits_of_each_run_alone(monkeypatch, runs):
    monkeypatch.setattr(harness, "run", lambda *args: pytest.fail("ran one after another"))
    config = small_config(runs=runs, base_seed=7, record_positions=True)
    result = run_experiment(config, sphere_objective())
    assert len(result.records) == runs
    for k, record in enumerate(result.records):
        alone = core.run(config.run_config(k), sphere_objective())
        assert record.trace.tobytes() == alone.trace.tobytes()
        assert record.best_position.tobytes() == alone.best_position.tobytes()
        assert record.positions.tobytes() == alone.positions.tobytes()
    # each run's wall time is its share of the batch's
    assert len({r.wall_time_s for r in result.records}) == 1


def test_runs_validation():
    with pytest.raises(ValueError):
        small_config(runs=0)


def test_bad_run_setting_fails_at_construction():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(objective_id="TF1", mode="nope")


@pytest.mark.parametrize(
    "setting, name",
    [(dict(runs=2.5), "runs"), (dict(runs=True), "runs"), (dict(base_seed=-1), "seed"),
     (dict(population=1.0), "population")],
)
def test_non_integer_or_negative_count_fails_at_construction(setting, name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(objective_id="TF1", mode=IFDO, **setting)


@pytest.mark.parametrize("flag", ["no", 0.5, None, 2])
def test_record_positions_that_is_not_a_bool_fails_at_construction(flag):
    with pytest.raises(ValueError, match="record_positions"):
        ExperimentConfig(objective_id="TF1", mode=IFDO, record_positions=flag)


def test_seed_derivation():
    config = small_config(base_seed=100)
    assert config.run_config(0).seed == 100
    assert config.run_config(7).seed == 107


def test_summary_csv_round_trip(tmp_path):
    result = run_experiment(small_config(), sphere_objective())
    path = tmp_path / "summary.csv"
    export_results(result, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["objective"] == "SPH"
    assert float(rows[0]["mean"]) == result.mean
    assert float(rows[0]["std"]) == result.std


def test_trace_csv_round_trip_exact(tmp_path):
    result = run_experiment(small_config(runs=2), sphere_objective())
    path = tmp_path / "trace.csv"
    export_results(result, "csv", path, kind="trace")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 25
    for row in rows:
        k, t = int(row["run"]), int(row["iteration"])
        assert float(row["best_fitness"]) == result.records[k].trace[t]


def test_trace_json_round_trip(tmp_path):
    result = run_experiment(small_config(runs=2), sphere_objective())
    path = tmp_path / "trace.json"
    export_results(result, "json", path, kind="trace")
    with open(path) as fh:
        payload = json.load(fh)
    assert len(payload["runs"]) == 2
    for entry in payload["runs"]:
        np.testing.assert_array_equal(
            entry["best_fitness_trace"], result.records[entry["run"]].trace
        )


def test_summary_json(tmp_path):
    result = run_experiment(small_config(), sphere_objective())
    path = tmp_path / "summary.json"
    export_results(result, "json", path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["mean"] == result.mean
    assert payload["runs"] == 3


def test_numpy_integer_counts_export_as_plain_integers(tmp_path):
    """A config counted in numpy integers writes the same summary as plain ints."""
    objective = sphere_objective()
    counts = dict(runs=2, population=5, iterations=3)
    plain = run_experiment(small_config(**counts), objective)
    numpy_counts = {name: np.int64(value) for name, value in counts.items()}
    result = run_experiment(small_config(**numpy_counts), objective)
    for format in ("csv", "json"):
        paths = [tmp_path / f"{name}.{format}" for name in ("plain", "numpy")]
        export_results(plain, format, paths[0])
        export_results(result, format, paths[1])
        assert paths[1].read_bytes() == paths[0].read_bytes()


def test_json_encoding_error_leaves_no_file(tmp_path, monkeypatch):
    result = run_experiment(small_config(runs=1), sphere_objective())
    monkeypatch.setattr(harness, "_summary_row", lambda result: {"runs": object()})
    path = tmp_path / "summary.json"
    with pytest.raises(TypeError):
        export_results(result, "json", path)
    assert not path.exists()


def test_export_argument_validation(tmp_path):
    result = run_experiment(small_config(runs=1), sphere_objective())
    with pytest.raises(ValueError):
        export_results(result, "xml", tmp_path / "x")
    with pytest.raises(ValueError):
        export_results(result, "csv", tmp_path / "x", kind="nope")


def test_export_io_error(tmp_path):
    result = run_experiment(small_config(runs=1), sphere_objective())
    with pytest.raises(OSError):
        export_results(result, "csv", tmp_path / "missing" / "out.csv")
    with pytest.raises(OSError, match="failed to write"):
        export_results(result, "json", tmp_path / "missing" / "out.json")


def test_mean_recomputed_from_trace_export(tmp_path):
    result = run_experiment(small_config(runs=4), sphere_objective())
    path = tmp_path / "trace.csv"
    export_results(result, "csv", path, kind="trace")
    finals = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            finals[int(row["run"])] = float(row["best_fitness"])
    assert np.mean(list(finals.values())) == pytest.approx(result.mean, abs=1e-12)


def test_search_history_row_count(tmp_path):
    config = small_config(runs=1, population=10, iterations=150, record_positions=True)
    result = run_experiment(config, sphere_objective())
    path = tmp_path / "history.csv"
    export_search_history(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "iteration", "agent", "dim0", "dim1"]
    assert len(rows) - 1 == 10 * 150


# floats whose text is easy to get wrong: signed zero, the least subnormal, exponent forms
# on both sides, a value 17 digits do not end, NaN and the infinities
AWKWARD = [-0.0, 5e-324, 1e22, 1e-7, 0.1, np.nan, np.inf, -np.inf]


def _csv_writer_bytes(header, rows):
    """What ``csv.writer`` writes for ``rows``, the form the exports had before
    their numeric rows were preformatted."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _hand_built_result(traces, positions):
    """An ExperimentResult over the given (runs, iterations) traces and
    (runs, iterations, agents, dim) positions."""
    records = [
        core.RunRecord(
            trace=trace, best_position=block[-1, 0], wall_time_s=0.0, positions=block,
        )
        for trace, block in zip(traces, positions)
    ]
    runs, iterations, agents, _ = positions.shape
    config = small_config(runs=runs, population=agents, iterations=iterations)
    return harness.ExperimentResult(config=config, records=records)


def _assert_history_is_csv_writer_over_every_row(path, positions):
    """The history at ``path`` has the bytes of ``csv.writer`` over
    ``"{:.17g}".format`` of every row, and every float reads back bit for bit."""
    old = "{:.17g}".format
    history_rows = [
        (k, t, a, *map(old, agent))
        for k, run in enumerate(positions.tolist())
        for t, frame in enumerate(run)
        for a, agent in enumerate(frame)
    ]
    header = ["run", "iteration", "agent"] + [f"dim{j}" for j in range(positions.shape[3])]
    assert path.read_bytes() == _csv_writer_bytes(header, history_rows)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [tuple(map(int, row[:3])) for row in rows] == [row[:3] for row in history_rows]
    assert np.array([[float(v) for v in row[3:]] for row in rows]).tobytes() == positions.tobytes()


@pytest.mark.parametrize("dim", [1, 10])
def test_trace_and_history_csvs_have_the_bytes_of_csv_writer(tmp_path, dim):
    """Hand-built records with awkward floats and multi-digit run, iteration and
    agent indices: the bytes equal ``csv.writer`` over ``"{:.17g}".format``, and
    every float reads back bit for bit."""
    runs, iterations, agents = 11, 12, 11
    rng = np.random.default_rng(dim)

    def draw(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[:len(AWKWARD)] = AWKWARD
        return values

    traces, positions = draw(runs, iterations), draw(runs, iterations, agents, dim)
    result = _hand_built_result(traces, positions)
    trace_path, history_path = tmp_path / "trace.csv", tmp_path / "history.csv"
    export_results(result, "csv", trace_path, kind="trace")
    export_search_history(result, history_path)

    old = "{:.17g}".format
    trace_rows = [
        (k, t, old(v)) for k, trace in enumerate(traces.tolist()) for t, v in enumerate(trace)
    ]
    trace_header = ("run", "iteration", "best_fitness")
    assert trace_path.read_bytes() == _csv_writer_bytes(trace_header, trace_rows)
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(k), int(t)) for k, t, _ in rows] == [row[:2] for row in trace_rows]
    assert np.array([float(v) for *_, v in rows]).tobytes() == traces.tobytes()
    _assert_history_is_csv_writer_over_every_row(history_path, positions)


@pytest.mark.parametrize("dim", [1, 10])
def test_search_history_reformats_exactly_the_agents_whose_bits_changed(tmp_path, dim):
    """Rows reused across iterations: agent 0 never moves, agent 1 flips a
    coordinate between 0.0 and -0.0 (equal as floats, not as bits), agent 2
    stays NaN, agent 3 moves only in the last iteration and agent 4 every
    third one; each run starts from the frame the run before ended on."""
    runs, iterations, agents = 3, 9, 5
    rng = np.random.default_rng(100 + dim)
    positions = np.empty((runs, iterations, agents, dim))
    frame = rng.standard_normal((agents, dim))
    frame[1, 0], frame[2] = 0.0, np.nan
    for k in range(runs):
        for t in range(iterations):
            if t:
                frame[1, 0] = -frame[1, 0]
                if t == iterations - 1:
                    frame[3] = rng.standard_normal(dim)
                if t % 3 == 0:
                    frame[4] = rng.standard_normal(dim)
            positions[k, t] = frame
    assert positions[1:, 0].tobytes() == positions[:-1, -1].tobytes()
    result = _hand_built_result(np.zeros((runs, iterations)), positions)
    path = tmp_path / "history.csv"
    export_search_history(result, path)
    _assert_history_is_csv_writer_over_every_row(path, positions)


def test_summary_csv_quotes_the_objective_id(tmp_path):
    """The id is the one free-text field of an export; ``csv.writer`` quotes it."""
    name = 'S,"P"'
    objective = ObjectiveSpec(id=name, bounds=box(2, -1, 1), evaluator=sphere)
    result = run_experiment(
        small_config(objective_id=name, runs=1, population=4, iterations=3), objective
    )
    path = tmp_path / "summary.csv"
    export_results(result, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["objective"] for row in rows] == [name]
    assert float(rows[0]["mean"]) == result.mean


def test_search_history_requires_positions(tmp_path):
    result = run_experiment(small_config(runs=1), sphere_objective())
    path = tmp_path / "history.csv"
    with pytest.raises(ValueError):
        export_search_history(result, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "run, bad",
    [
        (1, np.zeros((4, 3, 3))),  # another dim
        (2, np.zeros((4, 5, 2))),  # another agent count
        (0, np.zeros((4, 3))),  # no agent axis
        (1, np.zeros((4, 3, 2), dtype=np.float32)),
        (1, [[[0.0, 0.0]] * 3] * 4),  # a list, not an array
    ],
    ids=["dim", "agents", "2d", "float32", "list"],
)
def test_search_history_rejects_a_bad_record_before_writing(tmp_path, run, bad):
    """A run whose positions are not float64 (iterations, agents, dim) with run
    0's agents and dim is named in the error, and no file is left behind."""
    result = _hand_built_result(np.zeros((3, 4)), np.zeros((3, 4, 3, 2)))
    result.records[run].positions = bad
    path = tmp_path / "history.csv"
    with pytest.raises(ValueError, match=f"run {run}"):
        export_search_history(result, path)
    assert not path.exists()


def test_compare_flags_best():
    objective = sphere_objective()
    a = run_experiment(small_config(mode=FDO), objective)
    b = run_experiment(small_config(mode=IFDO), objective)
    rows = compare([a, b])
    assert len(rows) == 2
    flagged = [r for r in rows if r["best"]]
    assert len(flagged) == 1
    assert flagged[0]["mean"] == min(a.mean, b.mean)
    table = format_comparison(rows)
    assert "SPH" in table and "*" in table


def test_compare_needs_two():
    result = run_experiment(small_config(runs=1), sphere_objective())
    with pytest.raises(ValueError):
        compare([result])


def test_compare_groups_by_objective():
    sph = sphere_objective()
    other = ObjectiveSpec(id="SPH3", bounds=box(3, -1, 1), evaluator=sphere)
    rows = compare(
        [
            run_experiment(small_config(mode=FDO), sph),
            run_experiment(small_config(mode=IFDO), sph),
            run_experiment(small_config(objective_id="SPH3"), other),
        ]
    )
    assert len(rows) == 3
    assert sum(r["best"] for r in rows) == 2  # one winner per objective


def test_compare_keeps_first_seen_objective_order():
    sph = sphere_objective()
    other = ObjectiveSpec(id="SPH3", bounds=box(3, -1, 1), evaluator=sphere)
    interleaved = [
        run_experiment(small_config(mode=FDO), sph),
        run_experiment(small_config(objective_id="SPH3", mode=FDO), other),
        run_experiment(small_config(mode=IFDO), sph),
        run_experiment(small_config(objective_id="SPH3", mode=IFDO), other),
    ]
    rows = compare(interleaved)
    assert [(r["objective"], r["mode"]) for r in rows] == [
        ("SPH", FDO), ("SPH", IFDO), ("SPH3", FDO), ("SPH3", IFDO)
    ]
    for group in (rows[:2], rows[2:]):
        assert [r["best"] for r in group].count(True) == 1
        assert next(r for r in group if r["best"])["mean"] == min(r["mean"] for r in group)
    # equal means: the first in input order is the best
    tied = compare([interleaved[0], interleaved[0]])
    assert [r["best"] for r in tied] == [True, False]
