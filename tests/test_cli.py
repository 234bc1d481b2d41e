"""Tests for the command-line frontend, driven in-process through main()."""

import csv
import os

import pytest

from fdopt.cli import IO_ERROR, USAGE_ERROR, main

FAST = ["--agents", "5", "--iters", "10"]


def test_run_prints_summary(capsys):
    code = main(["run", "--function", "TF1", "--algo", "ifdo", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "TF1 ifdo" in out
    assert "mean=" in out and "std=" in out


def test_run_unknown_function(capsys):
    code = main(["run", "--function", "NOPE", "--algo", "ifdo"])
    assert code == USAGE_ERROR
    assert "unknown objective" in capsys.readouterr().err


def test_run_unknown_algorithm(capsys):
    code = main(["run", "--function", "TF1", "--algo", "nope"])
    assert code == USAGE_ERROR


def test_missing_required_flag(capsys):
    assert main(["run", "--algo", "ifdo"]) == USAGE_ERROR
    assert main([]) == USAGE_ERROR


def test_run_deterministic_stdout(capsys):
    argv = ["run", "--function", "TF9", "--algo", "fdo", "--seed", "7", *FAST]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_run_output_files(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    trace = tmp_path / "trace.csv"
    history = tmp_path / "history.csv"
    code = main(
        ["run", "--function", "TF1", "--algo", "ifdo", "--runs", "2", *FAST,
         "--out", str(out), "--trace", str(trace), "--history", str(history)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1
    with open(trace, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2 * 10
    with open(history, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 2 * 10 * 5


def test_run_output_files_byte_identical(tmp_path, capsys):
    outputs = []
    for attempt in ("a", "b"):
        paths = [tmp_path / f"{kind}-{attempt}.csv" for kind in ("summary", "trace", "history")]
        argv = ["run", "--function", "TF9", "--algo", "ifdo", "--runs", "2", "--seed", "4", *FAST]
        for flag, path in zip(("--out", "--trace", "--history"), paths):
            argv += [flag, str(path)]
        assert main(argv) == 0
        outputs.append([path.read_bytes() for path in paths])
    assert outputs[0] == outputs[1]


def test_run_io_error(tmp_path, capsys):
    code = main(
        ["run", "--function", "TF1", "--algo", "ifdo", *FAST,
         "--out", str(tmp_path / "no" / "dir" / "x.csv")]
    )
    assert code == IO_ERROR


@pytest.mark.parametrize("target", ["missing-directory", "directory", "no-permission"])
@pytest.mark.parametrize("flag", ["--out", "--trace", "--history"])
def test_run_checks_its_export_paths_before_any_run(flag, target, tmp_path, monkeypatch, capsys):
    from fdopt import cli, harness

    monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("an experiment ran"))
    bad = {
        "missing-directory": tmp_path / "nonexistent" / "x.csv",
        "directory": tmp_path,
        "no-permission": tmp_path / "locked" / "x.csv",
    }[target]
    if target == "no-permission":
        # the check asks os.access, which grants a superuser everything
        locked = str(bad.parent)
        access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != locked and access(path, mode))
        bad.parent.mkdir()
    paths = {f: tmp_path / f"{f[2:]}.csv" for f in ("--out", "--trace", "--history")}
    paths[flag] = bad
    argv = ["run", "--function", "TF1", "--algo", "ifdo", "--runs", "3", *FAST]
    code = main(argv + [a for f, path in paths.items() for a in (f, str(path))])
    assert code == IO_ERROR
    captured = capsys.readouterr()
    assert str(bad) in captured.err and captured.out == ""
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError("Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000)"),
      "error: Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000)"),
     (MemoryError(), "error: MemoryError")],
    ids=["numpy-message", "bare"],
)
def test_run_out_of_memory_is_an_environment_error(error, message, monkeypatch, capsys):
    # the run is stubbed: a real allocation of that size may succeed under
    # overcommit and then never end
    from fdopt import harness

    def run_experiment(*args):
        raise error

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    argv = ["run", "--function", "TF1", "--algo", "ifdo", "--iters", "1000000000000",
            "--agents", "2"]
    assert main(argv) == IO_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "first, second, spelling",
    [("--out", "--trace", "same.csv"), ("--trace", "--history", "./same.csv"),
     ("--out", "--history", "sub/../same.csv")],
)
def test_run_refuses_two_exports_to_one_file(first, second, spelling, tmp_path, monkeypatch,
                                             capsys):
    from fdopt import harness

    monkeypatch.setattr(
        harness, "run_experiment", lambda *args: pytest.fail("an experiment ran")
    )
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--function", "TF1", "--algo", "ifdo", *FAST,
            first, str(tmp_path / "same.csv"), second, spelling]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {first} and {second} name the same file {spelling}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_list_catalog(capsys):
    code = main(["list"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert sum(1 for line in out if line.startswith("TF")) == 19
    assert sum(1 for line in out if line.startswith("CEC")) == 10
    assert any(line.startswith("ANTENNA") for line in out)
    assert any(line.startswith("EVAC") for line in out)
    tf5 = next(line for line in out if line.startswith("TF5 "))
    assert "[-30, 30]" in tf5


def test_compare_two_rows(capsys):
    code = main(["compare", "--function", "TF1", "--runs", "2", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("TF1") == 2
    assert "fdo" in out and "ifdo" in out


def test_bench_partial_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--suite", "cec2019", "--runs", "1", "--agents", "4", "--iters", "3",
         "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10 * 2
    assert {row["mode"] for row in rows} == {"fdo", "ifdo"}


def test_bench_leaves_each_finished_row_on_disk(tmp_path, monkeypatch, capsys):
    """README's promise: a suite that stops early leaves its finished rows
    on disk, since each row is flushed as its experiment ends.  So before
    experiment k starts, the table holds k data rows."""
    from fdopt import harness

    out, seen = tmp_path / "bench.csv", []
    run_experiment = harness.run_experiment

    def spy(config, objective):
        with open(out, newline="") as fh:
            seen.append(len(list(csv.DictReader(fh))))
        return run_experiment(config, objective)

    monkeypatch.setattr(harness, "run_experiment", spy)
    argv = ["bench", "--suite", "cec2019", "--runs", "1", "--agents", "4", "--iters", "3",
            "--out", str(out)]
    assert main(argv) == 0
    assert seen == list(range(20))


def test_bench_unwritable_out_is_an_io_error_before_any_experiment(tmp_path, monkeypatch, capsys):
    from fdopt import harness

    monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("an experiment ran"))
    bad = tmp_path / "nonexistent" / "bench.csv"
    assert main(["bench", "--suite", "cec2019", "--out", str(bad)]) == IO_ERROR
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "Traceback" not in captured.err and captured.out == ""


def test_antenna_smoke(capsys):
    code = main(["antenna", "--algo", "ifdo", "--seed", "1", "--agents", "8", "--iters", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "element positions:" in out
    assert "first-best iteration:" in out
    positions = out.splitlines()[0].split(":")[1].split()
    assert len([p for p in positions if p != "INFEASIBLE"]) == 4


def test_evac_smoke(capsys):
    code = main(
        ["evac", "--count", "15", "--algo", "ifdo", "--agents", "8", "--iters", "20"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exit coordinates:" in out
    assert "mean evacuation time:" in out


def test_evac_scenario_file(tmp_path, capsys):
    from fdopt.applications import build_scenario, save_scenario

    path = tmp_path / "scene.txt"
    save_scenario(build_scenario(20.0, 10.0, 12, seed=3), path)
    code = main(["evac", "--scenario-file", str(path), "--agents", "6", "--iters", "15"])
    assert code == 0
    assert "exit arclength:" in capsys.readouterr().out


def test_evac_scenario_file_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "scene.txt"
    path.write_bytes(b"\xef\xbb\xbfarea 10 10\n1 2 1\n")
    assert main(["evac", "--scenario-file", str(path), *FAST]) == 0
    assert "exit arclength:" in capsys.readouterr().out


def test_evac_missing_scenario_file(capsys):
    code = main(["evac", "--scenario-file", "/nonexistent/scene.txt"])
    assert code == IO_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--function", "TF1", "--algo", "ifdo", "--agents", "0"],
        ["run", "--function", "TF1", "--algo", "ifdo", "--agents", "-3"],
        ["run", "--function", "TF1", "--algo", "ifdo", "--iters", "0"],
        ["run", "--function", "TF1", "--algo", "ifdo", "--runs", "0"],
        ["run", "--function", "TF1", "--algo", "ifdo", "--agents", "many"],
        ["bench", "--suite", "cec2019", "--runs", "0"],
        ["compare", "--function", "TF1", "--agents", "0"],
        ["antenna", "--iters", "-1"],
        ["evac", "--count", "0"],
    ],
)
def test_non_positive_counts_are_usage_errors(argv, capsys):
    assert main(argv) == USAGE_ERROR
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--function", "TF1", "--algo", "ifdo", "--seed", "-1"],
        ["run", "--function", "TF1", "--algo", "ifdo", "--seed", "1.5"],
        ["bench", "--suite", "cec2019", "--seed", "-7"],
        ["compare", "--function", "TF1", "--seed", "-1"],
        ["antenna", "--seed", "-1"],
        ["evac", "--seed", "-1"],
        ["evac", "--scenario-seed", "-1"],
        ["evac", "--scenario-seed", "seed"],
    ],
)
def test_negative_seeds_are_usage_errors(argv, capsys):
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "error: argument --" in err and "seed" in err.splitlines()[-1]
    assert "Traceback" not in err


def test_zero_seed_is_accepted(capsys):
    assert main(["run", "--function", "TF1", "--algo", "ifdo", "--seed", "0", *FAST]) == 0
    assert main(["evac", "--scenario-seed", "0", "--count", "3", *FAST]) == 0


@pytest.mark.parametrize(
    "body, message",
    [
        ("area 10 10\n1 2\n", ":2: expected 3 finite numbers"),
        ("area 10 10\n1 2 1\n3 4 fast\n", ":3: expected 3 finite numbers"),
        ("area 10 10\n1 2 nan\n", ":2: expected 3 finite numbers"),
        ("area 10 10\n", "no pedestrian rows"),
        ("", ":1: expected header"),
        ("room 10 10\n1 2 1\n", ":1: expected header"),
        ("area 10\n1 2 1\n", ":1: expected 2 finite numbers"),
        ("area 10 10\n1 20 1\n", "outside the area"),
        ("area 10 10\n1 2 -1\n", "speeds must be positive"),
        ("area 1e308 1e308\n1 2 1\n", "finite perimeter"),
        ("\xff\xfearea 10 10\n1 2 1\n", "can't decode"),
    ],
)
def test_evac_malformed_scenario_file(tmp_path, capsys, body, message):
    path = tmp_path / "scene.txt"
    # latin-1 writes each character as one byte, so a body can hold non-UTF-8 bytes
    path.write_bytes(body.encode("latin-1"))
    assert main(["evac", "--scenario-file", str(path), *FAST]) == USAGE_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}") and message in err[0]


@pytest.mark.parametrize(
    "area",
    [["--width", "-5"], ["--height", "0"], ["--width", "inf"],
     ["--width", "1e308", "--height", "1e308"]],
)
def test_evac_invalid_area(area, capsys):
    assert main(["evac", *area, *FAST]) == USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: area width and height")


COMMON = ["--agents", "3", "--iters", "2", "--runs", "2", "--seed", "5",
          "--wf-scope", "swarm", "--fdo-wf", "1.0"]


@pytest.mark.parametrize(
    "argv, expected, record_positions",
    [
        (["run", "--function", "TF1", "--algo", "fdo"], [("TF1", "fdo")], False),
        (["run", "--function", "TF1", "--algo", "ifdo", "--history", "{tmp}/h.csv"],
         [("TF1", "ifdo")], True),
        (["compare", "--function", "TF9"], [("TF9", "fdo"), ("TF9", "ifdo")], False),
        (["bench", "--suite", "cec2019"],
         [(f"CEC{i:02d}", mode) for i in range(1, 11) for mode in ("fdo", "ifdo")], False),
        (["antenna", "--algo", "fdo"], [("ANTENNA", "fdo")], False),
        (["evac", "--algo", "fdo", "--count", "5"], [("EVAC", "fdo")], False),
    ],
    ids=["run", "run-history", "compare", "bench", "antenna", "evac"],
)
def test_common_flags_reach_every_experiment(
    argv, expected, record_positions, tmp_path, monkeypatch, capsys
):
    from fdopt import harness

    configs = []
    run_experiment = harness.run_experiment

    def spy(config, objective):
        configs.append(config)
        return run_experiment(config, objective)

    monkeypatch.setattr(harness, "run_experiment", spy)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv + COMMON) == 0
    assert [(c.objective_id, c.mode) for c in configs] == expected
    for config in configs:
        assert (config.population, config.iterations, config.runs) == (3, 2, 2)
        assert (config.base_seed, config.wf_scope, config.fdo_wf) == (5, "swarm", 1.0)
        assert config.record_positions is record_positions
