"""Tiny-size checks of the benchmark itself: python3 -m pytest -q bench

Each test runs bench/run.py in a fresh interpreter, as the benchmark is
meant to be run, with a few iterations of one run per workload.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = ["--seconds", "0", "--iterations", "8", "--runs", "1"]

# the exact counts later changes may cite; they must repeat for a seed.
# harness.export_results_bytes is not one: the summary CSV holds the
# experiment's wall time, so its size can differ by a byte between runs.
COUNTS = [
    "core.step_calls", "core.neighborhood_calls", "core.enforce_bounds_calls",
    "core.bound_repairs", "core.scout_steps", "core.accepted_moves",
    "core.second_chance_evals", "objective.evaluate_calls", "objective.nonfinite_calls",
    "harness.export_search_history_bytes", "trace.spans",
]


def bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", *TINY, *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_seed3():
    return bench("--seed", "3", "--trace", "1")


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(trace, names, traced_seed3):
    stdout, line = traced_seed3 if trace else bench("--seed", "3", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    # one run per workload, and with --trace 1 the traced repetition too
    assert line["attempted"] == (1 + trace) * len(WORKLOADS)
    expected = {f"{w}/{name}": unit for w in WORKLOADS for name, unit in names.items()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for workload in WORKLOADS:
        assert f"== {workload}:" in stdout
    for name in ("wall_s", "run_s_median", "evals_per_s", "setup_s", "peak_rss_mb",
                 "final_best_median", "failed_runs_frac"):
        assert stdout.count(f"  {name} ") == len(WORKLOADS)


def test_layers_separate_as_predicted(traced_seed3):
    m = {k: v["value"] for k, v in traced_seed3[1]["metrics"].items()}
    assert m["sphere-ifdo/core.neighborhood_calls"] > 0
    assert m["antenna-fdo/core.neighborhood_calls"] == 0
    for w in ("sphere-ifdo", "antenna-fdo"):
        assert m[f"{w}/harness.export_search_history_bytes"] == 0
        assert m[f"{w}/cli.main_self_s"] == 0
    assert m["rastrigin-cli-export/harness.export_search_history_bytes"] > 0
    assert m["rastrigin-cli-export/harness.export_results_bytes"] > 0
    for w in WORKLOADS:
        assert 0.9 < m[f"{w}/trace.coverage"] <= 1.0


def test_counts_repeat_for_a_seed_and_differ_for_another(traced_seed3):
    def counts(line):
        return {k: v["value"] for k, v in line["metrics"].items() if k.split("/")[1] in COUNTS}

    first = counts(traced_seed3[1])
    assert counts(bench("--seed", "3", "--trace", "1")[1]) == first
    other = counts(bench("--seed", "4", "--trace", "1")[1])
    for w in WORKLOADS:
        mine = {k: v for k, v in first.items() if k.startswith(w + "/")}
        assert mine != {k: other[k] for k in mine}, w


def test_fails_without_the_program_sources(tmp_path):
    bare = tmp_path / "bench"
    bare.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (bare / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "sphere-ifdo", *TINY],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
