#!/usr/bin/env python3
"""fdopt benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload sphere-ifdo --seed 1 --seconds 20 --trace 0

Runs in one process and one thread, closed loop: each repetition of the
workload starts when the previous one ends, until ``--seconds`` have passed
(at least one repetition); each repetition runs its own seeds, and its time
is scaled to a reference machine speed sampled while it runs.  After the
untraced repetitions, the seeds of the first one run again with every
layer wrapped in spans; that gives the exact counts and the per-layer
split.  Every repetition is checked for correctness.

Prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn.  See README.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported, so the load stays on the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "fdopt", "__init__.py")):
    sys.exit(f"error: no fdopt sources at {os.path.join(SRC, 'fdopt')}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fdopt  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Operation, check_rebuilt, check_repetition  # noqa: E402

if os.path.dirname(os.path.abspath(fdopt.__file__)) != os.path.join(SRC, "fdopt"):
    sys.exit(f"error: fdopt was imported from {fdopt.__file__}, not from {SRC}")

SETUP_SAMPLES = 9
SETUP_KERNELS = 30
MAX_REPETITIONS = 1000
WARMUP_ITERATIONS = 5
# a typical time of calibration_kernel() on the machine the baseline was
# taken on; the gated times are reported as if the machine ran at that speed
REFERENCE_KERNEL_S = 0.0002

# time `import fdopt` and the objective lookup in a fresh interpreter
_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import fdopt
t1 = time.perf_counter()
fdopt.get_objective(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""

END_TO_END = {
    "wall_s": "s",
    "run_s_median": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "raw.wall_s": "s",
    "raw.run_s_median": "s",
    "raw.setup_s": "s",
    "speed.factor_median": "ratio",
    "setup.import_s": "s",
    "registry.get_objective_s": "s",
    "core.init_population_s": "s",
    "core.step_calls": "count",
    "core.step_self_s": "s",
    "core.neighborhood_s": "s",
    "core.neighborhood_calls": "count",
    "core.neighbor_count_mean": "count",
    "core.pace_proposal_s": "s",
    "core.enforce_bounds_s": "s",
    "core.enforce_bounds_calls": "count",
    "core.bound_repairs": "count",
    "core.bound_repair_ratio": "ratio",
    "core.update_weight_factor_s": "s",
    "core.scout_steps": "count",
    "core.accepted_moves": "count",
    "core.second_chance_evals": "count",
    "core.accept_ratio": "ratio",
    "core.second_chance_ratio": "ratio",
    "objective.evaluate_s": "s",
    "objective.evaluate_calls": "count",
    "objective.evaluate_us": "us",
    "objective.nonfinite_calls": "count",
    "harness.run_self_s": "s",
    "harness.run_experiment_self_s": "s",
    "harness.export_results_s": "s",
    "harness.export_results_bytes": "B",
    "harness.export_search_history_s": "s",
    "harness.export_search_history_bytes": "B",
    "cli.main_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "quality.final_best_median": "value",
}

# the span names whose self time makes up each timed layer metric
LAYER_SPANS = {
    "registry.get_objective_s": ["registry.get_objective"],
    "core.init_population_s": ["core.init_population"],
    "core.step_self_s": ["core.step"],
    "core.neighborhood_s": ["core.neighborhood"],
    "core.pace_proposal_s": [
        "core.compute_fitness_weight", "core.compute_pace", "core.levy_random",
        "core.propose_position",
    ],
    "core.enforce_bounds_s": ["core.enforce_bounds"],
    "core.update_weight_factor_s": ["core.update_weight_factor"],
    "objective.evaluate_s": ["objective.evaluate"],
    "harness.run_self_s": ["harness.run"],
    "harness.run_experiment_self_s": ["harness.run_experiment"],
    "harness.export_results_s": ["harness.export_results"],
    "harness.export_search_history_s": ["harness.export_search_history"],
    "cli.main_self_s": ["cli.main"],
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def calibration_kernel():
    """Seconds taken by a fixed piece of work that shares no code with fdopt.

    It does the kinds of work fdopt's hot loops do: one transcendental
    numpy pattern over 600 angles (like the antenna objective), then many
    small-vector numpy calls and some Python arithmetic (like the engine).
    So it slows down with the machine and not with a change to fdopt.
    """
    x, total = _KERNEL_X, 0.0
    t0 = time.perf_counter()
    pattern = np.cos(np.outer(_KERNEL_U, x * (2.0 * np.pi)))
    total += float(np.max(20.0 * np.log10(np.abs(pattern.sum(axis=1)) + 1e-300)))
    for _ in range(12):
        delta = x - _KERNEL_X
        total += float(np.sqrt(delta @ delta))
        x = np.clip(x * 1.0001 + 1e-4, _KERNEL_LOWER, _KERNEL_UPPER)
        for j in range(8):
            total += j * j
    return time.perf_counter() - t0


_KERNEL_U = np.cos(np.radians(np.arange(0.0, 180.0, 0.3)))
_KERNEL_X = np.array([0.3, 0.7, 1.1, 1.6, 2.2])
_KERNEL_LOWER, _KERNEL_UPPER = np.zeros(5), np.full(5, 3.0)


class SpeedSampler:
    """Samples the machine's speed all through a timed stretch of work.

    A shared VM changes speed by itself: on the 2-core VM of the baseline a
    fixed kernel took anywhere from 1x to 1.8x its fastest time within a
    minute, in spells from a fraction of a second to tens of seconds.
    Inside the ``with`` block a SIGALRM handler runs ``calibration_kernel()``
    every ``INTERVAL_S`` seconds of wall time on average; each interval is
    drawn from 0.6 to 1.4 times that, so the samples do not lock onto a
    periodic disturbance.  ``spent`` is the handlers' own time, to subtract
    from the stretch, and ``factor()`` turns the rest into time at the
    reference speed.  Fewer than ``MIN_SAMPLES`` samples (a very short
    stretch) are topped up right after it.
    """

    INTERVAL_S = 0.005
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._active = False
        self._intervals = random.Random(0)
        self._previous = None

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S * self._intervals.uniform(0.6, 1.4))

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_kernel())
        self.spent += time.perf_counter() - t0
        if self._active:
            self._arm()

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        self._arm()
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < self.MIN_SAMPLES:
            self.samples.append(calibration_kernel())
        return False

    def factor(self):
        return speed_factor(self.samples)


def speed_factor(samples):
    """Multiply a raw time by this to get it at the reference speed.

    Work done is time x speed, and the speed at a sample is
    REFERENCE_KERNEL_S over the kernel's time, so the factor is the mean of
    those ratios over samples evenly spaced in time.
    """
    return statistics.fmean(REFERENCE_KERNEL_S / c for c in samples)


def measure_setup(objective_id):
    """Set-up over fresh interpreters: medians of import, lookup, their sum
    and of the sum at the reference speed.  Set-up runs in another process,
    so its speed is sampled right before and right after it."""
    imports, lookups, scaled = [], [], []
    for _ in range(SETUP_SAMPLES):
        before = [calibration_kernel() for _ in range(SETUP_KERNELS)]
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, SRC, objective_id],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        after = [calibration_kernel() for _ in range(SETUP_KERNELS)]
        import_s, lookup_s = json.loads(done.stdout)
        imports.append(import_s)
        lookups.append(lookup_s)
        scaled.append((import_s + lookup_s) * speed_factor(before + after))
    return (
        statistics.median(imports),
        statistics.median(lookups),
        statistics.median(a + b for a, b in zip(imports, lookups)),
        statistics.median(scaled),
    )


def layer_metrics(summary):
    """Per-layer numbers of the traced repetition from its span summary."""
    def get(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    m = {
        metric: sum(get(name, "self_s") for name in names)
        for metric, names in LAYER_SPANS.items()
    }
    scout_steps = get("core.compute_fitness_weight")
    second = get("objective.evaluate", "calls_in_step") - scout_steps if scout_steps else 0
    m.update({
        "core.step_calls": get("core.step"),
        "core.neighborhood_calls": get("core.neighborhood"),
        "core.neighbor_count_mean": _ratio(
            get("core.neighborhood", "value"), get("core.neighborhood")
        ),
        "core.enforce_bounds_calls": get("core.enforce_bounds"),
        "core.bound_repairs": int(get("core.enforce_bounds", "value")),
        "core.bound_repair_ratio": _ratio(
            get("core.enforce_bounds", "value"), get("core.enforce_bounds")
        ),
        "core.scout_steps": scout_steps,
        "core.accepted_moves": get("core.update_weight_factor"),
        "core.second_chance_evals": second,
        "core.accept_ratio": _ratio(get("core.update_weight_factor"), scout_steps),
        "core.second_chance_ratio": _ratio(second, scout_steps),
        "objective.evaluate_calls": get("objective.evaluate"),
        "objective.evaluate_us": 1e6 * _ratio(
            get("objective.evaluate", "self_s"), get("objective.evaluate")
        ),
        "objective.nonfinite_calls": int(get("objective.evaluate", "value")),
        "harness.export_results_bytes": int(get("harness.export_results", "value")),
        "harness.export_search_history_bytes": int(
            get("harness.export_search_history", "value")
        ),
        "trace.spans": sum(entry["calls"] for entry in summary.values()),
    })
    return m


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The commit of this checkout, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def repetition_seed(seed, repetition, runs):
    """Base run seed of one repetition; distinct blocks of ``runs`` seeds for
    every (seed, repetition) pair with repetition < MAX_REPETITIONS."""
    return (seed * MAX_REPETITIONS + repetition) * runs


def measure(workload, seed, seconds, iterations, workdir, trace):
    """Run one workload: set-up, untraced repetitions, their checks and,
    with ``trace``, one traced repetition.

    Repetition i runs the seeds from ``repetition_seed(seed, i, runs)`` on,
    so a longer measurement averages over more seeds.  After each timed
    repetition i, run ``(seed + i) mod runs`` is rebuilt alone and its
    evaluations counted, outside ``seconds``; ``evals_per_s`` is their mean
    over the mean untraced run time.  The traced repetition repeats the seeds of
    repetition 0 and must give bit-identical runs.  Returns a dict with the
    metrics (the per-layer ones only with ``trace``), the counts of runs
    attempted and failed, the problems found and the recorder.
    """
    import_s, lookup_s, raw_setup_s, setup_s = measure_setup(workload.objective_id)

    first_seed = repetition_seed(seed, 0, workload.runs)
    Operation(workload, first_seed, min(iterations, WARMUP_ITERATIONS), workdir).perform()
    walls, factors, run_walls, problems, evaluations = [], [], [], [], []
    attempted = failed = 0
    first_op = reference = None
    measured = 0.0  # loop time without the rebuilt runs
    while not walls or (measured < seconds and len(walls) < MAX_REPETITIONS):
        t_loop = time.perf_counter()
        i = len(walls)
        op = Operation(workload, repetition_seed(seed, i, workload.runs), iterations, workdir)
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            result = op.perform()
            elapsed, spent = time.perf_counter() - t0, sampler.spent
        walls.append(elapsed - spent)
        factors.append(sampler.factor())
        bad, found = check_repetition(op, result)
        attempted += workload.runs
        problems.extend(f"repetition {i}: {p}" for p in found)
        if first_op is None:
            first_op, reference = op, result
        measured += time.perf_counter() - t_loop
        if result is not None and len(result.records) == workload.runs:
            # the runs' own clocks ran through the sampler's handlers too
            share = walls[-1] / elapsed
            run_walls.extend((r.wall_time_s * share, factors[-1]) for r in result.records)
            rebuilt_bad, found, calls = check_rebuilt(op, result, (seed + i) % workload.runs)
            bad |= rebuilt_bad
            problems.extend(f"repetition {i}: {p}" for p in found)
            evaluations.append(calls)
        failed += len(bad)
        # only repetition 0's result stays alive, so peak memory does not
        # grow with the number of repetitions
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    nan = float("nan")
    finals = [r.best_fitness for r in reference.records] if reference else [nan]
    metrics = {
        "wall_s": statistics.median(w * f for w, f in zip(walls, factors)),
        "run_s_median": statistics.median(w * f for w, f in run_walls) if run_walls else nan,
        # counting needs a rebuilt run and timing does not, so each mean
        # takes as many runs as it can
        "evals_per_s": (
            statistics.fmean(evaluations) / statistics.fmean(w * f for w, f in run_walls)
            if evaluations and run_walls else nan
        ),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "raw.wall_s": statistics.median(walls),
        "raw.run_s_median": statistics.median(w for w, _ in run_walls) if run_walls else nan,
        "raw.setup_s": raw_setup_s,
        "speed.factor_median": statistics.median(factors),
        "setup.import_s": import_s,
        "quality.final_best_median": statistics.median(finals),
    }

    recorder = None
    if trace:
        with SpanRecorder() as recorder:
            t0 = time.perf_counter()
            result = first_op.perform()
            traced_wall = time.perf_counter() - t0
        bad, found = check_repetition(first_op, result, reference)
        attempted += workload.runs
        failed += len(bad)
        problems.extend(f"traced: {p}" for p in found)
        layers = layer_metrics(recorder.summary())
        metrics.update(layers)
        metrics.update({
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - walls[0],
            "trace.coverage": sum(layers[name] for name in LAYER_SPANS) / traced_wall,
        })
    return {
        "workload": workload.name,
        "objective": workload.objective_id,
        "mode": workload.mode,
        "base_seed": first_seed,
        "runs_per_repetition": workload.runs,
        "population": first_op.config.population,
        "iterations": iterations,
        "repetitions": len(walls),
        "repetition_walls_s": walls,
        "repetition_speed_factors": factors,
        "run_samples": len(run_walls),
        "counted_evaluations": evaluations,
        "setup_samples": SETUP_SAMPLES,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "lookup_s": lookup_s,
        "recorder": recorder,
    }


def report(r):
    """A readable block: the end-to-end metrics, then the per-layer split."""
    m = r["metrics"]
    lines = [
        f"== {r['workload']}: {r['objective']} {r['mode']}, {r['runs_per_repetition']} runs x "
        f"{r['population']} agents x {r['iterations']} iterations per repetition, "
        f"run seeds of repetition i from {r['base_seed']} + {r['runs_per_repetition']} i on",
        "  times at the reference speed (raw time x speed factor; median factor "
        f"{m['speed.factor_median']:.4f}):",
        f"  {'wall_s':<22}{m['wall_s']:.6f} s  (median of {r['repetitions']} repetitions; "
        f"raw {m['raw.wall_s']:.6f} s)",
        f"  {'run_s_median':<22}{m['run_s_median']:.6f} s  (median of {r['run_samples']} runs; "
        f"raw {m['raw.run_s_median']:.6f} s)",
        f"  {'evals_per_s':<22}{m['evals_per_s']:.1f} 1/s  "
        f"(mean evaluations of {len(r['counted_evaluations'])} runs, counted when rebuilt "
        f"alone, / mean of {r['run_samples']} untraced run times)",
        f"  {'setup_s':<22}{m['setup_s']:.6f} s  "
        f"(median of {r['setup_samples']} fresh processes; raw {m['raw.setup_s']:.6f} s: "
        f"import {m['setup.import_s']:.6f} s + get_objective {r['lookup_s']:.6f} s)",
        f"  {'peak_rss_mb':<22}{m['peak_rss_mb']:.1f} MB  (untraced part)",
        f"  {'final_best_median':<22}{m['quality.final_best_median']:.17g} "
        f"(objective value, exact for these seeds)",
        f"  {'failed_runs_frac':<22}{_ratio(r['failed'], r['attempted']):g}  "
        f"({r['failed']} of {r['attempted']} runs)",
    ]
    if "trace.wall_s" in m:
        lines.append("  per layer, traced repetition (times are self times):")
        lines.extend(f"    {name:<38}{m[name]:.6g} {unit}" for name, unit in PER_LAYER.items())
    lines.extend(f"  problem: {p}" for p in r["problems"])
    return "\n".join(lines)


def result_line(results, trace):
    """The final JSON object; with several workloads, names get a prefix."""
    chosen = PER_LAYER if trace else END_TO_END
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for name, unit in chosen.items():
            metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def save(r, seed, trace, env):
    """Write the full result, and with --trace 1 every span, under bench/out."""
    record = {k: v for k, v in r.items() if k != "recorder"}
    record["seed"] = seed
    record["environment"] = env
    record["units"] = {**END_TO_END, **PER_LAYER}
    with open(os.path.join(OUT, f"{r['workload']}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if trace:
        r["recorder"].save(os.path.join(OUT, f"{r['workload']}.spans.npz"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="selects the block of run seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="print per-layer (1) or end-to-end (0) metrics in the JSON line")
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--runs", type=int, help="runs per repetition (default: per workload)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.iterations < 1:
        parser.error("--seed and --seconds must be >= 0, --iterations >= 1")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment: " + json.dumps(env), flush=True)
    os.makedirs(OUT, exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        for name in names:
            workload = WORKLOADS[name]
            if args.runs is not None:
                workload = replace(workload, runs=args.runs)
            r = measure(workload, args.seed, args.seconds, args.iterations, workdir,
                        args.trace)
            save(r, args.seed, args.trace, env)
            del r["recorder"]
            print(report(r), flush=True)
            results.append(r)
    line = result_line(results, args.trace)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
