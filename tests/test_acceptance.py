"""Acceptance gate: nine criteria, each one test with pinned tolerances.

Each test prints a single PASS/FAIL summary line (visible with ``pytest -s``
or on failure) before asserting, so the gate doubles as a report.
"""

import csv
import math
import time

import numpy as np
import pytest

from fdopt import applications as apps
from fdopt.core import (
    FDO,
    IFDO,
    RunConfig,
    compute_fitness_weight,
    compute_pace,
    first_best_iteration,
    init_population,
    neighbor_landscape,
    neighborhood,
    propose_position,
    run,
    step,
)
from fdopt.classical import catalog, composite_specs, composite_evaluate
from fdopt.cec2019 import cec_catalog, cec_evaluate
from fdopt.harness import ExperimentConfig, export_results, run_experiment
from fdopt.objective import ObjectiveSpec, box
from fdopt.classical import sphere
from fdopt.registry import get_objective

from test_objectives import composite_oracle
from test_cec2019 import ORACLES


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_tf1_reproduction():
    start = time.perf_counter()
    spec = get_objective("TF1")
    bests = np.array(
        [run(RunConfig(30, 500, IFDO, seed=s), spec).best_fitness for s in range(10)]
    )
    elapsed = time.perf_counter() - start
    median = float(np.median(bests))
    worst = float(np.max(bests))
    ok = median <= 1e-6 and worst <= 1e-3 and elapsed <= 30.0
    assert report(
        "criterion 1 (TF1: median<=1e-6, max<=1e-3, <=30s)",
        ok,
        f"median={median:.3e} max={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_tf9_reproduction():
    start = time.perf_counter()
    spec = get_objective("TF9")
    bests = np.array(
        [run(RunConfig(30, 500, IFDO, seed=s), spec).best_fitness for s in range(10)]
    )
    elapsed = time.perf_counter() - start
    mean = float(np.mean(bests))
    ok = mean <= 35.0 and elapsed <= 30.0
    assert report(
        "criterion 2 (TF9: mean<=35, <=30s)", ok, f"mean={mean:.2f} elapsed={elapsed:.1f}s"
    )


def test_criterion_3_ifdo_beats_fdo_on_antenna():
    start = time.perf_counter()
    spec = get_objective("ANTENNA")
    wins = 0
    ifdo_final, fdo_final = [], []
    for s in range(20):
        ifdo = run(RunConfig(20, 200, IFDO, seed=s), spec)
        fdo = run(RunConfig(20, 200, FDO, seed=s), spec)
        if first_best_iteration(ifdo.trace) <= first_best_iteration(fdo.trace):
            wins += 1
        ifdo_final.append(ifdo.best_fitness)
        fdo_final.append(fdo.best_fitness)
    elapsed = time.perf_counter() - start
    mean_ifdo = float(np.mean(ifdo_final))
    mean_fdo = float(np.mean(fdo_final))
    ok = wins >= 12 and mean_ifdo <= mean_fdo and elapsed <= 60.0
    assert report(
        "criterion 3 (antenna: wins>=60%, ifdo mean<=fdo mean, <=60s)",
        ok,
        f"wins={wins}/20 ifdo_mean={mean_ifdo:.3f}dB fdo_mean={mean_fdo:.3f}dB "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_4_evacuation_oracle():
    start = time.perf_counter()
    scenario = apps.build_scenario(50.0, 50.0, 20, seed=0)
    spec = apps.evac_objective(scenario)
    perimeter = scenario.perimeter
    grid = np.linspace(0.0, perimeter, 10_001)[:-1]
    sweep = np.array([apps.evac_fitness(s, scenario) for s in grid])
    best_s = float(grid[np.argmin(sweep)])
    cell = perimeter / 1e4
    hits = 0
    for s in range(10):
        record = run(RunConfig(30, 700, IFDO, seed=s), spec)
        converged = float(record.best_position[0]) % perimeter
        if abs(converged - best_s) <= cell:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 8 and elapsed <= 60.0
    assert report(
        "criterion 4 (evac: within one grid cell in >=8/10 seeds, <=60s)",
        ok,
        f"hits={hits}/10 sweep_min_at={best_s:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_invariant_suite():
    rng = np.random.default_rng(2024)
    all_ids = [s.id for s in catalog()] + [s.id for s in cec_catalog()] + ["ANTENNA", "EVAC"]
    failures = []
    # 100 random configs covering every objective in both modes
    for k in range(100):
        fid = all_ids[k % len(all_ids)]
        spec = get_objective(fid)
        mode = IFDO if k % 2 == 0 else FDO
        config = RunConfig(
            population=int(rng.integers(2, 12)),
            iterations=int(rng.integers(3, 10)),
            mode=mode,
            seed=int(rng.integers(0, 10_000)),
        )
        swarm = init_population(config, spec)
        previous_wf = swarm.weight_factors.copy()
        best_before = swarm.global_best_fitness
        for _ in range(config.iterations):
            step(swarm, spec)
            if swarm.global_best_fitness > best_before:
                failures.append(f"{fid}/{mode}: non-monotone best")
            best_before = swarm.global_best_fitness
            if np.any(swarm.positions < spec.bounds.lower - 1e-12) or np.any(
                swarm.positions > spec.bounds.upper + 1e-12
            ):
                failures.append(f"{fid}/{mode}: bounds violated")
            if mode == IFDO and np.any(swarm.weight_factors > previous_wf + 1e-15):
                failures.append(f"{fid}/{mode}: wf increased")
            previous_wf = swarm.weight_factors.copy()
    # determinism on 20 configs
    for k in range(20):
        fid = all_ids[int(rng.integers(0, len(all_ids)))]
        spec = get_objective(fid)
        config = RunConfig(
            population=5, iterations=6, mode=IFDO if k % 2 else FDO, seed=k
        )
        a = run(config, spec)
        b = run(config, spec)
        if not (
            np.array_equal(a.trace, b.trace)
            and np.array_equal(a.best_position, b.best_position)
            and a.best_fitness == b.best_fitness
        ):
            failures.append(f"{fid}: non-deterministic")
    ok = not failures
    assert report(
        "criterion 5 (invariants: monotone, bounds, wf, determinism)",
        ok,
        "all hold" if ok else "; ".join(sorted(set(failures))),
    )


def test_criterion_6_equation_unit_suite():
    checks = []

    def close(a, b, tol=1e-12):
        return abs(a - b) <= tol

    # fitness weight, both modes
    checks.append(close(compute_fitness_weight(2.0, 4.0, 0.3, IFDO), 0.2))
    checks.append(close(compute_fitness_weight(2.0, 4.0, 0.6, IFDO), 0.5))
    checks.append(compute_fitness_weight(2.0, 0.0, 0.3, IFDO) == 0.0)
    checks.append(close(compute_fitness_weight(3.0, 3.0, 0.0, FDO), 1.0))
    # pace branches
    rng = np.random.default_rng(0)
    checks.append(
        np.allclose(compute_pace([4.0, 4.0], [2.0, 2.0], 0.5, 0.3, rng), [1.0, 1.0], atol=1e-12)
    )
    checks.append(
        np.allclose(compute_pace([4.0, 4.0], [2.0, 2.0], 0.5, -0.3, rng), [-1.0, -1.0], atol=1e-12)
    )
    checks.append(
        np.allclose(compute_pace([0.0, 0.0], [9.0, 9.0], 0.0, 0.5, rng), [0.0, 0.0], atol=1e-12)
    )
    # neighbor radius
    checks.append(close(neighbor_landscape(box(1, -100, 100)), 200.0 / (2.0 * math.pi)))
    checks.append(close(neighbor_landscape(box(1, 0.0, 2.0 * math.pi)), 1.0))
    # alignment / cohesion / proposal
    from test_core import make_swarm

    swarm = make_swarm([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [2.0, 4.0]])
    ctx = neighborhood(0, swarm, 0.5)
    checks.append(np.allclose(ctx.alignment, [2.0, 4.0], atol=1e-12))
    checks.append(np.allclose(ctx.cohesion, [0.0, 0.0], atol=1e-12))
    from fdopt.core import NeighborhoodContext

    ctx = NeighborhoodContext(1, np.array([2.0]), np.array([4.0]))
    checks.append(np.allclose(propose_position([0.0], np.array([1.0]), ctx), [1.5], atol=1e-12))
    # array factor and evacuation arithmetic (composed expressions at 1e-9)
    checks.append(close(apps.array_factor(90.0, [0.25, 0.75, 1.25, 1.75]), 5.0, 1e-9))
    checks.append(close(apps.evac_time(5.0, 1.2, "paper"), 3.0))
    checks.append(close(apps.evac_time(5.0, 1.25, "physical"), 4.0))
    checks.append(close(apps.evac_distance((0.0, 0.0), (3.0, 4.0)), 5.0))
    ok = all(checks)
    assert report(
        "criterion 6 (equation unit suite at 1e-12 / 1e-9)",
        ok,
        f"{sum(checks)}/{len(checks)} hand-computed examples hold",
    )


def test_criterion_7_objective_correctness():
    failures = []
    specs = {s.id: s for s in catalog()}
    for fid in ["TF1", "TF2", "TF3", "TF4", "TF5", "TF6", "TF9", "TF10", "TF11", "TF12", "TF13"]:
        spec = specs[fid]
        value = spec.evaluate(spec.optimum)
        if abs(value) > 1e-10:
            failures.append(f"{fid}: f(optimum)={value:.2e}")
    rng = np.random.default_rng(77)
    points = rng.uniform(-5.0, 5.0, size=(1000, 10))
    for fid, comp in composite_specs().items():
        worst = max(
            abs(composite_evaluate(comp, x) - composite_oracle(comp, list(x))) for x in points
        )
        if worst > 1e-9:
            failures.append(f"{fid}: composite oracle gap {worst:.2e}")
    for spec in cec_catalog():
        pts = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(1000, spec.dimension))
        worst = 0.0
        for x in pts:
            ours = cec_evaluate(spec.id, x)
            theirs = ORACLES[spec.id](list(x))
            scale = max(1.0, abs(theirs))
            worst = max(worst, abs(ours - theirs) / scale)
        if worst > 1e-10:
            failures.append(f"{spec.id}: dual-implementation gap {worst:.2e}")
    ok = not failures
    assert report(
        "criterion 7 (objective correctness and dual oracles)",
        ok,
        "all objectives match" if ok else "; ".join(failures),
    )


def test_criterion_8_small_instance_global_search():
    results = {}
    for dim in (1, 2):
        spec = ObjectiveSpec(
            id=f"sphere{dim}",
            bounds=box(dim, -1.0, 1.0),
            evaluator=sphere,
        )
        # brute-force grid oracle (2001 points per axis)
        axis = np.linspace(-1.0, 1.0, 2001)
        if dim == 1:
            grid_min = float(np.min(axis**2))
        else:
            grid_min = float(np.min(axis**2)) * 2.0
        for mode in (FDO, IFDO):
            hits = 0
            for s in range(10):
                best = run(RunConfig(30, 500, mode, seed=s), spec).best_fitness
                if best - grid_min <= 1e-3:
                    hits += 1
            results[(dim, mode)] = hits
    ok = all(hits >= 9 for hits in results.values())
    detail = " ".join(f"{d}D/{m}={h}/10" for (d, m), h in sorted(results.items()))
    assert report("criterion 8 (sphere oracle >=9/10, both modes)", ok, detail)


def test_criterion_9_export_round_trip(tmp_path):
    config = ExperimentConfig(
        objective_id="TF1", mode=IFDO, runs=4, population=8, iterations=30, base_seed=0
    )
    result = run_experiment(config, get_objective("TF1"))
    trace_path = tmp_path / "trace.csv"
    export_results(result, "csv", trace_path, kind="trace")
    exact = True
    finals = {}
    with open(trace_path, newline="") as fh:
        for row in csv.DictReader(fh):
            k, t = int(row["run"]), int(row["iteration"])
            value = float(row["best_fitness"])
            if value != result.records[k].trace[t]:
                exact = False
            finals[k] = value
    recomputed = float(np.mean(list(finals.values())))
    ok = exact and abs(recomputed - result.mean) <= 1e-12
    assert report(
        "criterion 9 (export round-trip exact, mean recompute <=1e-12)",
        ok,
        f"exact={exact} |mean gap|={abs(recomputed - result.mean):.2e}",
    )
