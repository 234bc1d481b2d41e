"""Golden hashes: exact bits of seeded runs, of the CLI and harness exports and of the catalog.

Each run case runs 10 agents x 60 iterations from seed 3 and hashes, with
SHA-256, the raw bytes of ``trace`` and ``best_position`` (plus
``positions`` when recorded).  The catalog hash covers every spec of
``all_objectives()``: its declared fields (bounds, shift, optimum, known
and tabulated minima, noise flag, notes) and its values at 3 seeded
in-box points.  The export hashes cover the bytes of the summary, trace
and history CSVs that one ``fdopt run`` writes, and of the summary and
trace JSON that ``export_results`` writes for the same experiment.  The
kernel hash covers the values of the CEC01, CEC03, CEC07 and CEC08
kernels, of the antenna fitness and of the six composites at seeded
points drawn so that every branch runs, and each composite's tables.  A
refactor that keeps the engine's arithmetic, the random stream, the
objective declarations and the export formats unchanged keeps every
hash; a deliberate change to any of them must re-pin them in a change of
its own.
"""

import hashlib

import numpy as np
import pytest

from fdopt.applications import antenna_fitness, spacing_violation
from fdopt.cec2019 import chebyshev, expanded_schaffer_f6, lennard_jones, modified_schwefel
from fdopt.classical import composite_evaluate, composite_specs
from fdopt.cli import main
from fdopt.core import FDO, IFDO, RunConfig, run
from fdopt.harness import ExperimentConfig, export_results, run_experiment
from fdopt.registry import all_objectives, get_objective

CASES = {
    "TF1-ifdo": ("TF1", dict(mode=IFDO)),
    "TF1-fdo": ("TF1", dict(mode=FDO)),
    "TF1-ifdo-swarm": ("TF1", dict(mode=IFDO, wf_scope="swarm")),
    "TF1-fdo-wf1": ("TF1", dict(mode=FDO, fdo_wf=1.0)),
    "TF7-ifdo": ("TF7", dict(mode=IFDO)),
    "TF9-ifdo": ("TF9", dict(mode=IFDO)),
    "TF14-ifdo": ("TF14", dict(mode=IFDO)),
    "CEC01-fdo": ("CEC01", dict(mode=FDO)),
    "CEC04-ifdo": ("CEC04", dict(mode=IFDO)),
    "ANTENNA-fdo": ("ANTENNA", dict(mode=FDO)),
    "ANTENNA-ifdo": ("ANTENNA", dict(mode=IFDO)),
    "EVAC-ifdo-positions": ("EVAC", dict(mode=IFDO, record_positions=True)),
}

GOLDEN = {
    "TF1-ifdo": "aac91c5d4d91fe7f03c38fdc9c97b601536bfb54c76a6938351a24971ca254fa",
    "TF1-fdo": "ce29502f63c21bbb260367a0584720983b9d8fa5f6e5896c67105babbc5f703a",
    "TF1-ifdo-swarm": "ea02d7c69ed39ffa5d8bcf36b8a263dde26b55394ff15cddaad2a475826b4b64",
    "TF1-fdo-wf1": "26acbe213d3eadd96f35aa90c205c42737a51aa0347c075f80ea1f7f4cb37ecd",
    "TF7-ifdo": "95a0195c53514d7c04e3e2f435a41f09c4362e1995082ddd165f738da7846b31",
    "TF9-ifdo": "047f543447fd151d600680129b9ebf6dee1587b8ffa27c3bd60f86a3af56ce2f",
    "TF14-ifdo": "d7f31d0d1dca88511848b7ec68b61c172c39940c8461bed4be5f4790310e3953",
    "CEC01-fdo": "9d0b740adcb6e4a4130a576292dc708725fc16c2cb21d7b3b23e023f86aa22d5",
    "CEC04-ifdo": "b7a4ea0b703326140950bc32d6265bf034f79a9c2ee2f14aa20be534fcc4f771",
    "ANTENNA-fdo": "cade308b1227443b13914438373da9a88f0f0002670ae47a0eaa884d3d3deadc",
    "ANTENNA-ifdo": "aabb5fd2825b7d139fbc301c57778ecaf7bb8ff54632645f77985534e7473176",
    "EVAC-ifdo-positions": "1bf880e599f07b71ca56ce5e31ad79eecee142a5d66b8da4f2477cfd983d3460",
}

BENCH_ARGV = ["bench", "--suite", "cec2019", "--runs", "1", "--agents", "4", "--iters", "3"]
BENCH_CSV = "7c8a3c5618ff7795e179667fa0669e3f42857dbcb0461763a3d7ff7e9152d1e6"
RUN_ARGV = ["run", "--function", "TF9", "--algo", "ifdo", "--runs", "2", "--seed", "4",
            "--agents", "5", "--iters", "10"]
RUN_CSVS = {
    "--out": "e4fb690ef0cac65fba8415ffcd909f4f8567864ca06dc127ba2a9d0f6fcfe795",
    "--trace": "08ad4802e59b8d1f032f4e079bc15b467ecd034e3e1dd05b5178d4d58032ecf0",
    "--history": "1ccd3d639b07fb2bc5eea368e6a5588397ed3a5e7dc331c89736a53951edf291",
}
RUN_JSONS = {
    "summary": "7b2f2a62330b2de4c86f08ceb2f420f7cc3ca63f4ba10aca317abf9ec957044d",
    "trace": "eadd76547663f93adb080dc56736eee1752c8b37f190f5a6c1277b0e09d51440",
}
CATALOG = "3af596ba6ee5275c4d8c8437c3972d1d662aa866e2b3e9d14ff71837da608d02"
KERNELS = "215f9b86eaae98a2fdf372a5ed66076cf55bd9951a7ec6dc91395a7ffc88b835"


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_bits(case):
    objective_id, options = CASES[case]
    config = RunConfig(population=10, iterations=60, seed=3, **options)
    record = run(config, get_objective(objective_id))
    digest = hashlib.sha256(record.trace.tobytes() + record.best_position.tobytes())
    if record.positions is not None:
        digest.update(record.positions.tobytes())
    assert digest.hexdigest() == GOLDEN[case]


def test_bench_csv_bytes(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    assert main([*BENCH_ARGV, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCH_CSV


def test_run_csv_bytes(tmp_path, capsys):
    paths = {flag: tmp_path / f"{flag[2:]}.csv" for flag in RUN_CSVS}
    assert main([*RUN_ARGV, *(a for flag, path in paths.items() for a in (flag, str(path)))]) == 0
    digests = {flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()}
    assert digests == RUN_CSVS


@pytest.mark.parametrize("kind", sorted(RUN_JSONS))
def test_run_json_bytes(kind, tmp_path):
    """The JSON exports of the experiment ``RUN_ARGV`` describes."""
    config = ExperimentConfig("TF9", IFDO, runs=2, population=5, iterations=10, base_seed=4)
    path = tmp_path / f"{kind}.json"
    export_results(run_experiment(config, get_objective("TF9")), "json", path, kind=kind)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUN_JSONS[kind]


def _catalog_field(value):
    if value is None:
        return b"<None>"
    if isinstance(value, (str, bool, int)):
        return repr(value).encode()
    return np.asarray(value, dtype=float).tobytes()


def test_catalog_bytes():
    """Every spec's declared fields and its values at 3 seeded in-box points."""
    points_rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for spec in all_objectives():
        points = points_rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(3, spec.dimension))
        values = [spec.evaluate(x, np.random.default_rng(k)) for k, x in enumerate(points)]
        fields = (
            spec.id, spec.dimension, spec.bounds.lower, spec.bounds.upper, spec.shift,
            spec.optimum, spec.known_fmin, spec.tabulated_fmin, spec.noisy, spec.notes, values,
        )
        for value in fields:
            data = _catalog_field(value)
            digest.update(len(data).to_bytes(8, "little") + data)
    assert digest.hexdigest() == CATALOG


def _kernel_cases():
    """(kernel, points) pairs whose seeded points reach every branch of the kernel."""
    rng = np.random.default_rng(11)
    # scaled over seven decades, so both endpoint tests of CEC01 pass and fail
    cec01 = rng.uniform(-1.0, 1.0, (2000, 9)) * 10.0 ** rng.uniform(-3.0, 3.9, (2000, 1))
    # every fourth cluster has two atoms within 0.02, inside the 1e20 branch
    atoms = rng.uniform(-4.0, 4.0, (2000, 6, 3))
    atoms[::4, 1] = atoms[::4, 0] + rng.uniform(-0.01, 0.01, (500, 3))
    # both out-of-box folds of CEC07 and its in-box rule
    cec07 = rng.uniform(-1500.0, 1500.0, (2000, 10))
    cec08 = rng.uniform(-100.0, 100.0, (2000, 10))
    layouts = np.sort(rng.uniform(0.125, 2.0, (20000, 4)), axis=1)
    feasible = [x for x in layouts if spacing_violation(x) == 0.0][:2000]
    assert len(feasible) == 2000
    unsorted = rng.uniform(0.0, 2.25, (2000, 4))
    infeasible = [x for x in unsorted if spacing_violation(x) > 0.0][:500]
    assert len(infeasible) == 500
    cases = [
        (chebyshev, cec01),
        (lennard_jones, atoms.reshape(2000, 18)),
        (modified_schwefel, cec07),
        (expanded_schaffer_f6, cec08),
        (antenna_fitness, feasible + infeasible),
    ]
    for spec in composite_specs().values():
        # near the optima, across the box and far enough out that every weight underflows
        points = rng.uniform(-5.0, 5.0, (300, 10)) * 10.0 ** rng.uniform(-1.0, 1.5, (300, 1))
        cases.append((lambda x, spec=spec: composite_evaluate(spec, x), points))
    return cases


def test_kernel_bytes():
    """Kernel values at branch-covering points and every composite's tables."""
    digest = hashlib.sha256()
    for kernel, points in _kernel_cases():
        digest.update(np.array([kernel(x) for x in points], dtype=float).tobytes())
    for spec in composite_specs().values():
        for table in (spec.sigmas, spec.lambdas, spec.component_optima, spec.biases, spec.fmax):
            digest.update(np.asarray(table, dtype=float).tobytes())
    assert digest.hexdigest() == KERNELS
