"""Command-line frontend.

Subcommands: run, bench, compare, antenna, evac, list.  Exit codes:
0 success, 2 usage error, 3 I/O error.  All configuration is explicit
flags, so identical invocations reproduce identical outputs.
"""

import argparse
import csv
import os
import sys
from dataclasses import fields

from . import applications, cec2019, classical, harness
from .core import IFDO, MODES, WF_SCOPES, RunConfig, first_best_iteration
from .registry import DEFAULT_EVAC, all_objectives, get_objective

USAGE_ERROR = 2
IO_ERROR = 3


def _int_at_least(low, kind):
    """argparse type for an integer of at least ``low``, named ``kind`` in errors."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _objective(name):
    """argparse type for ``--function``: the objective registered under ``name``."""
    try:
        return get_objective(name)
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown objective {name!r}; see 'fdopt list'") from None


def _add_common(parser, agents=RunConfig.population, iters=RunConfig.iterations):
    """The flags every experiment shares, each stored under its ExperimentConfig field name."""
    parser.add_argument(
        "--agents", dest="population", metavar="AGENTS", type=_positive_int, default=agents
    )
    parser.add_argument(
        "--iters", dest="iterations", metavar="ITERS", type=_positive_int, default=iters
    )
    parser.add_argument("--runs", type=_positive_int, default=1)
    parser.add_argument(
        "--seed", dest="base_seed", metavar="SEED", type=_non_negative_int, default=0
    )
    parser.add_argument("--wf-scope", choices=WF_SCOPES, default=RunConfig.wf_scope)
    parser.add_argument("--fdo-wf", type=float, choices=[0.0, 1.0], default=RunConfig.fdo_wf)


def build_parser():
    parser = argparse.ArgumentParser(prog="fdopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one objective")
    p_run.add_argument("--function", type=_objective, required=True)
    p_run.add_argument("--algo", choices=MODES, required=True)
    p_run.add_argument("--out", help="summary CSV path")
    p_run.add_argument("--trace", help="trace CSV path")
    p_run.add_argument("--history", help="search-history CSV path")
    _add_common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("bench", help="run a full suite with both algorithms")
    p_bench.add_argument("--suite", choices=["classical", "cec2019"], required=True)
    p_bench.add_argument("--out", help="comparison CSV path")
    _add_common(p_bench)
    p_bench.set_defaults(runs=30, handler=cmd_bench)

    p_cmp = sub.add_parser("compare", help="compare both algorithms on one objective")
    p_cmp.add_argument("--function", type=_objective, required=True)
    _add_common(p_cmp)
    p_cmp.set_defaults(runs=10, handler=cmd_compare)

    p_ant = sub.add_parser("antenna", help="optimize the antenna array layout")
    p_ant.add_argument("--algo", choices=MODES, default=IFDO)
    _add_common(p_ant, agents=20, iters=200)
    p_ant.set_defaults(handler=cmd_antenna)

    p_evac = sub.add_parser("evac", help="optimize the evacuation exit placement")
    p_evac.add_argument("--algo", choices=MODES, default=IFDO)
    p_evac.add_argument("--width", type=float, default=DEFAULT_EVAC["width"])
    p_evac.add_argument("--height", type=float, default=DEFAULT_EVAC["height"])
    p_evac.add_argument("--count", type=_positive_int, default=DEFAULT_EVAC["count"])
    p_evac.add_argument("--formula", choices=applications.TIME_FORMULAS, default="paper")
    p_evac.add_argument("--scenario-seed", type=_non_negative_int, default=DEFAULT_EVAC["seed"])
    p_evac.add_argument("--scenario-file", help="load a scenario instead of generating one")
    _add_common(p_evac, agents=20, iters=200)
    p_evac.set_defaults(handler=cmd_evac)

    sub.add_parser("list", help="list every objective").set_defaults(handler=cmd_list)
    return parser


def _experiment(args, objective, mode, record_positions=False):
    """Run the experiment the common flags describe for ``objective`` in ``mode``."""
    flags = vars(args)
    shared = {f.name: flags[f.name] for f in fields(harness.ExperimentConfig) if f.name in flags}
    config = harness.ExperimentConfig(
        objective_id=objective.id, mode=mode, record_positions=record_positions, **shared
    )
    return harness.run_experiment(config, objective)


def _best_run(args, objective):
    """The record with the lowest final best over the runs of ``objective``."""
    result = _experiment(args, objective, args.algo)
    return min(result.records, key=lambda r: r.best_fitness)


def _require_writable(path):
    """Raise OSError naming ``path`` unless a file can be written there; creates nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise OSError(f"cannot write {path}: {reason}")


def cmd_run(args):
    # checked before the experiment, so a bad path does not throw its runs away
    for path in (args.out, args.trace, args.history):
        if path:
            _require_writable(path)
    result = _experiment(args, args.function, args.algo, record_positions=bool(args.history))
    print(
        f"{args.function.id} {args.algo} runs={args.runs} "
        f"mean={result.mean:.10e} std={result.std:.10e}"
    )
    if args.out:
        harness.export_results(result, "csv", args.out, kind="summary")
    if args.trace:
        harness.export_results(result, "csv", args.trace, kind="trace")
    if args.history:
        harness.export_search_history(result, args.history)
    return 0


def cmd_bench(args):
    suite = classical.catalog() if args.suite == "classical" else cec2019.cec_catalog()
    results = []
    # without --out the rows go to the null device, so there is one write path
    with open(args.out or os.devnull, "w", newline="") as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(harness.SUMMARY_COLUMNS)
        for spec in suite:
            for mode in MODES:
                result = _experiment(args, spec, mode)
                results.append(result)
                print(f"{spec.id} {mode} mean={result.mean:.10e} std={result.std:.10e}", flush=True)
                writer.writerow(harness.summary_csv_row(result))
                out_fh.flush()
    print(harness.format_comparison(harness.compare(results)))
    return 0


def cmd_compare(args):
    results = [_experiment(args, args.function, mode) for mode in MODES]
    print(harness.format_comparison(harness.compare(results)))
    return 0


def cmd_antenna(args):
    record = _best_run(args, applications.antenna_objective())
    positions = record.best_position
    marker = "" if applications.is_feasible(positions) else " INFEASIBLE"
    print("element positions: " + " ".join(f"{v:.6f}" for v in positions) + marker)
    print(f"peak sidelobe level (dB): {record.best_fitness:.10f}")
    print(f"first-best iteration: {first_best_iteration(record.trace)}")
    return 0


def cmd_evac(args):
    try:
        if args.scenario_file:
            scenario = applications.load_scenario(args.scenario_file, args.formula)
        else:
            scenario = applications.build_scenario(
                args.width, args.height, args.count, args.scenario_seed, args.formula
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    record = _best_run(args, applications.evac_objective(scenario))
    door = applications.perimeter_point(record.best_position[0], scenario.width, scenario.height)
    print(f"exit arclength: {record.best_position[0]:.6f}")
    print(f"exit coordinates: ({door[0]:.6f}, {door[1]:.6f})")
    print(f"mean evacuation time: {record.best_fitness:.10f}")
    print(f"first-best iteration: {first_best_iteration(record.trace)}")
    return 0


def cmd_list(args):
    for spec in all_objectives():
        lo, hi = float(spec.bounds.lower[0]), float(spec.bounds.upper[0])
        floor = "unknown" if spec.known_fmin is None else f"{spec.known_fmin:.10g}"
        print(f"{spec.id:<8} dim={spec.dimension:<3} bounds=[{lo:g}, {hi:g}] fmin={floor}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
