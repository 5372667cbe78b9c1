"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — create an iBench-style scenario and write it as JSON;
* ``select``   — load a scenario JSON, run a selection method, report quality;
* ``sweep``    — quality-vs-noise sweep printed as a table;
* ``weight-sweep`` — objective-weight sweep on a fixed scenario (the
  ground-once/reweight-many path: one grounding per lane, every further
  cell reweights and re-solves);
* ``demo``     — the paper's running example with its appendix objective table;
* ``lint``     — the repro-lint static-analysis pass (docs/lint.md): exits
  0 when clean against the baseline, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.evaluation.engine import (
    DEFAULT_GRID_METHODS,
    METHOD_REGISTRY,
    EvaluationEngine,
    run_scenario,
)
from repro.evaluation.reporting import format_table
from repro.ibench.config import ALL_PRIMITIVES, ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.io.serialize import load_scenario, save_scenario


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Collective, probabilistic schema-mapping selection (ICDE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a scenario and write JSON")
    generate.add_argument("output", help="path of the scenario JSON to write")
    generate.add_argument("--primitives", type=int, default=4)
    generate.add_argument(
        "--kinds", nargs="+", default=list(ALL_PRIMITIVES), choices=ALL_PRIMITIVES
    )
    generate.add_argument("--rows", type=int, default=12)
    generate.add_argument("--pi-corresp", type=float, default=0.0)
    generate.add_argument("--pi-errors", type=float, default=0.0)
    generate.add_argument("--pi-unexplained", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)

    select = sub.add_parser("select", help="run selection methods on a scenario JSON")
    select.add_argument("scenario", help="path of a scenario JSON")
    select.add_argument(
        "--method",
        choices=[*METHOD_REGISTRY, "all"],
        default="all",
    )
    select.add_argument(
        "--ground-shard-size",
        type=_positive_int,
        default=None,
        help="entries per grounding shard (default: sharding module default)",
    )

    sweep = sub.add_parser("sweep", help="quality-vs-noise sweep")
    sweep.add_argument(
        "--noise",
        choices=["pi_corresp", "pi_errors", "pi_unexplained"],
        default="pi_corresp",
    )
    sweep.add_argument("--primitives", type=int, default=4)
    sweep.add_argument("--rows", type=int, default=12)
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    sweep.add_argument("--levels", type=float, nargs="+", default=[0, 25, 50, 75, 100])
    sweep.add_argument(
        "--executor",
        default="serial",
        help="where grid cells run: serial, thread[:N] or process[:N]",
    )
    sweep.add_argument(
        "--ground-shard-size",
        type=_positive_int,
        default=None,
        help="entries per grounding shard (default: sharding module default)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="persist generated scenarios/problems here (keyed by config hash) "
        "so repeated sessions skip generation and chasing",
    )
    sweep.add_argument(
        "--no-warm-start",
        action="store_true",
        help="solve every sweep cell cold instead of chaining ADMM warm starts "
        "(chaining runs parallel grids as per-seed waves, so with few seeds "
        "and many workers cold grids expose more parallelism)",
    )
    sweep.add_argument(
        "--timing",
        action="store_true",
        help="also print the per-cell timing breakdown",
    )

    weight_sweep = sub.add_parser(
        "weight-sweep",
        help="objective-weight sweep on a fixed scenario (reweight + re-solve, "
        "one grounding per lane)",
    )
    weight_sweep.add_argument("--primitives", type=int, default=4)
    weight_sweep.add_argument("--rows", type=int, default=12)
    weight_sweep.add_argument("--pi-corresp", type=float, default=25.0)
    weight_sweep.add_argument("--pi-errors", type=float, default=25.0)
    weight_sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    weight_sweep.add_argument(
        "--grid",
        nargs="+",
        default=["1,1,1", "2,1,1", "1,2,1", "1,1,2"],
        help="weight settings as explains,errors,size triples "
        "(fractions or decimals, e.g. 1,1/2,0.25)",
    )
    weight_sweep.add_argument(
        "--executor",
        default="serial",
        help="where grid cells run: serial, thread[:N] or process[:N]",
    )
    weight_sweep.add_argument(
        "--no-warm-start",
        action="store_true",
        help="solve every cell cold instead of chaining ADMM warm starts",
    )
    weight_sweep.add_argument(
        "--timing",
        action="store_true",
        help="also print the per-cell timing breakdown",
    )

    sub.add_parser("demo", help="the paper's running example")

    lint = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checkers (RPL001, RPL002, RPL005 "
        "syntactic; RPL010, RPL012 flow)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--flow",
        action="store_true",
        dest="flow",
        default=False,
        help="also run the whole-program flow pass (call graph + "
        "dataflow, rules RPL010 and RPL012)",
    )
    lint.add_argument(
        "--no-flow",
        action="store_false",
        dest="flow",
        help="syntactic rules only (the default)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="stdout report format (github = Actions annotations)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: lint-baseline.json when present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: report every finding as new",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this file (any --format)",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        num_primitives=args.primitives,
        primitive_kinds=tuple(args.kinds),
        rows_per_relation=args.rows,
        pi_corresp=args.pi_corresp,
        pi_errors=args.pi_errors,
        pi_unexplained=args.pi_unexplained,
        seed=args.seed,
    )
    scenario = generate_scenario(config)
    save_scenario(scenario, args.output)
    print(f"wrote {args.output}: {scenario.summary()}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    import time
    from functools import partial

    from repro.selection.collective import CollectiveSettings, solve_collective

    scenario = load_scenario(args.scenario)
    names = list(METHOD_REGISTRY) if args.method == "all" else [args.method]
    methods = {name: METHOD_REGISTRY[name] for name in names}
    if "collective" in methods and args.ground_shard_size is not None:
        methods["collective"] = partial(
            solve_collective,
            settings=CollectiveSettings(ground_shard_size=args.ground_shard_size),
        )
    start = time.perf_counter()
    problem = scenario.selection_problem()
    problem_seconds = time.perf_counter() - start
    cells = run_scenario(
        scenario,
        methods,
        problem=problem,
        problem_seconds=problem_seconds,
    )
    print(scenario.summary())
    print(
        format_table(
            ["method", "data F1", "map F1", "objective", "|M|", "sec"],
            [
                [
                    c.method,
                    c.run.data.f1,
                    c.run.mapping.f1,
                    float(c.run.objective),
                    len(c.run.selected),
                    c.run.seconds,
                ]
                for c in cells
            ],
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = ScenarioConfig(num_primitives=args.primitives, rows_per_relation=args.rows)
    engine = EvaluationEngine(
        methods=DEFAULT_GRID_METHODS,
        executor=args.executor,
        warm_start=not args.no_warm_start,
        cache_dir=args.cache_dir,
        ground_shard_size=args.ground_shard_size,
    )
    sweep = engine.sweep(base, args.noise, args.levels, args.seeds)
    columns = [*DEFAULT_GRID_METHODS, "gold"]
    print(format_table([args.noise, *columns], sweep.mean_f1_rows(columns)))
    if args.timing:
        print()
        print(
            format_table(
                ["level", "seed", "method", "gen s", "build s", "solve s"],
                [
                    [
                        getattr(c.config, args.noise),
                        c.config.seed,
                        c.method,
                        c.timing.generate_seconds,
                        c.timing.problem_seconds,
                        c.timing.solve_seconds,
                    ]
                    for c in sweep.grid.cells
                ],
                title=f"cell timing (total {sweep.grid.total_seconds:.2f}s)",
            )
        )
    return 0


def _parse_weight_triple(spec: str):
    from fractions import Fraction

    from repro.selection.objective import ObjectiveWeights

    parts = spec.split(",")
    if len(parts) != 3:
        raise SystemExit(
            f"bad weight setting {spec!r}: expected explains,errors,size"
        )
    try:
        explains, errors, size = (Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"bad weight setting {spec!r}: {exc}") from exc
    return ObjectiveWeights(explains=explains, errors=errors, size=size)


def _cmd_weight_sweep(args: argparse.Namespace) -> int:
    weight_grid = [_parse_weight_triple(spec) for spec in args.grid]
    base = ScenarioConfig(
        num_primitives=args.primitives,
        rows_per_relation=args.rows,
        pi_corresp=args.pi_corresp,
        pi_errors=args.pi_errors,
    )
    engine = EvaluationEngine(
        methods=DEFAULT_GRID_METHODS,
        executor=args.executor,
        warm_start=not args.no_warm_start,
    )
    sweep = engine.weight_sweep(base, weight_grid, args.seeds)
    columns = [*DEFAULT_GRID_METHODS, "gold"]
    print(
        format_table(
            ["explains/errors/size", *columns],
            sweep.mean_f1_rows(columns),
            title="mean data F1 per objective-weight setting",
        )
    )
    if args.timing:
        print()
        rows = []
        for weights, cells in sweep.cells_by_weight():
            from repro.evaluation.engine import weights_label

            for c in cells:
                rows.append(
                    [
                        weights_label(weights),
                        c.config.seed,
                        c.method,
                        c.timing.generate_seconds,
                        c.timing.problem_seconds,
                        c.timing.solve_seconds,
                    ]
                )
        print(
            format_table(
                ["weights", "seed", "method", "gen s", "build s", "solve s"],
                rows,
                title=f"cell timing (total {sweep.grid.total_seconds:.2f}s)",
            )
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.examples_data import paper_example
    from repro.selection.collective import solve_collective
    from repro.selection.metrics import build_selection_problem
    from repro.selection.objective import objective_breakdown

    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    rows = []
    for label, selected in [("{}", []), ("{t1}", [0]), ("{t3}", [1]), ("{t1,t3}", [0, 1])]:
        b = objective_breakdown(problem, selected)
        rows.append([label, str(b.unexplained), str(b.errors), str(b.size), str(b.total)])
    print(
        format_table(
            ["M", "sum 1-explains", "sum error", "size", "Eq.(9)"],
            rows,
            title="Appendix Section I objective table",
        )
    )
    result = solve_collective(problem)
    print(f"\ncollective selection: {sorted(result.selected) or '{}'} F={result.objective}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.baseline import Baseline, baseline_from_findings
    from repro.analysis.reporting import render_github, render_json, render_text
    from repro.analysis.runner import collect_files, lint_paths

    baseline = None
    baseline_path = args.baseline
    if args.no_baseline:
        baseline_path = None
    elif baseline_path is None and Path("lint-baseline.json").is_file():
        baseline_path = "lint-baseline.json"
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro lint: cannot load baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        report = lint_paths(args.paths, baseline=baseline, flow=args.flow)
    except FileNotFoundError as exc:
        print(f"repro lint: no such file or directory: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or "lint-baseline.json"
        # Scope the rewrite to what was scanned: zero-count entries for
        # scanned files are pruned (the ratchet tightens), entries for
        # unscanned files carry over untouched.  The previous file is
        # read even under --no-baseline — that flag skips *applying*
        # the baseline to this run, not the notes/out-of-scope entries
        # the rewrite must preserve.
        previous = baseline
        if previous is None and Path(target).is_file():
            try:
                previous = Baseline.load(target)
            except (OSError, ValueError, KeyError):
                previous = None
        scanned = [str(f) for f in collect_files(args.paths)]
        updated = baseline_from_findings(
            report.new + report.baselined,
            previous=previous,
            scanned_files=scanned,
        )
        updated.save(target)
        print(f"wrote {target}: {len(updated.entries)} entr(y/ies)")
        return 0

    if args.output:
        Path(args.output).write_text(render_json(report), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "github":
        sys.stdout.write(render_github(report))
    else:
        sys.stdout.write(render_text(report))
    return report.exit_code


_COMMANDS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "sweep": _cmd_sweep,
    "weight-sweep": _cmd_weight_sweep,
    "demo": _cmd_demo,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # ``repro sweep ... | head`` and friends: a pipe closed by the
        # downstream reader is normal usage, not a traceback.  Point
        # stdout at devnull so interpreter shutdown does not re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
