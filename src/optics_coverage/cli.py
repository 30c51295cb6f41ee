"""Command-line entry point.

Subcommands:
    run              sweep deployment sizes, write the summary table,
                     round traces and reachability CSVs
    rand-baseline    paired protocol-vs-random coverage comparison
    plot-data        convert a round trace into plot-ready CSVs
    validate-config  check a config file / overrides and exit

Exit codes: 0 success, 2 configuration or I/O error, 3 every trial of a
run failed at simulation level.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, default_ini, load_config
from .experiments import (
    export_plot_data,
    run_rand_baseline,
    run_table_experiment,
    write_baseline_csv,
)
from .metrics import GRID_RESOLUTION, require_resolution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optics-coverage",
        description="Density-clustered sensor activation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file (defaults apply without it)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override any config key, e.g. --set protocol.theta=0.25",
        )

    run_p = sub.add_parser("run", help="run the deployment-size sweep")
    add_config_args(run_p)
    run_p.add_argument("--out", help="output directory (overrides output.dir)")
    run_p.add_argument("--seed", help="master seed override")
    run_p.add_argument("--trials", help="trials per deployment size")
    run_p.add_argument("--rounds", help="rounds per trial")
    run_p.add_argument(
        "--d-list", help="comma-separated deployment sizes, e.g. 100,200,300"
    )

    base_p = sub.add_parser("rand-baseline", help="protocol vs random subset")
    add_config_args(base_p)
    base_p.add_argument("--out", help="output directory (overrides output.dir)")
    base_p.add_argument("--seed", help="master seed override")
    base_p.add_argument("--trials", help="number of paired trials")
    base_p.add_argument("--count", help="deployment size (overrides deployment.count)")

    plot_p = sub.add_parser("plot-data", help="CSV exports from a round trace")
    plot_p.add_argument("--trace", required=True, help="trace JSON-lines file")
    plot_p.add_argument("--out", default="plot-data", help="output directory")
    plot_p.add_argument(
        "--resolution", type=int, default=GRID_RESOLUTION, help="coverage grid cells per side"
    )

    val_p = sub.add_parser("validate-config", help="check configuration and exit")
    add_config_args(val_p)
    val_p.add_argument(
        "--print-default", action="store_true", help="print a default config file"
    )
    return parser


# shortcut flags, each a section.key=value override applied after --set
_FLAG_KEYS = {
    "out": "output.dir",
    "seed": "deployment.seed",
    "trials": "experiment.trials",
    "rounds": "experiment.rounds",
    "count": "deployment.count",
    "d_list": "experiment.d_list",
}


def _load(args) -> RunConfig:
    overrides = list(args.overrides) + [
        f"{key}={getattr(args, dest)}"
        for dest, key in _FLAG_KEYS.items()
        if getattr(args, dest, None) is not None
    ]
    return load_config(args.config, overrides)


def _cmd_run(args) -> int:
    config = _load(args)
    result = run_table_experiment(config, out_dir=config.output_dir)
    for outcome in result.outcomes:
        if outcome.failed_round is not None:
            print(
                f"trial D={outcome.deployed} t={outcome.trial}: all nodes dead "
                f"at round {outcome.failed_round}",
                file=sys.stderr,
            )
    if result.summary is None:
        print("every trial failed", file=sys.stderr)
        return EXIT_SIMULATION
    for row in result.summary.rows:
        print(
            f"D={row.deployed:5d}  trials={','.join(str(t) for t in row.trials):>18}"
            f"  N={row.n_display:4d}  R={row.r_display:3d}%"
        )
    print(f"R_avg = {result.summary.r_avg:.2f}% -> {result.summary.r_avg_display}%")
    # Path spells a blank directory, the working one, as "."
    print(f"artifacts in {Path(config.output_dir)}/")
    return EXIT_OK


def _cmd_rand_baseline(args) -> int:
    config = _load(args)
    result = run_rand_baseline(config)
    if not result.pairs:
        print("every baseline trial failed", file=sys.stderr)
        return EXIT_SIMULATION
    out_path = Path(config.output_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    csv_path = out_path / f"rand_baseline_D{result.deployed}.csv"
    with open(csv_path, "w", newline="") as fh:
        write_baseline_csv(result, fh)
    print(
        f"D={result.deployed}, {len(result.pairs)} paired trials: "
        f"protocol grid CR {result.mean_protocol_cr:.2f}% vs "
        f"random {result.mean_rand_cr:.2f}%"
    )
    print(f"pairs written to {csv_path}")
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    try:
        require_resolution("--resolution", args.resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        written = export_plot_data(args.trace, args.out, args.resolution)
    except FileNotFoundError:
        print(f"trace not found: {args.trace}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"bad trace {args.trace}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Path spells a blank directory, the working one, as "."
    print(f"wrote {len(written)} files to {Path(args.out)}/")
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    if args.print_default:
        print(default_ini(), end="")
        return EXIT_OK
    config = _load(args)
    config.validate()
    print(f"config OK ({len(config.d_list)} deployment sizes, seed {config.seed})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "rand-baseline": _cmd_rand_baseline,
        "plot-data": _cmd_plot_data,
        "validate-config": _cmd_validate_config,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
