"""Command-line entry point for the experiment runners.

Subcommands mirror the experiment kinds; a JSON config file supplies the full
declarative setup and individual flags override it.  Exit codes: 0 success,
2 config error, 3 solver failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    DATA_MESH_KINDS,
    EXPERIMENT_KINDS,
    NOISE_KINDS,
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    run_experiment,
)
from .fem import FemError
from .mesh import MeshError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# config fields a flag can override, under the flag's dest
OVERRIDES = ("seed", "noise", "rho", "target_h", "data_mesh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastinv",
        description="2D elasticity forward solves, operator checks, and Lame-parameter reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file (schema_version 1)")
        p.add_argument("--out", default=f"out_{kind}", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--mesh-h", type=float, dest="target_h", help="target mesh size override")
        if kind in NOISE_KINDS:
            p.add_argument("--noise", type=float, help="noise level override")
            p.add_argument("--rho", type=float, help="regularization weight override")
        if kind in DATA_MESH_KINDS:
            p.add_argument(
                "--data-mesh",
                choices=("same", "refine"),
                dest="data_mesh",
                help="generate data on the same mesh or a once-refined one",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # a subcommand defines only the flags its runner reads; the config is
    # validated as the subcommand's kind, whatever kind the file names
    overrides = {
        key: value for key in OVERRIDES if (value := getattr(args, key, None)) is not None
    }
    overrides["kind"] = args.command
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bundle = run_experiment(config_from_args(args))
    except (ConfigError, MeshError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    out = bundle.write(args.out)
    print(f"wrote result bundle to {out}")

    violations = bundle.report.get("violations")
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
