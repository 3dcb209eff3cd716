"""Command-line entry point for the experiment runners.

Subcommands mirror the experiment kinds; a JSON config file supplies the full
declarative setup and individual flags override it.  Exit codes: 0 success,
2 config error, 3 solver failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import (
    EXPERIMENT_KINDS,
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
        p.add_argument("--noise", type=float, help="noise level override")
        p.add_argument("--rho", type=float, help="regularization weight override")
        p.add_argument("--mesh-h", type=float, dest="mesh_h", help="target mesh size override")
        p.add_argument(
            "--data-mesh",
            choices=("same", "refine"),
            dest="data_mesh",
            help="generate data on the same mesh or a once-refined one",
        )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        config = dataclasses.replace(config, kind=args.command)
    else:
        config = ExperimentConfig(kind=args.command)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise is not None:
        overrides["noise"] = args.noise
    if args.rho is not None:
        overrides["rho"] = args.rho
    if args.mesh_h is not None:
        overrides["target_h"] = args.mesh_h
    if args.data_mesh is not None:
        overrides["data_mesh"] = args.data_mesh
    return dataclasses.replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        bundle = run_experiment(config)
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
