"""Command-line entry point for the experiment runners.

Subcommands mirror the experiment kinds; a JSON config file supplies the full
declarative setup and individual flags override it.  Exit codes: 0 success,
2 config error, 3 solver failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import READS, ConfigError, ExperimentConfig, run_experiment
from .fem import FemError
from .mesh import MeshError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# the flag of each config field that has one; a subcommand takes the flags of
# the fields its kind reads, and each given flag overrides its field
FLAGS = {
    "seed": ("--seed", {"type": int, "help": "RNG seed override"}),
    "target_h": ("--mesh-h", {"type": float, "help": "target mesh size override"}),
    "noise": ("--noise", {"type": float, "help": "noise level override"}),
    "rho": ("--rho", {"type": float, "help": "regularization weight override"}),
    "data_mesh": (
        "--data-mesh",
        {"choices": ("same", "refine"), "help": "generate data on the same mesh or a once-refined one"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastinv",
        description="2D elasticity forward solves, operator checks, and Lame-parameter reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, reads in READS.items():
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file (schema_version 1)")
        p.add_argument("--out", default=f"out_{kind}", help="output directory")
        for name, (flag, spec) in FLAGS.items():
            if name in reads:
                p.add_argument(flag, dest=name, **spec)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # the config is validated as the subcommand's kind, whatever kind the file names
    overrides = {
        name: value for name in FLAGS if (value := getattr(args, name, None)) is not None
    }
    overrides["kind"] = args.command
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig(**overrides)


def check_out(out: str) -> None:
    """Raise ConfigError unless the bundle directory out exists or can be made."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {out}: {existing} is not writable")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        check_out(args.out)  # before the run, which may take minutes
        bundle = run_experiment(config)
    except (ConfigError, MeshError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

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
