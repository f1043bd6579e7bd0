"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers; ``report``
aggregates previously written summaries.  Exit codes: 0 success, 2
validation failure (bad config, arguments or input files), 3 runtime
failure (including running out of memory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, InputError, PastcastError
from .experiments import RUNNERS, run_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_HELP = {
    "simulate": "draw stationary sample paths from a source",
    "recurrence-stats": "first-recurrence calibration and growth curves",
    "estimate": "schedule-driven conditional estimates vs. the oracle",
    "divergence-curve": "divergence of averaged model estimates vs. the oracle",
    "predict": "online predict-then-reveal loss trajectories",
    "report": "aggregate summary.json files under a directory into a table",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pastcast",
        description="Nonparametric next-outcome estimation for stationary series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _HELP.items():
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        sp.add_argument("--out", type=Path, default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None, help="parallel replica workers")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            run_report(args.out if args.out is not None else Path("."))
            return EXIT_OK
        config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        config = config.override(
            seed=args.seed,
            workers=args.workers,
            out_dir=None if args.out is None else str(args.out),
        )
        config.validate()
        RUNNERS[args.command](config, Path(config.out_dir))
        return EXIT_OK
    except (ConfigError, InputError) as err:
        _report(err)
        return EXIT_VALIDATION
    except (PastcastError, OSError, MemoryError) as err:
        _report(err)
        return EXIT_RUNTIME


def _report(err: Exception) -> None:
    # One line, even when the message quotes a config key with line breaks.
    print("pastcast:", " ".join(str(err).splitlines()), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
