"""Command line interface.

    diracq check <file> [--suite NAME]... [--json] [--seed N] [--trials N]

Exit codes: 0 all requested checks pass (or are skipped), 1 some check fails
or errors, 2 parse or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import run_checks
from .dsl import DslError, SUITES, parse_model

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diracq")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run verification suites on a model file")
    check.add_argument("file", help="model file in the diracq DSL")
    check.add_argument("--suite", action="append", default=None,
                       choices=list(SUITES) + ["all"],
                       help="suite to run (repeatable); default: the model's "
                            "check directives")
    check.add_argument("--json", action="store_true", help="emit the JSON report")
    check.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks and equality sampling")
    check.add_argument("--trials", type=int, default=20,
                       help="number of random instances per randomized check")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return 2
    try:
        model = parse_model(text, name=path.stem)
    except DslError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 2
    suites = None
    if args.suite:
        suites = list(SUITES) if "all" in args.suite else args.suite
    try:
        report = run_checks(model, suites=suites, seed=args.seed,
                            trials=args.trials)
    except Exception as err:  # configuration-level failure
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
