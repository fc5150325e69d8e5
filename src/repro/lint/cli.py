"""Command-line front end: ``kplex-enum lint`` and ``python -m repro.lint``.

Exit codes: 0 — clean (modulo suppressions and baseline); 1 — new
findings (or syntax errors in analysed files); 2 — usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional

from .analyzer import analyze
from .baseline import BASELINE_NAME, load_baseline, write_baseline
from .model import find_repo_root
from .registry import check_table, get_check
from .reporters import render_json, render_text

__all__ = ["add_lint_arguments", "build_parser", "main", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to analyse (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"baseline file (default: <repo-root>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file: every finding counts as new",
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--fail-on-new",
        action="store_true",
        default=True,
        help="exit 1 when new findings exist (default; see --exit-zero)",
    )
    parser.add_argument(
        "--exit-zero",
        action="store_true",
        help="always exit 0, reporting findings without failing",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CHECK",
        default=None,
        help="run only this check (repeatable)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        metavar="CHECK",
        default=None,
        help="skip this check (repeatable)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed/baselined findings in text output",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list registered checks and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis for the k-plex repo.",
    )
    add_lint_arguments(parser)
    return parser


def run_lint(
    args: argparse.Namespace,
    stdout: Optional[IO[str]] = None,
    stderr: Optional[IO[str]] = None,
) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if args.list_checks:
        width = max((len(row["check"]) for row in check_table()), default=0)
        for row in check_table():
            out.write(f"{row['check']:<{width}}  {row['description']}\n")
        return 0

    root = find_repo_root()
    baseline_path = (
        Path(args.baseline) if args.baseline else root / BASELINE_NAME
    )
    try:
        if args.select:
            for name in args.select:
                get_check(name)
        if args.disable:
            for name in args.disable:
                get_check(name)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 2

    missing = [
        path
        for path in args.paths
        if not (Path(path) if Path(path).is_absolute() else root / path).exists()
    ]
    if missing:
        err.write(f"error: no such path: {', '.join(missing)}\n")
        return 2

    baseline = None
    if not args.no_baseline and not args.baseline_update:
        baseline = load_baseline(baseline_path)
    result = analyze(
        args.paths,
        root=root,
        select=args.select,
        disable=args.disable,
        baseline=baseline,
    )

    if args.baseline_update:
        count = write_baseline(baseline_path, result.findings)
        out.write(
            f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
            f"to {baseline_path}\n"
        )
        return 0

    if args.format == "json":
        render_json(result, out)
    else:
        render_text(result, out, show_quiet=args.show_suppressed)

    if result.syntax_errors:
        return 1
    if result.new_findings and not args.exit_zero:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_lint(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
