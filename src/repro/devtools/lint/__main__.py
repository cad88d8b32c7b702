"""``python -m repro.devtools.lint`` — the lint runner CLI.

Exit codes: 0 clean, 1 findings, 2 usage or internal error.  This
module declares every lint option once; ``repro lint`` forwards its
arguments here unchanged.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.devtools.lint import all_rules, lint_paths
from repro.devtools.lint.reporters import render_json, render_text
from repro.obs import console

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The runner's argument parser: paths, format, code filters, catalogue."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "repro's semantic lint: paper-invariant rules RL004-RL017, "
            "each checking one file at a time (import resolver and scope "
            "passes included)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively, e.g. RL004,RL006",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv``, run the lint, print the report; return exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0
    try:
        report = lint_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except (KeyError, OSError) as err:
        console.error(f"lint error: {err}")
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(report))
    return 1 if report.findings else 0


def main() -> None:  # pragma: no cover - thin shell
    """Run the lint on ``sys.argv`` and exit with its code."""
    sys.exit(run())


if __name__ == "__main__":
    main()
