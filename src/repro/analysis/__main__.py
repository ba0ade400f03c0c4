"""CLI: ``python -m repro.analysis [--format text|json|github]``.

Exit status is 1 when any finding not suppressed by an inline pragma exists
(the CI gate), 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.diagnostics import format_diagnostics
from repro.analysis.runner import run_analysis


def _default_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant analysis for the reproduction.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to analyze (default: the installed repro "
        "package)",
    )
    parser.add_argument(
        "--package",
        default=None,
        help="package name for module paths (default: the root dir name)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line",
    )
    args = parser.parse_args(argv)

    root = (args.root or _default_root()).resolve()
    report = run_analysis(root, package=args.package)

    if report.findings or args.format == "json":
        # JSON consumers get a well-formed (possibly empty) document either
        # way; text/github stay silent when there is nothing to report.
        print(format_diagnostics(report.findings, args.format))
    if not args.quiet:
        print(
            f"repro.analysis: {len(report.findings)} finding(s), "
            f"{len(report.suppressed)} pragma-suppressed, "
            f"{report.modules_scanned} modules scanned",
            file=sys.stderr,
        )
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
