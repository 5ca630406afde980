"""Command-line front end: ``python -m repro.analysis <paths>``.

Exit codes: 0 clean (at the chosen ``--fail-on`` threshold), 1 findings at
or above the threshold (or unparseable files), 2 usage error.

The run pipeline is one in-process pass: parse the files, run the
selected rules, apply the baseline, report.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import Baseline, apply_baseline, write_baseline
from repro.analysis.engine import Severity, analyze_paths, registered_rules
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Domain-aware static analysis for the repro ranking library: "
            "AST lints RP001–RP011 plus the interprocedural flow rules "
            "RP012–RP016."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all), e.g. RP001,RP002",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="minimum severity that makes the exit code non-zero (default: error)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="project root for cross-file context (default: auto-detected)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "accepted-findings file; matching findings are reported as "
            "[baselined] and do not gate the exit code"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help=(
            "write every currently active finding to FILE as a baseline "
            "entry (reasons must then be filled in) and exit 0"
        ),
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include noqa-suppressed and baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for code, rule in registered_rules().items():
        lines.append(f"{code}  {str(rule.severity):7s}  {rule.name}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_list_rules())
        return 0

    select = None
    if options.select:
        select = [code.strip() for code in options.select.split(",") if code.strip()]
    root = Path(options.root) if options.root else None

    try:
        result = analyze_paths(options.paths, root=root, select=select)
    except (FileNotFoundError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")

    if options.write_baseline:
        count = write_baseline(result, Path(options.write_baseline))
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {options.write_baseline}")
        return 0

    stale_note = ""
    if options.baseline:
        try:
            baseline = Baseline.load(Path(options.baseline))
        except (OSError, ValueError) as exc:
            parser.exit(2, f"error: {exc}\n")
        stale = baseline.stale_entries(result)
        result = apply_baseline(result, baseline)
        if stale:
            stale_note = "\n".join(
                f"note: stale baseline entry ({entry.rule} at {entry.path}) "
                "matches nothing — remove it"
                for entry in stale
            )

    if options.format == "json":
        print(render_json(result))
    elif options.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, show_suppressed=options.show_suppressed))
        if stale_note:
            print(stale_note, file=sys.stderr)

    fail_on = None if options.fail_on == "never" else Severity.parse(options.fail_on)
    return result.exit_code(fail_on)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
